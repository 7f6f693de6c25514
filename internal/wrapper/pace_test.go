package wrapper

import (
	"context"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
)

// countingEntry is a one-column response of n rows holding IDs 1..n, so
// a received ID names its row.
func countingEntry(n int) (*respEntry, *engine.Schema) {
	rows := make([]dict.ID, n)
	for i := range rows {
		rows[i] = dict.ID(i + 1)
	}
	return newColEntry(rows, n, 1), engine.NewSchema([]string{"x"})
}

// dueTimes replays n per-answer samples from a twin of the stream's
// simulator: due[i] is the sum of the pauses of rows 0..i, the earliest
// time after the stream's start row i may be received.
func dueTimes(twin *netsim.Simulator, n int) []time.Duration {
	due := make([]time.Duration, n)
	var sum time.Duration
	for i := range due {
		sum += twin.Pause(twin.Sample())
		due[i] = sum
	}
	return due
}

// receiveRows reads s to its end, returning when each row arrived
// relative to start, in row order. pause, when set, is called after the
// first batch.
func receiveRows(t *testing.T, s *engine.CStream, start time.Time, n int, pause func()) []time.Duration {
	t.Helper()
	var at []time.Duration
	for b, ok := s.Recv(nil); ok; b, ok = s.Recv(nil) {
		now := time.Since(start)
		for _, id := range b.Cols[0] {
			if int(id) != len(at)+1 {
				t.Fatalf("received row %d, want row %d", id-1, len(at))
			}
			at = append(at, now)
		}
		if pause != nil {
			pause()
			pause = nil
		}
	}
	if len(at) != n {
		t.Fatalf("received %d rows, want %d", len(at), n)
	}
	return at
}

// TestStreamPacesToSampledDeadline pins how a per-answer stream sleeps
// under a real-time simulator: to a running deadline, so no row arrives
// before its own and every earlier sampled pause has elapsed, and the
// whole response takes its sampled sum plus a fixed slack — timer
// wake-ups that run late do not add up row after row.
func TestStreamPacesToSampledDeadline(t *testing.T) {
	const n = 100
	// A sleep per row that ends about 0.6 ms late puts a hundred rows
	// some 60 ms behind their samples; a paced stream is late by at most
	// its last wake-up.
	const slack = 30 * time.Millisecond
	e, schema := countingEntry(n)
	sim, twin := netsim.NewSimulator(netsim.Gamma2, 1, 7), netsim.NewSimulator(netsim.Gamma2, 1, 7)
	due := dueTimes(twin, n)

	start := time.Now()
	at := receiveRows(t, e.stream(context.Background(), sim, true, schema, 0), start, n, nil)
	wall := time.Since(start)
	for i, a := range at {
		if a < due[i] {
			t.Errorf("row %d received after %v, before its sampled %v", i, a, due[i])
		}
	}
	if sum := due[n-1]; wall > sum+slack {
		t.Errorf("stream took %v for %v of sampled pauses, more than %v late", wall, sum, slack)
	}
	if sim.Messages() != n || sim.SimulatedDelay() != twin.SimulatedDelay() {
		t.Errorf("charged %d messages, %v; want %d, %v", sim.Messages(), sim.SimulatedDelay(), n, twin.SimulatedDelay())
	}
}

// TestStreamBackpressureDelaysLaterRows pins that pacing never catches
// up on time a consumer held the stream back: a consumer that stops
// reading after the first row blocks the producer once the stream's
// buffer of four batches fills, and every row after that block arrives
// at least as much later than its sampled time as the consumer stalled
// past the block — the rows are not sent in a burst once reading
// resumes.
func TestStreamBackpressureDelaysLaterRows(t *testing.T) {
	const (
		n = 40
		// The consumer resumes stall past row 8's sampled time. By then
		// row 0 was read, rows 1-4 fill the buffer and row 5's send has
		// blocked, so every row after row 8 comes after the block.
		blocked = 8
		stall   = 20 * time.Millisecond
		// tol allows for how late the producer woke for the row whose
		// send blocked: that wake-up's lateness is taken off the block.
		tol = 8 * time.Millisecond
	)
	e, schema := countingEntry(n)
	sim, twin := netsim.NewSimulator(netsim.Gamma2, 1, 11), netsim.NewSimulator(netsim.Gamma2, 1, 11)
	due := dueTimes(twin, n)

	start := time.Now()
	s := e.stream(context.Background(), sim, true, schema, 1)
	at := receiveRows(t, s, start, n, func() {
		time.Sleep(time.Until(start.Add(due[blocked] + stall)))
	})
	for i := blocked + 1; i < n; i++ {
		if want := due[i] + stall - tol; at[i] < want {
			t.Errorf("row %d received after %v, want at least %v: the stall was caught up", i, at[i], want)
		}
	}
}
