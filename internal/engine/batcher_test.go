package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/sparql"
)

// xSchema is the one-column layout the writer tests append into.
var xSchema = NewSchema([]string{"x"})

// newWriter returns a ColWriter over a fresh stream buffering buf batches,
// with an explicit flush interval (<= 0 disables timed flushing: only size
// and Close flush).
func newWriter(ctx context.Context, buf, size int, every time.Duration) (*ColWriter, *CStream) {
	out := NewCStream(xSchema, buf)
	w := NewColWriter(ctx, out, size)
	w.every = every
	return w, out
}

// appendX appends one row binding ?x to the literal v, as the merge of a
// one-row batch with nothing.
func appendX(w *ColWriter, d *dict.Dict, v string) bool {
	row := &ColBatch{Schema: xSchema, Len: 1, Cols: [][]dict.ID{{d.Intern(b("x", v)["x"])}}}
	return w.AppendMerged(row, 0, []int{0}, row, 0, []int{-1})
}

func TestColWriterFlushOnSize(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	w, out := newWriter(ctx, 8, 4, 0) // no timed flushing
	for i := 0; i < 8; i++ {
		if !appendX(w, d, fmt.Sprint(i)) {
			t.Fatal("append failed")
		}
	}
	w.Close()
	out.Close()
	var sizes []int
	for batch := range out.Batches() {
		sizes = append(sizes, batch.Len)
	}
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("batch sizes = %v, want [4 4]", sizes)
	}
}

func TestColWriterFlushOnClose(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	w, out := newWriter(ctx, 8, 100, 0)
	for i := 0; i < 3; i++ {
		appendX(w, d, fmt.Sprint(i))
	}
	w.Close()
	out.Close()
	var sizes []int
	for batch := range out.Batches() {
		sizes = append(sizes, batch.Len)
	}
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batch sizes = %v, want [3]", sizes)
	}
}

// TestColWriterFlushOnInterval is the time-to-first-answer rule: a
// partial batch must reach the consumer after the flush interval even
// though the producer never fills it or closes.
func TestColWriterFlushOnInterval(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	w, out := newWriter(ctx, 8, 1000, time.Millisecond)
	start := time.Now()
	appendX(w, d, "first")
	select {
	case batch := <-out.Batches():
		if rows := DecodeBatch(batch, d); len(rows) != 1 || rows[0]["x"].Value != "first" {
			t.Fatalf("unexpected batch %v", rows)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("timed flush took %v", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("partial batch never flushed on the interval")
	}
	w.Close()
}

// TestColWriterStaleTimerHoldsFreshBatch is the regression test for the
// stale-timer bug: a flush timer armed for a batch that has since gone out
// via a size-triggered flush must not flush the next partial batch almost
// immediately — the fresh batch gets its own full interval.
func TestColWriterStaleTimerHoldsFreshBatch(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	w, out := newWriter(ctx, 8, 2, time.Hour)
	// Fill and flush a batch on size; the timer armed by the first append
	// is now stale.
	appendX(w, d, "0")
	appendX(w, d, "1")
	if batch := <-out.Batches(); batch.Len != 2 {
		t.Fatalf("size flush delivered %d rows, want 2", batch.Len)
	}
	// Start a fresh partial batch, then simulate the stale timer firing.
	appendX(w, d, "2")
	w.timedFlush()
	select {
	case batch := <-out.Batches():
		t.Fatalf("stale timed flush delivered a fresh partial batch %v", DecodeBatch(batch, d))
	default:
	}
	w.Close()
	out.Close()
}

// TestColWriterTimedFlushRearms: after a stale fire re-arms the timer,
// the partial batch still flushes once its own interval elapses.
func TestColWriterTimedFlushRearms(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	w, out := newWriter(ctx, 8, 2, 20*time.Millisecond)
	appendX(w, d, "0")
	appendX(w, d, "1")
	<-out.Batches()
	appendX(w, d, "2")
	w.timedFlush() // stale fire right after buffering: must hold and re-arm
	select {
	case batch := <-out.Batches():
		t.Fatalf("stale timed flush delivered %v", DecodeBatch(batch, d))
	case <-time.After(5 * time.Millisecond):
	}
	select {
	case batch := <-out.Batches():
		if rows := DecodeBatch(batch, d); len(rows) != 1 || rows[0]["x"].Value != "2" {
			t.Fatalf("unexpected batch %v", rows)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed timer never flushed the partial batch")
	}
	w.Close()
}

// TestColWriterTimerStopsAfterFailure: once a flush fails (cancelled
// context), a pending timed flush must not fire again.
func TestColWriterTimerStopsAfterFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	w, _ := newWriter(ctx, 0, 10, time.Hour) // unbuffered, nobody reading
	appendX(w, d, "1")
	cancel()
	if w.Close() { // fails: context cancelled, nobody reading
		t.Fatal("flush with a cancelled context did not fail the writer")
	}
	w.timedFlush() // must be a no-op, not a second SendBatch attempt
	if appendX(w, d, "2") {
		t.Fatal("append succeeded after failure")
	}
}

func TestColWriterFailsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	w, _ := newWriter(ctx, 0, 1, 0) // unbuffered, nobody reading
	cancel()
	if appendX(w, d, "1") {
		t.Fatal("append succeeded with a cancelled context and a full stream")
	}
	if appendX(w, d, "2") {
		t.Fatal("append succeeded after a failed flush")
	}
}

func TestSendBatchEmptyIsNoOp(t *testing.T) {
	ctx := context.Background()
	s := NewCStream(xSchema, 0) // unbuffered: a real send would block
	if !s.SendBatch(ctx, nil) {
		t.Fatal("empty SendBatch failed")
	}
	if !s.TrySendBatch(nil) {
		t.Fatal("empty TrySendBatch failed")
	}
}

func TestCFromBindingsChunks(t *testing.T) {
	ctx := context.Background()
	in := make([]sparql.Binding, 10)
	for i := range in {
		in[i] = b("x", fmt.Sprint(i))
	}
	s := CFromBindings(ctx, in, xSchema, dict.New(), 4)
	var sizes []int
	total := 0
	for batch := range s.Batches() {
		sizes = append(sizes, batch.Len)
		total += batch.Len
	}
	if total != 10 || len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("chunking = %v (total %d), want [4 4 2]", sizes, total)
	}
}
