package ontario_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ontario"
	"ontario/internal/lslod"
)

// canonAnswers renders an answer set as a sorted multiset of canonical
// binding strings, so two runs compare byte-identically regardless of
// arrival order.
func canonAnswers(t *testing.T, answers []ontario.Binding) []string {
	t.Helper()
	out := make([]string, len(answers))
	for i, b := range answers {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, b[v].String())
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// TestBatchSizesAnswerEquivalenceLSLOD is the correctness contract of the
// vectorized data plane: on every LSLOD benchmark query, every batch size
// must return the byte-identical answer multiset that batch=1 — the
// binding-at-a-time semantics of the pre-vectorization engine — returns,
// in both plan modes.
func TestBatchSizesAnswerEquivalenceLSLOD(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	ctx := context.Background()

	modes := []struct {
		name string
		opt  ontario.Option
	}{
		{"aware", ontario.WithAwarePlan()},
		{"unaware", ontario.WithUnawarePlan()},
	}
	for _, q := range lslod.Queries() {
		for _, mode := range modes {
			run := func(batch int) []string {
				res, err := eng.Query(ctx, q.Text, mode.opt,
					ontario.WithNetworkScale(0),
					ontario.WithBatchSize(batch))
				if err != nil {
					t.Fatalf("%s %s batch=%d: %v", q.ID, mode.name, batch, err)
				}
				answers, err := res.Collect()
				if err != nil {
					t.Fatalf("%s %s batch=%d: %v", q.ID, mode.name, batch, err)
				}
				return canonAnswers(t, answers)
			}
			want := run(1) // binding-at-a-time reference semantics
			for _, batch := range []int{2, 64, 256, 4096} {
				got := run(batch)
				if len(got) != len(want) {
					t.Fatalf("%s %s batch=%d: %d answers, reference %d",
						q.ID, mode.name, batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %s batch=%d: answer multiset differs at %d:\n got %s\nwant %s",
							q.ID, mode.name, batch, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// settleGoroutines GCs and waits briefly so finished goroutines are
// reaped before counting — the NumGoroutine-settling pattern from the
// server tests, applied to the public cursor API.
func settleGoroutines() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestResultsCloseMidStreamDoesNotLeak closes the cursor after the first
// answer of a slow streaming query: the whole execution pipeline —
// wrapper producers, batch writers, join workers — must unwind instead of
// blocking on the abandoned exchange.
func TestResultsCloseMidStreamDoesNotLeak(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	before := settleGoroutines()

	res, err := eng.Query(context.Background(), lslod.Queries()[2].Text,
		ontario.WithUnawarePlan(),
		ontario.WithNetwork(ontario.Gamma3),
		ontario.WithNetworkScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatalf("no first answer: %v", res.Err())
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.Next() {
		t.Error("Next returned true after Close")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		after := settleGoroutines()
		if after <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Close mid-stream: %d before, %d after", before, after)
		}
	}
}

// TestResultsContextCancelMidBatch cancels the query context while the
// cursor still holds an unconsumed buffered batch: iteration must stop,
// Err must report the cancellation, and no goroutine may stay behind.
func TestResultsContextCancelMidBatch(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	before := settleGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	res, err := eng.Query(ctx, lslod.Queries()[2].Text,
		ontario.WithUnawarePlan(),
		ontario.WithNetwork(ontario.Gamma3),
		ontario.WithNetworkScale(1),
		ontario.WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatalf("no first answer: %v", res.Err())
	}
	cancel()
	// The cursor may serve a few more solutions from its buffered batch —
	// that is the documented iterate-within-the-batch behaviour — but must
	// terminate promptly once the buffer drains.
	for n := 0; res.Next(); n++ {
		if n > 100000 {
			t.Fatal("cursor did not stop after context cancellation")
		}
	}
	if err := res.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", err)
	}
	res.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		after := settleGoroutines()
		if after <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel mid-batch: %d before, %d after", before, after)
		}
	}
}
