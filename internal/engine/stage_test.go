package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/sparql"
)

// linearPipeline fuses meter → filter → project → distinct → offset →
// limit onto in, recording every stage into stats.
func linearPipeline(in *CStream, d *dict.Dict, offset, limit int, stats []*OpStats) *CStream {
	ctx := context.Background()
	at := func(i int) context.Context { return WithOpStats(ctx, stats[i]) }
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?x . FILTER (STRLEN(?x) > 0) }`)
	s := CMeter(in, stats[0])
	s = CFilter(at(1), s, q.Filters, d)
	s = CProject(at(2), s, []string{"x"})
	s = CDistinct(at(3), s)
	s = COffset(at(4), s, offset)
	return CLimit(at(5), s, limit)
}

func newStageStats() []*OpStats {
	var out []*OpStats
	for _, kind := range []string{"service", "filter", "project", "distinct", "offset", "limit"} {
		out = append(out, NewOpStats(kind, ""))
	}
	return out
}

// TestLinearPipelineGoroutines: the six streaming operators are stages the
// consumer applies, so a linear pipeline over one producer runs on the
// producer's goroutine and the consumer's — the stages start none.
func TestLinearPipelineGoroutines(t *testing.T) {
	d := dict.New()
	src, done := rawProducer(d, 100)
	before := runtime.NumGoroutine()
	stats := newStageStats()
	s := linearPipeline(src, d, 10, 50, stats)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("the stages started %d goroutines", after-before)
	}
	n := 0
	for b, ok := s.Recv(nil); ok; b, ok = s.Recv(nil) {
		n += b.Len
	}
	if n != 50 {
		t.Fatalf("pipeline delivered %d rows, want 50", n)
	}
	s.Drain()
	awaitDone(t, "producer", done)
	want := []int64{60, 60, 60, 60, 50, 50} // rows out per stage when LIMIT ends it
	for i, st := range stats {
		if got := st.Snapshot().BindingsOut; got != want[i] {
			t.Errorf("%s: %d rows out, want %d", st.Kind, got, want[i])
		}
	}
}

// settledGoroutines returns the goroutine count once it has held steady
// for a moment, so goroutines an earlier test left exiting do not skew a
// before/after comparison.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestSymmetricHashJoinOneGoroutine: the join receives from whichever
// input is ready and applies an input's fused stages itself, so building
// one over two open inputs — one with a FILTER stage — starts exactly one
// goroutine, and that goroutine ends once both inputs close.
func TestSymmetricHashJoinOneGoroutine(t *testing.T) {
	ctx := context.Background()
	d := dict.New()
	schema := NewSchema([]string{"x"})
	left, right := NewCStream(schema, 1), NewCStream(schema, 1)
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?x . FILTER (STRLEN(?x) > 1) }`)
	before := settledGoroutines()
	out := CSymmetricHashJoin(ctx, left, CFilter(ctx, right, q.Filters, d), []string{"x"}, schema, 0)
	if started := runtime.NumGoroutine() - before; started != 1 {
		t.Fatalf("the join started %d goroutines, want 1", started)
	}
	rows := EncodeBatch([]sparql.Binding{b("x", "1"), b("x", "22"), b("x", "333")}, schema, d)
	left.SendBatch(ctx, rows)
	right.SendBatch(ctx, rows)
	left.Close()
	right.Close()
	if got := len(collect(out, d)); got != 2 {
		t.Fatalf("join delivered %d rows, want 2 (the filter keeps 22 and 333)", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after both inputs closed", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageWallFinalWhenStreamEnds: every stage's wall time is frozen once
// its stream ends — by the producer closing it, by a satisfied LIMIT, or
// by a cancelled consumer draining it.
func TestStageWallFinalWhenStreamEnds(t *testing.T) {
	d := dict.New()
	for _, tc := range []struct {
		name  string
		limit int
		drain bool
	}{
		{"completed", 1000, false},
		{"limit", 5, false},
		{"cancelled", 1000, true},
	} {
		src, done := rawProducer(d, 20)
		stats := newStageStats()
		s := linearPipeline(src, d, 0, tc.limit, stats)
		if tc.drain {
			s.Recv(nil)
		} else {
			for _, ok := s.Recv(nil); ok; _, ok = s.Recv(nil) {
			}
		}
		if tc.drain || tc.limit < 20 {
			s.Drain()
		}
		awaitDone(t, tc.name, done)
		first := make([]time.Duration, len(stats))
		for i, st := range stats {
			first[i] = st.Snapshot().Wall
		}
		time.Sleep(2 * time.Millisecond)
		for i, st := range stats {
			if w := st.Snapshot().Wall; w != first[i] {
				t.Errorf("%s: %s wall moved after the stream ended: %v -> %v", tc.name, st.Kind, first[i], w)
			}
		}
	}
}
