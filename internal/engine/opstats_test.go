package engine

import (
	"context"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

func bi(v string, n int64) sparql.Binding {
	return sparql.Binding{v: rdf.IntLiteral(n)}
}

func TestOpStatsNilSafe(t *testing.T) {
	// Every accounting method must be a no-op on a nil receiver: operators
	// run with no stats attached (the common non-analyze path) and must not
	// pay for nil checks beyond the receiver test.
	var st *OpStats
	ctx := context.Background()
	d := dict.New()
	in := feed(ctx, d, []sparql.Binding{b("x", "1")}, 0)
	got, ok := in.Recv(st)
	if !ok || got.Len != 1 {
		t.Fatalf("nil recv = %v, %v", got, ok)
	}
	out := NewCStream(in.Schema(), 4)
	if !st.sendC(ctx, out, got) {
		t.Fatal("nil send failed")
	}
	st.in(3)
	st.addHashEntries(5)
	st.AddBlock()
	st.close()
	if snap := st.Snapshot(); snap.Kind != "" || snap.BindingsIn != 0 {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
}

func TestOpStatsCountsThroughContext(t *testing.T) {
	ctx := context.Background()
	st := NewOpStats("filter", "?x > 0")
	sctx := WithOpStats(ctx, st)
	if StatsFrom(sctx) != st {
		t.Fatal("StatsFrom did not return the attached stats")
	}
	if StatsFrom(ctx) != nil {
		t.Fatal("StatsFrom on a bare context should be nil")
	}

	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?x . FILTER (?x >= 0) }`)
	d := dict.New()
	in := feed(ctx, d, []sparql.Binding{bi("x", 1), bi("x", 2), bi("x", 3)}, 0)
	got := collect(CFilter(sctx, in, q.Filters, d), d)
	if len(got) != 3 {
		t.Fatalf("filter passed %d, want 3", len(got))
	}
	snap := st.Snapshot()
	if snap.BindingsIn != 3 || snap.BindingsOut != 3 {
		t.Fatalf("in/out = %d/%d, want 3/3", snap.BindingsIn, snap.BindingsOut)
	}
	if snap.BatchesIn == 0 || snap.BatchesOut == 0 {
		t.Fatalf("batches in/out = %d/%d, want nonzero", snap.BatchesIn, snap.BatchesOut)
	}
	if snap.Kind != "filter" || snap.Label != "?x > 0" {
		t.Fatalf("identity = %q/%q", snap.Kind, snap.Label)
	}
	if snap.Wall <= 0 {
		t.Fatalf("wall = %v, want > 0", snap.Wall)
	}
}

func TestOpStatsChildrenNotShared(t *testing.T) {
	// Operators must build their children with the parent's plain context:
	// attaching stats for operator A must not leak into inputs it consumes.
	ctx := WithOpStats(context.Background(), NewOpStats("hash-join", "x"))
	inner := StatsFrom(ctx)
	d := dict.New()
	left := feed(context.Background(), d, []sparql.Binding{b("x", "1")}, 0)
	right := feed(context.Background(), d, []sparql.Binding{b("x", "1", "y", "2")}, 0)
	got := collect(CSymmetricHashJoin(ctx, left, right, []string{"x"}, right.Schema(), 4, 0), d)
	if len(got) != 1 {
		t.Fatalf("join produced %d, want 1", len(got))
	}
	snap := inner.Snapshot()
	if snap.BindingsIn != 2 {
		t.Fatalf("join saw %d inputs, want 2 (one per side)", snap.BindingsIn)
	}
	if snap.BindingsOut != 1 {
		t.Fatalf("join emitted %d, want 1", snap.BindingsOut)
	}
	if snap.HashEntries != 2 {
		t.Fatalf("hash entries = %d, want 2", snap.HashEntries)
	}
}

func TestMeterAttributesLeafStream(t *testing.T) {
	ctx := context.Background()
	st := NewOpStats("service", "diseasome")
	d := dict.New()
	src := feed(ctx, d, []sparql.Binding{b("x", "1"), b("x", "2")}, 0)
	got := collect(CMeter(src, st), d)
	if len(got) != 2 {
		t.Fatalf("metered stream delivered %d, want 2", len(got))
	}
	snap := st.Snapshot()
	if snap.BindingsOut != 2 || snap.BatchesOut == 0 {
		t.Fatalf("metered out = %d bindings / %d batches", snap.BindingsOut, snap.BatchesOut)
	}
	if snap.Wall <= 0 {
		t.Fatalf("wall = %v, want > 0", snap.Wall)
	}
	// CMeter with nil stats must degrade to a passthrough.
	src2 := feed(ctx, d, []sparql.Binding{b("x", "9")}, 0)
	if CMeter(src2, nil) != src2 {
		t.Fatal("nil-stats CMeter did not return its input")
	}
}

func TestOpStatsSnapshotWallWhileRunning(t *testing.T) {
	st := NewOpStats("service", "s")
	time.Sleep(2 * time.Millisecond)
	// Not closed yet: Snapshot must report elapsed-so-far, not zero.
	if snap := st.Snapshot(); snap.Wall < time.Millisecond {
		t.Fatalf("running wall = %v, want >= 1ms", snap.Wall)
	}
	st.close()
	frozen := st.Snapshot().Wall
	time.Sleep(2 * time.Millisecond)
	if again := st.Snapshot().Wall; again != frozen {
		t.Fatalf("wall moved after close: %v -> %v", frozen, again)
	}
}
