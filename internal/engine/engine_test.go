package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// varsOf returns the sorted distinct variables the relations bind — the
// schema a test input or a join output is laid out over.
func varsOf(rels ...[]sparql.Binding) []string {
	seen := map[string]bool{}
	var out []string
	for _, rel := range rels {
		for _, row := range rel {
			for v := range row {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// feed is the input side of every operator test: rows enter the columnar
// exchange through CFromBindings over the variables they bind, in batches
// of batch (0 means the default).
func feed(ctx context.Context, d *dict.Dict, rows []sparql.Binding, batch int) *CStream {
	return CFromBindings(ctx, rows, NewSchema(varsOf(rows)), d, batch)
}

// collect is the output side: it receives the stream to its end and
// materializes every batch back into bindings through DecodeBatch, then
// drains what a LIMIT left behind.
func collect(s *CStream, d *dict.Dict) []sparql.Binding {
	var out []sparql.Binding
	for batch, ok := s.Recv(nil); ok; batch, ok = s.Recv(nil) {
		out = append(out, DecodeBatch(batch, d)...)
	}
	s.Drain()
	return out
}

// outSchema is a join's output layout: every variable either side binds.
func outSchema(left, right []sparql.Binding) *Schema {
	return NewSchema(varsOf(left, right))
}

func b(kv ...string) sparql.Binding {
	out := sparql.NewBinding()
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i]] = rdf.NewLiteral(kv[i+1])
	}
	return out
}

func keysOf(bs []sparql.Binding) []string {
	out := make([]string, len(bs))
	for i, x := range bs {
		out[i] = x.FullKey()
	}
	sort.Strings(out)
	return out
}

func assertSame(t *testing.T, got, want []sparql.Binding) {
	t.Helper()
	g, w := keysOf(got), keysOf(want)
	if len(g) != len(w) {
		t.Fatalf("got %d bindings, want %d\n got: %v\nwant: %v", len(g), len(w), got, want)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("binding multiset differs:\n got: %v\nwant: %v", got, want)
		}
	}
}

// referenceJoin is the oracle: nested loops with compatibility semantics.
func referenceJoin(left, right []sparql.Binding) []sparql.Binding {
	var out []sparql.Binding
	for _, l := range left {
		for _, r := range right {
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
	}
	return out
}

func TestSymmetricHashJoinBasic(t *testing.T) {
	ctx := context.Background()
	left := []sparql.Binding{b("x", "1", "y", "a"), b("x", "2", "y", "b"), b("x", "3", "y", "c")}
	right := []sparql.Binding{b("x", "2", "z", "q"), b("x", "3", "z", "r"), b("x", "3", "z", "s"), b("x", "9", "z", "t")}
	d := dict.New()
	got := collect(CSymmetricHashJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), []string{"x"}, outSchema(left, right), DefaultProbeParallelism(), 0), d)
	assertSame(t, got, referenceJoin(left, right))
	if len(got) != 3 {
		t.Fatalf("join produced %d, want 3", len(got))
	}
}

func TestSymmetricHashJoinCrossProduct(t *testing.T) {
	ctx := context.Background()
	left := []sparql.Binding{b("a", "1"), b("a", "2")}
	right := []sparql.Binding{b("c", "x"), b("c", "y"), b("c", "z")}
	d := dict.New()
	got := collect(CSymmetricHashJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), nil, outSchema(left, right), 4, 0), d)
	if len(got) != 6 {
		t.Fatalf("cross product produced %d, want 6", len(got))
	}
}

func TestSymmetricHashJoinEmitsExactlyOncePerPair(t *testing.T) {
	// Heavily duplicated keys: every (l, r) pair with equal keys must be
	// emitted exactly once even under concurrency.
	ctx := context.Background()
	var left, right []sparql.Binding
	for i := 0; i < 50; i++ {
		left = append(left, b("k", fmt.Sprint(i%5), "l", fmt.Sprint(i)))
		right = append(right, b("k", fmt.Sprint(i%5), "r", fmt.Sprint(i)))
	}
	d := dict.New()
	for round := 0; round < 20; round++ {
		// Alternate probe parallelism so both the serial and the sharded
		// paths prove exactly-once emission.
		got := collect(CSymmetricHashJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), []string{"k"}, outSchema(left, right), 1+round%4, 1+round%3), d)
		if len(got) != 500 { // 5 groups x 10 x 10
			t.Fatalf("round %d: got %d, want 500", round, len(got))
		}
	}
}

func TestBindJoin(t *testing.T) {
	ctx := context.Background()
	left := []sparql.Binding{b("x", "1"), b("x", "2"), b("x", "3")}
	// The right service answers only for x in {2,3} with two rows each.
	d := dict.New()
	svcSchema := NewSchema([]string{"w", "x"})
	svc := func(ctx context.Context, seeds Seeds) *CStream {
		seed := seeds.Bindings(d)[0]
		var rows []sparql.Binding
		if v, ok := seed["x"]; ok && (v.Value == "2" || v.Value == "3") {
			rows = []sparql.Binding{
				seed.Merge(b("w", "a"+v.Value)),
				seed.Merge(b("w", "b"+v.Value)),
			}
		}
		return CFromBindings(ctx, rows, svcSchema, d, 0)
	}
	got := collect(CBindJoin(ctx, feed(ctx, d, left, 0), svc, []string{"x"}, svcSchema, 0), d)
	if len(got) != 4 {
		t.Fatalf("bind join produced %d, want 4: %v", len(got), got)
	}
	for _, g := range got {
		if _, ok := g["w"]; !ok {
			t.Fatalf("missing right-side binding: %v", g)
		}
	}
}

// Property: symmetric hash join equals the reference join for arbitrary
// small inputs.
func TestQuickJoinEquivalence(t *testing.T) {
	ctx := context.Background()
	f := func(lKeys, rKeys []uint8) bool {
		var left, right []sparql.Binding
		for i, k := range lKeys {
			left = append(left, b("k", fmt.Sprint(k%8), "l", fmt.Sprint(i)))
		}
		for i, k := range rKeys {
			right = append(right, b("k", fmt.Sprint(k%8), "r", fmt.Sprint(i)))
		}
		d := dict.New()
		got := collect(CSymmetricHashJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), []string{"k"}, outSchema(left, right), 3, 0), d)
		want := referenceJoin(left, right)
		if len(got) != len(want) {
			return false
		}
		g, w := keysOf(got), keysOf(want)
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterOperator(t *testing.T) {
	ctx := context.Background()
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?x . FILTER (?v > 5) }`)
	in := []sparql.Binding{
		{"v": rdf.IntLiteral(3)},
		{"v": rdf.IntLiteral(7)},
		{"v": rdf.IntLiteral(10)},
	}
	d := dict.New()
	got := collect(CFilter(ctx, feed(ctx, d, in, 0), q.Filters, d), d)
	if len(got) != 2 {
		t.Fatalf("filter kept %d, want 2", len(got))
	}
	// A batch the filter only partly keeps is rebuilt, not forwarded.
	if got := collect(CFilter(ctx, feed(ctx, d, in, 1), q.Filters, d), d); len(got) != 2 {
		t.Fatalf("filter over single-row batches kept %d, want 2", len(got))
	}
	// No filters: pass-through.
	s := feed(ctx, d, in, 0)
	if CFilter(ctx, s, nil, d) != s {
		t.Error("empty filter should return the input stream")
	}
}

func TestProjectDistinctLimitOffset(t *testing.T) {
	ctx := context.Background()
	in := []sparql.Binding{
		b("x", "1", "y", "a"),
		b("x", "1", "y", "b"),
		b("x", "2", "y", "c"),
		b("x", "2", "y", "d"),
	}
	d := dict.New()
	// Batch sizes 0 (one batch) and 1/3 (cuts inside and across batches)
	// cover both the forward-untouched and the rebuild paths.
	for _, batch := range []int{0, 1, 3} {
		got := collect(CDistinct(ctx, CProject(ctx, feed(ctx, d, in, batch), []string{"x"})), d)
		if len(got) != 2 {
			t.Fatalf("batch %d: distinct projection = %d, want 2", batch, len(got))
		}
		got = collect(CLimit(ctx, feed(ctx, d, in, batch), 3), d)
		if len(got) != 3 {
			t.Fatalf("batch %d: limit = %d, want 3", batch, len(got))
		}
		got = collect(COffset(ctx, feed(ctx, d, in, batch), 3), d)
		if len(got) != 1 || got[0]["y"].Value != "d" {
			t.Fatalf("batch %d: offset = %v, want the last row", batch, got)
		}
		got = collect(CLimit(ctx, feed(ctx, d, in, batch), 0), d)
		if len(got) != 0 {
			t.Fatalf("batch %d: limit 0 = %d, want 0", batch, len(got))
		}
	}
	// A projected variable the input does not carry stays unbound.
	got := collect(CProject(ctx, feed(ctx, d, in, 0), []string{"x", "missing"}), d)
	if len(got) != 4 {
		t.Fatalf("projection onto a missing variable = %d rows, want 4", len(got))
	}
	for _, g := range got {
		if _, ok := g["missing"]; ok || len(g) != 1 {
			t.Fatalf("projection onto a missing variable bound it: %v", g)
		}
	}
}

func TestUnionOperator(t *testing.T) {
	ctx := context.Background()
	a := []sparql.Binding{b("x", "1"), b("x", "2")}
	c := []sparql.Binding{b("x", "3")}
	e := []sparql.Binding{b("y", "4")} // a child binding other variables is padded
	d := dict.New()
	got := collect(CUnion(ctx, NewSchema(varsOf(a, c, e)), 0,
		feed(ctx, d, a, 0), feed(ctx, d, c, 0), feed(ctx, d, e, 0), feed(ctx, d, nil, 0)), d)
	assertSame(t, got, append(append(append([]sparql.Binding{}, a...), c...), e...))
}

func TestOrderByOperator(t *testing.T) {
	ctx := context.Background()
	in := []sparql.Binding{
		{"v": rdf.IntLiteral(5)},
		{"v": rdf.IntLiteral(1)},
		{"v": rdf.IntLiteral(3)},
	}
	d := dict.New()
	want := []int64{5, 3, 1}
	for _, batch := range []int{0, 2} { // one output batch, and a cut mid-result
		got := collect(COrderBy(ctx, feed(ctx, d, in, 0), []sparql.OrderKey{{Var: "v", Desc: true}}, d, batch), d)
		if len(got) != len(want) {
			t.Fatalf("batch %d: order by returned %d rows, want %d", batch, len(got), len(want))
		}
		for i, w := range want {
			if got[i]["v"].Value != fmt.Sprint(w) {
				t.Fatalf("batch %d: order by desc: %v", batch, got)
			}
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// An infinite producer.
	d := dict.New()
	schema := NewSchema([]string{"x"})
	src := NewCStream(schema, 0)
	go func() {
		for i := 0; ; i++ {
			if !src.SendBatch(ctx, EncodeBatch([]sparql.Binding{b("x", fmt.Sprint(i))}, schema, d)) {
				src.Close()
				return
			}
		}
	}()
	out := CProject(ctx, src, []string{"x"})
	out.Recv(nil) // take one batch
	cancel()
	// The pipeline must terminate quickly after cancellation.
	done := make(chan struct{})
	go func() {
		out.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not shut down after cancellation")
	}
}

func TestLeftJoinOperator(t *testing.T) {
	ctx := context.Background()
	left := []sparql.Binding{b("x", "1"), b("x", "2"), b("x", "3")}
	right := []sparql.Binding{b("x", "1", "y", "a"), b("x", "1", "y", "b"), b("x", "9", "y", "z")}
	d := dict.New()
	got := collect(CLeftJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), nil, outSchema(left, right), d, 0), d)
	// x=1 extends twice; x=2 and x=3 pass through unextended.
	if len(got) != 4 {
		t.Fatalf("left join produced %d, want 4: %v", len(got), got)
	}
	withY, withoutY := 0, 0
	for _, g := range got {
		if _, ok := g["y"]; ok {
			withY++
		} else {
			withoutY++
		}
	}
	if withY != 2 || withoutY != 2 {
		t.Fatalf("left join shape: %d extended / %d bare", withY, withoutY)
	}
}

func TestLeftJoinWithFilter(t *testing.T) {
	ctx := context.Background()
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?o . FILTER (?v > 5) }`)
	left := []sparql.Binding{{"x": rdf.IntLiteral(1)}}
	right := []sparql.Binding{
		{"v": rdf.IntLiteral(3)},
		{"v": rdf.IntLiteral(9)},
	}
	d := dict.New()
	got := collect(CLeftJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), q.Filters, outSchema(left, right), d, 0), d)
	// Only v=9 passes; the left row is extended once (not also emitted bare).
	if len(got) != 1 {
		t.Fatalf("left join with filter: %v", got)
	}
	if got[0]["v"].Value != "9" {
		t.Fatalf("wrong extension: %v", got[0])
	}
}

func TestLeftJoinAllFilteredOutKeepsLeft(t *testing.T) {
	ctx := context.Background()
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?o . FILTER (?v > 100) }`)
	left := []sparql.Binding{{"x": rdf.IntLiteral(1)}}
	right := []sparql.Binding{{"v": rdf.IntLiteral(3)}}
	d := dict.New()
	got := collect(CLeftJoin(ctx, feed(ctx, d, left, 0), feed(ctx, d, right, 0), q.Filters, outSchema(left, right), d, 0), d)
	if len(got) != 1 {
		t.Fatalf("left join: %v", got)
	}
	if _, ok := got[0]["v"]; ok {
		t.Fatalf("left row should be unextended: %v", got[0])
	}
}
