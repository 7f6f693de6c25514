package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// benchRelation builds n bindings sharing nKeys distinct join keys on "k"
// plus one distinguishing variable.
func benchRelation(n, nKeys int, payloadVar string) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := 0; i < n; i++ {
		out[i] = sparql.Binding{
			"k":        rdf.NewLiteral(fmt.Sprint(i % nKeys)),
			payloadVar: rdf.NewLiteral(fmt.Sprint(i)),
		}
	}
	return out
}

// benchInput is a relation pre-encoded into exchange batches, so a
// benchmark iteration measures the operator and not term interning.
// Operators never modify a received batch, which makes the batches safe to
// replay across iterations.
type benchInput struct {
	schema  *Schema
	batches []*ColBatch
}

func encodeInput(d *dict.Dict, rows []sparql.Binding, batch int) benchInput {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	in := benchInput{schema: NewSchema(varsOf(rows))}
	for len(rows) > 0 {
		n := min(batch, len(rows))
		in.batches = append(in.batches, EncodeBatch(rows[:n], in.schema, d))
		rows = rows[n:]
	}
	return in
}

// stream replays the encoded batches on a fresh closed stream.
func (in benchInput) stream() *CStream {
	s := NewCStream(in.schema, len(in.batches))
	for _, b := range in.batches {
		s.ch <- b
	}
	s.Close()
	return s
}

func drain(s *CStream) int {
	n := 0
	for batch, ok := s.Recv(nil); ok; batch, ok = s.Recv(nil) {
		n += batch.Len
	}
	s.Drain()
	return n
}

func BenchmarkSymmetricHashJoin(b *testing.B) {
	ctx := context.Background()
	d := dict.New()
	left := encodeInput(d, benchRelation(2048, 256, "l"), 0)
	right := encodeInput(d, benchRelation(2048, 256, "r"), 0)
	out := NewSchema([]string{"k", "l", "r"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, out, 0))
		if n != 2048*8 {
			b.Fatalf("join produced %d, want %d", n, 2048*8)
		}
	}
}

// BenchmarkSymmetricHashJoinProbeAllocs is the allocation guard for the
// probe path: every input shares ONE join key but no pair is compatible,
// so nothing is emitted and the measured allocs/op are pure insert+probe
// overhead. A probe that copies the opposite side's match list per
// arriving row allocates quadratic bytes on this workload; the operator
// probes in place. A regression shows up as an explosion of B/op
// here.
func BenchmarkSymmetricHashJoinProbeAllocs(b *testing.B) {
	ctx := context.Background()
	left, right := incompatibleInputs(dict.New(), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, left.schema, 0)); got != 0 {
			b.Fatalf("incompatible workload emitted %d bindings", got)
		}
	}
}

// incompatibleInputs builds two n-row relations sharing ONE join key "k"
// but clashing on the common variable "v": every probe walks the whole
// opposite bucket and no pair is compatible.
func incompatibleInputs(d *dict.Dict, n int) (left, right benchInput) {
	l := make([]sparql.Binding, n)
	r := make([]sparql.Binding, n)
	for i := 0; i < n; i++ {
		l[i] = sparql.Binding{"k": rdf.NewLiteral("1"), "v": rdf.NewLiteral(fmt.Sprint(i))}
		r[i] = sparql.Binding{"k": rdf.NewLiteral("1"), "v": rdf.NewLiteral(fmt.Sprint(n + i))}
	}
	return encodeInput(d, l, 0), encodeInput(d, r, 0)
}

// TestSymmetricHashJoinNoQuadraticProbeCopy asserts the same property with
// a hard byte bound: on the incompatible single-key workload the join must
// allocate a roughly linear number of bytes per input row. A per-row copy
// of the opposite side's match list allocates ~n/2 slice elements per
// input (kilobytes per input at n=2048) and trips the bound by an order of
// magnitude.
func TestSymmetricHashJoinNoQuadraticProbeCopy(t *testing.T) {
	ctx := context.Background()
	const n = 2048
	left, right := incompatibleInputs(dict.New(), n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if got := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, left.schema, 0)); got != 0 {
		t.Fatalf("incompatible workload emitted %d bindings", got)
	}
	runtime.ReadMemStats(&after)
	perInput := (after.TotalAlloc - before.TotalAlloc) / (2 * n)
	// Generous linear budget: hash slices, table arena and bucket growth.
	if perInput > 1024 {
		t.Errorf("probe allocated %d bytes per input row (budget 1024): per-row match-list copy introduced?", perInput)
	}
}

// BenchmarkBindJoin runs the sequential bind join (a block of one seed,
// one request in flight) and the block form over the same service.
func BenchmarkBindJoin(b *testing.B) {
	ctx := context.Background()
	d := dict.New()
	left := encodeInput(d, benchRelation(256, 64, "l"), 0)
	right := benchRelation(512, 64, "r")
	rSchema := NewSchema(varsOf(right))
	svc := func(ctx context.Context, ids Seeds) *CStream {
		var rows []sparql.Binding
		seeds := ids.Bindings(d)
		for _, rb := range right {
			for _, s := range seeds {
				if s.Compatible(rb) {
					rows = append(rows, rb)
					break
				}
			}
		}
		return CFromBindings(ctx, rows, rSchema, d, 0)
	}
	out := NewSchema([]string{"k", "l", "r"})
	for _, cfg := range []struct{ block, conc int }{{1, 1}, {16, 4}} {
		b.Run(fmt.Sprintf("B=%d,W=%d", cfg.block, cfg.conc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drain(CBindJoin(ctx, left.stream(), svc, []string{"k"}, out, cfg.block, cfg.conc, 0))
			}
		})
	}
}

func BenchmarkLeftJoin(b *testing.B) {
	ctx := context.Background()
	d := dict.New()
	left := encodeInput(d, benchRelation(512, 64, "l"), 0)
	right := encodeInput(d, benchRelation(256, 128, "r"), 0)
	out := NewSchema([]string{"k", "l", "r"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CLeftJoin(ctx, left.stream(), right.stream(), nil, out, d, 0))
	}
}

func BenchmarkFilter(b *testing.B) {
	ctx := context.Background()
	q := sparql.MustParse(`SELECT ?x WHERE { ?s ?p ?x . FILTER (?v > 512) }`)
	rows := make([]sparql.Binding, 2048)
	for i := range rows {
		rows[i] = sparql.Binding{"v": rdf.IntLiteral(int64(i))}
	}
	d := dict.New()
	in := encodeInput(d, rows, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CFilter(ctx, in.stream(), q.Filters, d))
	}
}

func BenchmarkProjectDistinct(b *testing.B) {
	ctx := context.Background()
	in := encodeInput(dict.New(), benchRelation(2048, 128, "x"), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CDistinct(ctx, CProject(ctx, in.stream(), []string{"k"})))
	}
}

func BenchmarkUnion(b *testing.B) {
	ctx := context.Background()
	d := dict.New()
	a := encodeInput(d, benchRelation(1024, 64, "a"), 0)
	c := encodeInput(d, benchRelation(1024, 64, "c"), 0)
	out := NewSchema([]string{"a", "c", "k"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CUnion(ctx, out, 0, a.stream(), c.stream()))
	}
}

func BenchmarkOrderBy(b *testing.B) {
	ctx := context.Background()
	rows := make([]sparql.Binding, 2048)
	for i := range rows {
		rows[i] = sparql.Binding{"v": rdf.IntLiteral(int64((i * 7919) % 2048))}
	}
	d := dict.New()
	in := encodeInput(d, rows, 0)
	keys := []sparql.OrderKey{{Var: "v"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(COrderBy(ctx, in.stream(), keys, d, 0))
	}
}

func BenchmarkLimitOffset(b *testing.B) {
	ctx := context.Background()
	in := encodeInput(dict.New(), benchRelation(2048, 64, "x"), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CLimit(ctx, COffset(ctx, in.stream(), 512), 1024))
	}
}

// BenchmarkFusedPipeline measures the linear pipeline the executor builds
// over one service: a producer goroutine sending batches, as a wrapper
// does, with filter, projection and LIMIT fused onto its stream and
// applied by the receiving goroutine. The LIMIT ends the stream halfway,
// so each iteration also pays the cancel and drain of the producer.
func BenchmarkFusedPipeline(b *testing.B) {
	q := sparql.MustParse(`SELECT ?k WHERE { ?s ?p ?v . FILTER (?v >= 1024) }`)
	rows := make([]sparql.Binding, 4096)
	for i := range rows {
		rows[i] = sparql.Binding{"k": rdf.NewLiteral(fmt.Sprint(i % 256)), "v": rdf.IntLiteral(int64(i))}
	}
	d := dict.New()
	in := encodeInput(d, rows, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		src := NewCStream(in.schema, 1)
		go func() {
			defer src.Close()
			for _, batch := range in.batches {
				if !src.SendBatch(ctx, batch) {
					return
				}
			}
		}()
		s := CLimit(ctx, CProject(ctx, CFilter(ctx, src, q.Filters, d), []string{"k"}), 1536)
		n := 0
		for batch, ok := s.Recv(nil); ok; batch, ok = s.Recv(nil) {
			n += batch.Len
		}
		cancel()
		s.Drain()
		if n != 1536 {
			b.Fatalf("pipeline produced %d, want 1536", n)
		}
	}
}

// BenchmarkExchangeBatchSize measures the raw exchange cost of pushing a
// fixed workload through one channel and a projection stage at different
// batch granularities: batch=1 is the row-at-a-time baseline paying one
// channel receive per row.
func BenchmarkExchangeBatchSize(b *testing.B) {
	ctx := context.Background()
	rows := benchRelation(4096, 256, "x")
	d := dict.New()
	for _, batch := range []int{1, 16, 64, 256, 1024} {
		in := encodeInput(d, rows, batch)
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := drain(CProject(ctx, in.stream(), []string{"k", "x"})); n != len(rows) {
					b.Fatalf("pipeline produced %d, want %d", n, len(rows))
				}
			}
		})
	}
}

// benchColBatch builds one columnar batch of n rows over vars with dense,
// nonzero dictionary IDs — the raw material of the uint64 hot paths.
func benchColBatch(vars []string, n int) *ColBatch {
	b := &ColBatch{Schema: NewSchema(vars), Len: n, Cols: make([][]dict.ID, len(vars))}
	for c := range b.Cols {
		b.Cols[c] = make([]dict.ID, n)
		for r := range b.Cols[c] {
			b.Cols[c][r] = dict.ID(uint64(r*len(vars)+c) + 1)
		}
	}
	return b
}

// BenchmarkColBatchHash measures the row-hash kernel every columnar join
// and DISTINCT runs per row: mixing the key columns' uint64 IDs. The
// whole point of dictionary encoding is that this replaces building a
// concatenated string key per row, so allocs/op must stay zero.
func BenchmarkColBatchHash(b *testing.B) {
	batch := benchColBatch([]string{"a", "k", "v"}, 1024)
	cols := []int{1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for r := 0; r < batch.Len; r++ {
			sink ^= HashRowKey(batch, r, cols)
		}
	}
	_ = sink
}

// BenchmarkColBatchProject measures projecting batches onto a narrower
// schema (the columnar Project/Distinct input path): only the mapped
// columns are copied, row by row, through the builder.
func BenchmarkColBatchProject(b *testing.B) {
	batch := benchColBatch([]string{"a", "b", "c", "d"}, 1024)
	out := NewSchema([]string{"b", "d"})
	mapping := []int{1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := NewColBuilderCap(out, batch.Len)
		for r := 0; r < batch.Len; r++ {
			cb.AppendRow(batch, r, mapping)
		}
		if got := cb.Take(); got.Len != batch.Len {
			b.Fatalf("projected %d rows, want %d", got.Len, batch.Len)
		}
	}
}

// BenchmarkColBatchMerge measures the join output kernel: the emitter
// building one output batch from buffered (left row, right row) pairs,
// merging a batch row with a stored table row under the row model's Merge
// semantics (left wins when both bound) — the symmetric hash join's case.
func BenchmarkColBatchMerge(b *testing.B) {
	left := benchColBatch([]string{"k", "l"}, 1024)
	right := benchColBatch([]string{"k", "r"}, 1024)
	tbl := newColTable(len(right.Cols))
	for r := 0; r < right.Len; r++ {
		tbl.insert(right, r, 0)
	}
	out := NewCStream(NewSchema([]string{"k", "l", "r"}), 1)
	em := newCEmitter(context.Background(), out, left.Len, nil)
	l := joinSide{b: left, pos: []int{0, 1, -1}}
	r := joinSide{t: tbl, pos: []int{0, -1, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for row := 0; row < left.Len; row++ {
			em.pair(l, row, r, row)
		}
		em.flushPairs(l, r)
		if got, _ := out.Recv(nil); got.Len != left.Len {
			b.Fatalf("merged %d rows, want %d", got.Len, left.Len)
		}
	}
}

// TestProbeInnerLoopZeroAlloc is the layout regression guard: the
// symmetric hash join's probe inner loop — hash the key columns, walk the
// hash's chain in the flat table, compare candidate keys — must run
// entirely on uint64 IDs with zero allocations per probed row. If this
// fails, something on the probe path fell back to materializing terms or
// string keys.
func TestProbeInnerLoopZeroAlloc(t *testing.T) {
	batch := benchColBatch([]string{"k", "v"}, 512)
	keyCols := []int{0}
	tbl := newColTable(2)
	for r := 0; r < batch.Len; r++ {
		tbl.insert(batch, r, HashRowKey(batch, r, keyCols))
	}
	var matches int
	allocs := testing.AllocsPerRun(100, func() {
		for r := 0; r < batch.Len; r++ {
			h := HashRowKey(batch, r, keyCols)
			for cand := tbl.first(h); cand >= 0; cand = tbl.after(cand, h) {
				if keysEqualBT(batch, r, keyCols, tbl, cand, keyCols) {
					matches++
				}
			}
		}
	})
	if matches == 0 {
		t.Fatal("probe loop found no matches; the guard is not exercising the path")
	}
	if allocs != 0 {
		t.Fatalf("probe inner loop allocates %.1f times per run, want 0", allocs)
	}
}

// TestJoinOutputBytesPerCell is the allocation budget of the joins'
// output. Each workload answers many output rows per input row, so the
// output is most of what a run allocates: built at its exact size, an
// output cell costs its 8 bytes plus a share of the fixed overhead (join
// state, seeds, requests, streams); an output batch grown from a small
// block by doubling allocates about twice the cells it keeps and trips the
// budget. The block bind join's service answers 256 rows per block of 16
// seeds, each response batch becoming one output batch; the symmetric
// hash join and the left join join 16 rows per key with 16 rows per key.
func TestJoinOutputBytesPerCell(t *testing.T) {
	const keys, perKey, block = 256, 16, 16
	d := dict.New()
	lefts := make([]sparql.Binding, keys)
	rights := make([]sparql.Binding, 0, keys*perKey)
	for k := range lefts {
		lefts[k] = b("x", fmt.Sprint(k), "l", fmt.Sprint(k))
		for j := 0; j < perKey; j++ {
			rights = append(rights, b("x", fmt.Sprint(k), "r", fmt.Sprint(j)))
		}
	}
	left := encodeInput(d, lefts, 0)
	// One pre-encoded response per block, looked up by the block's first
	// seed, so the service itself allocates only the stream it returns.
	rSchema := NewSchema([]string{"r", "x"})
	xPos := left.schema.Pos("x")
	responses := map[dict.ID]*ColBatch{}
	for k := 0; k < keys; k += block {
		first := left.batches[0].Cols[xPos][k]
		responses[first] = EncodeBatch(rights[k*perKey:(k+block)*perKey], rSchema, d)
	}
	svc := func(ctx context.Context, seeds Seeds) *CStream {
		s := NewCStream(rSchema, 1)
		s.ch <- responses[seeds.Row(0)[0]]
		s.Close()
		return s
	}
	// keys/perKey join keys with perKey rows each on either side.
	fanL := make([]sparql.Binding, keys)
	fanR := make([]sparql.Binding, keys)
	for i := range fanL {
		fanL[i] = b("x", fmt.Sprint(i%(keys/perKey)), "l", fmt.Sprint(i))
		fanR[i] = b("x", fmt.Sprint(i%(keys/perKey)), "r", fmt.Sprint(i))
	}
	hashL, hashR := encodeInput(d, fanL, 0), encodeInput(d, fanR, 0)
	out := NewSchema([]string{"l", "r", "x"})
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		budget float64
		join   func() *CStream
	}{
		{"block bind join", 12, func() *CStream {
			return CBindJoin(ctx, left.stream(), svc, []string{"x"}, out, block, 4, 0)
		}},
		{"symmetric hash join", 15, func() *CStream {
			return CSymmetricHashJoin(ctx, hashL.stream(), hashR.stream(), []string{"x"}, out, 0)
		}},
		{"left join", 12, func() *CStream {
			return CLeftJoin(ctx, hashL.stream(), hashR.stream(), nil, out, d, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() uint64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if n := drain(tc.join()); n != keys*perKey {
					t.Fatalf("join produced %d rows, want %d", n, keys*perKey)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			// The least of a few runs: allocations of goroutines other
			// tests left draining can only add to a run.
			bytes := run()
			for i := 0; i < 2; i++ {
				bytes = min(bytes, run())
			}
			cells := uint64(keys * perKey * len(out.Vars))
			if perCell := float64(bytes) / float64(cells); perCell > tc.budget {
				t.Errorf("allocated %.1f bytes per output cell (budget %g): output not built at its exact size?", perCell, tc.budget)
			} else {
				t.Logf("%.1f bytes per output cell", perCell)
			}
		})
	}
}
