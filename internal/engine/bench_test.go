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

func BenchmarkSymmetricHashJoinPar1(b *testing.B) { benchSymmetricHashJoin(b, 1) }
func BenchmarkSymmetricHashJoinPar4(b *testing.B) { benchSymmetricHashJoin(b, 4) }
func BenchmarkSymmetricHashJoinPar8(b *testing.B) { benchSymmetricHashJoin(b, 8) }

func benchSymmetricHashJoin(b *testing.B, par int) {
	ctx := context.Background()
	d := dict.New()
	left := encodeInput(d, benchRelation(2048, 256, "l"), 0)
	right := encodeInput(d, benchRelation(2048, 256, "r"), 0)
	out := NewSchema([]string{"k", "l", "r"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, out, par, 0))
		if n != 2048*8 {
			b.Fatalf("join produced %d, want %d", n, 2048*8)
		}
	}
}

// BenchmarkSymmetricHashJoinProbeAllocs is the allocation guard for the
// probe path: every input shares ONE join key but no pair is compatible,
// so nothing is emitted and the measured allocs/op are pure insert+probe
// overhead. A probe that copies the opposite side's match list per
// arriving row allocates quadratic bytes on this workload; the sharded
// operator probes in place. A regression shows up as an explosion of B/op
// here.
func BenchmarkSymmetricHashJoinProbeAllocs(b *testing.B) {
	ctx := context.Background()
	left, right := incompatibleInputs(dict.New(), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, left.schema, 1, 0)); got != 0 {
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
	if got := drain(CSymmetricHashJoin(ctx, left.stream(), right.stream(), []string{"k"}, left.schema, 1, 0)); got != 0 {
		t.Fatalf("incompatible workload emitted %d bindings", got)
	}
	runtime.ReadMemStats(&after)
	perInput := (after.TotalAlloc - before.TotalAlloc) / (2 * n)
	// Generous linear budget: hash slices, table arena and bucket growth.
	if perInput > 1024 {
		t.Errorf("probe allocated %d bytes per input row (budget 1024): per-row match-list copy introduced?", perInput)
	}
}

func BenchmarkBindJoin(b *testing.B) {
	ctx := context.Background()
	d := dict.New()
	left := encodeInput(d, benchRelation(256, 64, "l"), 0)
	right := benchRelation(512, 64, "r")
	rSchema := NewSchema(varsOf(right))
	svc := func(ctx context.Context, seeds Seeds) *CStream {
		seed := seeds.Bindings(d)[0]
		var rows []sparql.Binding
		for _, rb := range right {
			if seed.Compatible(rb) {
				rows = append(rows, rb)
			}
		}
		return CFromBindings(ctx, rows, rSchema, d, 0)
	}
	out := NewSchema([]string{"k", "l", "r"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CBindJoin(ctx, left.stream(), svc, []string{"k"}, out, 0))
	}
}

func BenchmarkBlockBindJoin(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(CBlockBindJoin(ctx, left.stream(), svc, []string{"k"}, out, 16, 4, 0))
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

// BenchmarkColWriter measures the bind join's producer path: per-row
// AppendMerged through the size/interval flush rules.
func BenchmarkColWriter(b *testing.B) {
	ctx := context.Background()
	in := benchColBatch([]string{"k", "x"}, 4096)
	ident, none := []int{0, 1}, []int{-1, -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewCStream(in.Schema, 4)
		go func() {
			defer out.Close()
			w := NewColWriter(ctx, out, DefaultBatchSize)
			defer w.Close()
			for r := 0; r < in.Len; r++ {
				if !w.AppendMerged(in, r, ident, in, r, none) {
					return
				}
			}
		}()
		if n := drain(out); n != in.Len {
			b.Fatalf("writer delivered %d, want %d", n, in.Len)
		}
	}
}

// benchColBatch builds one columnar batch of n rows over vars with dense,
// nonzero dictionary IDs — the raw material of the uint64 hot paths.
func benchColBatch(vars []string, n int) *ColBatch {
	schema := NewSchema(vars)
	cb := NewColBuilderCap(schema, n)
	ids := make([]dict.ID, len(vars))
	for r := 0; r < n; r++ {
		for c := range ids {
			ids[c] = dict.ID(uint64(r*len(vars)+c) + 1)
		}
		cb.AppendIDs(ids)
	}
	return cb.Take()
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

// BenchmarkColBatchMerge measures the join output kernel: merging a left
// and a right row into one output row under the row model's Merge
// semantics (left wins when both bound), over raw ID columns.
func BenchmarkColBatchMerge(b *testing.B) {
	left := benchColBatch([]string{"k", "l"}, 1024)
	right := benchColBatch([]string{"k", "r"}, 1024)
	out := NewSchema([]string{"k", "l", "r"})
	lmap := []int{0, 1, -1}
	rmap := []int{0, -1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := NewColBuilderCap(out, left.Len)
		for r := 0; r < left.Len; r++ {
			cb.AppendMerged(left, r, lmap, right, r, rmap)
		}
		if got := cb.Take(); got.Len != left.Len {
			b.Fatalf("merged %d rows, want %d", got.Len, left.Len)
		}
	}
}

// TestProbeInnerLoopZeroAlloc is the layout regression guard: the
// symmetric hash join's probe inner loop — hash the key columns, look up
// the bucket, compare candidate keys — must run entirely on uint64 IDs
// with zero allocations per probed row. If this fails, something on the
// probe path fell back to materializing terms or string keys.
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
			for _, cand := range tbl.buckets[h] {
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
