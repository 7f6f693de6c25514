package wrapper

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// TestBindJoinReplayStaysInIDs: a bind join replayed against warm wrappers
// answers every seeded request from the response cache without turning a
// seed into terms or a term into an ID. The replay hands the wrappers a
// fresh, empty dictionary — anything interned would land there — and
// records every request the join issued: the dictionary must stay empty,
// no request may have materialized its seed bindings, and every request
// must be a hit. Both join forms, both source models.
func TestBindJoinReplayStaysInIDs(t *testing.T) {
	ctx := context.Background()
	cache := NewResponseCache()
	sqlw := NewSQLWrapper(testSource(t), nil, TranslationOptimized, 0)
	sqlw.SetResponseCache(cache)
	rdfw := NewRDFWrapper("people-rdf", peopleGraph(t, sqlw), nil, 0)
	rdfw.SetResponseCache(cache)
	left := &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}}
	right := &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/age> ?a .`)}}
	rSchema := engine.NewSchema(right.Vars())
	out := engine.NewSchema([]string{"p", "n", "a"})

	// run executes the join with the right side's wrapper interning into d,
	// recording the seeded requests it issues.
	run := func(w Wrapper, block bool, d *dict.Dict) ([]string, []*Request) {
		var mu sync.Mutex
		var issued []*Request
		call := func(req *Request) *engine.CStream {
			mu.Lock()
			issued = append(issued, req)
			mu.Unlock()
			s, err := w.ExecuteColumnar(ctx, req, rSchema, d)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		l, err := execute(ctx, sqlw, left)
		if err != nil {
			t.Fatal(err)
		}
		var s *engine.CStream
		if block {
			svc := func(ctx context.Context, seeds engine.Seeds) *engine.CStream { return call(right.WithSeeds(seeds)) }
			s = engine.CBlockBindJoin(ctx, l, svc, []string{"p"}, out, 2, 2, 0)
		} else {
			svc := func(ctx context.Context, seed engine.Seeds) *engine.CStream { return call(right.WithSeed(seed)) }
			s = engine.CBindJoin(ctx, l, svc, []string{"p"}, out, 0)
		}
		var answers []string
		for _, b := range drain(t, s) {
			answers = append(answers, b.FullKey())
		}
		sort.Strings(answers)
		return answers, issued
	}

	for _, w := range []Wrapper{sqlw, rdfw} {
		for _, block := range []bool{true, false} {
			first, _ := run(w, block, testDict)
			if len(first) == 0 {
				t.Fatalf("%s block=%v: the join answered nothing", w.SourceID(), block)
			}
			before := cache.Stats()
			fresh := dict.New()
			again, issued := run(w, block, fresh)
			if !slices.Equal(again, first) {
				t.Fatalf("%s block=%v: replay answered\n%v\nwant\n%v", w.SourceID(), block, again, first)
			}
			if n := fresh.Len(); n != 0 {
				t.Errorf("%s block=%v: the replay interned %d terms", w.SourceID(), block, n)
			}
			for _, req := range issued {
				if req.terms.Load() != nil {
					t.Errorf("%s block=%v: a replayed request materialized its seeds %+v", w.SourceID(), block, req.Seeds)
				}
			}
			// The left side's unseeded request is the other hit.
			if hits := cache.Stats().Hits - before.Hits; hits != int64(len(issued))+1 {
				t.Errorf("%s block=%v: %d cache hits for %d seeded requests", w.SourceID(), block, hits, len(issued))
			}
		}
	}
}

// TestReplayAllocsScaleWithBatches is the zero-copy replay guard: a
// response-cache hit sends views of the stored columns, so what it
// allocates grows with the batches it sends, never with the rows. A hit of
// a 1,024-row per-answer entry (16 batches of 64) may allocate only a
// small constant per extra batch over a hit of a 64-row entry (one batch).
func TestReplayAllocsScaleWithBatches(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 1024; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://ex/large"), O: rdf.IntLiteral(int64(i))})
		if i < 64 {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://ex/small"), O: rdf.IntLiteral(int64(i))})
		}
	}
	const batch = 64
	w := NewRDFWrapper("g", g, NoDelaySim(1), batch)
	w.SetResponseCache(NewResponseCache())
	hitAllocs := func(pred string, rows int) float64 {
		req := &Request{Stars: []*StarQuery{star(t, "s", "", "?s <"+pred+"> ?o .")}}
		schema := engine.NewSchema(req.Vars())
		replay := func() int {
			s, err := w.ExecuteColumnar(context.Background(), req, schema, testDict)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for b := range s.Batches() {
				n += b.Len
			}
			return n
		}
		if n := replay(); n != rows { // the miss that stores the entry
			t.Fatalf("%s: %d rows, want %d", pred, n, rows)
		}
		return testing.AllocsPerRun(50, func() { replay() })
	}
	small, large := hitAllocs("http://ex/small", 64), hitAllocs("http://ex/large", 1024)
	const perBatch = 3 // the batch and its column headers, plus slack
	if extra := large - small; extra > perBatch*(1024/batch-1) {
		t.Fatalf("a 1,024-row hit allocates %.1f times, a 64-row hit %.1f: %.1f more for 15 more batches, want at most %d per batch",
			large, small, extra, perBatch)
	}
}

// TestReplaySharedByConcurrentOperators: goroutines replay one stored
// entry at once through the streaming operators — the batches they
// receive are views of the entry's columns — and the entry reads the
// same afterwards. Run under -race, any operator writing into a received
// batch is a reported race as well as a changed checksum.
func TestReplaySharedByConcurrentOperators(t *testing.T) {
	var sols []sparql.Binding
	for i := 0; i < 300; i++ {
		sols = append(sols, sparql.Binding{
			"s": rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i%100)),
			"n": rdf.IntLiteral(int64(i)),
		})
	}
	schema := engine.NewSchema([]string{"s", "n"})
	e := newRespEntry(&Request{}, sols, schema, testDict)
	checksum := func() uint64 {
		h := uint64(fnvOffset)
		for _, col := range e.cols {
			for _, id := range col {
				h = mixResp(h ^ uint64(id))
			}
		}
		return h
	}
	before := checksum()
	filters := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?n . FILTER (?n >= 150) }`).Filters

	ctx := context.Background()
	replay := func() *engine.CStream { return e.stream(ctx, nil, schema, 16) }
	pipelines := []struct {
		name string
		run  func() *engine.CStream
		rows int
	}{
		{"filter", func() *engine.CStream { return engine.CFilter(ctx, replay(), filters, testDict) }, 150},
		{"project", func() *engine.CStream { return engine.CProject(ctx, replay(), []string{"n"}) }, 300},
		{"distinct", func() *engine.CStream {
			return engine.CDistinct(ctx, engine.CProject(ctx, replay(), []string{"s"}))
		}, 100},
		{"limit", func() *engine.CStream { return engine.CLimit(ctx, replay(), 50) }, 50},
		{"union", func() *engine.CStream { return engine.CUnion(ctx, schema, 0, replay(), replay()) }, 600},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		for _, p := range pipelines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, n := p.run(), 0
				for b, ok := s.Recv(nil); ok; b, ok = s.Recv(nil) {
					n += b.Len
				}
				s.Drain() // what the LIMIT left behind
				if n != p.rows {
					t.Errorf("%s: %d rows, want %d", p.name, n, p.rows)
				}
			}()
		}
	}
	wg.Wait()
	if after := checksum(); after != before {
		t.Fatalf("the replayed entry changed: checksum %x, was %x", after, before)
	}
}
