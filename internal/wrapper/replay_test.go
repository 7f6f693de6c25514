package wrapper

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
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
