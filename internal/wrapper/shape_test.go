package wrapper

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// reqSpec is the content of a request; build turns it into a request made
// of fresh *StarQuery, pattern and sparql.Expr values, so two builds of one
// spec share nothing but what they say.
type reqSpec struct {
	class     string
	constant  rdf.Term // object of the first pattern
	npatterns int
	filterOp  sparql.CompareOp
	filterVal rdf.Term
	seeds     engine.Seeds // Rows == 0: unseeded
	block     bool
	schema    []string
}

func (sp reqSpec) build() (*Request, *engine.Schema) {
	st := &StarQuery{SubjectVar: "s", Class: sp.class}
	st.Patterns = append(st.Patterns, sparql.TriplePattern{
		S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(rdf.RDFType)), O: sparql.TermNode(sp.constant)})
	for i := 0; i < sp.npatterns; i++ {
		st.Patterns = append(st.Patterns, sparql.TriplePattern{
			S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(fmt.Sprintf("http://p/%d", i))), O: sparql.VarNode(fmt.Sprintf("o%d", i))})
	}
	req := &Request{
		Stars: []*StarQuery{st},
		Filters: []sparql.Expr{&sparql.LogicExpr{Op: sparql.OpAnd,
			L: &sparql.CompareExpr{Op: sp.filterOp, L: &sparql.VarExpr{Name: "o0"}, R: &sparql.ConstExpr{Term: sp.filterVal}},
			R: &sparql.NotExpr{X: &sparql.FuncExpr{Name: "CONTAINS", Args: []sparql.Expr{
				&sparql.FuncExpr{Name: "STR", Args: []sparql.Expr{&sparql.VarExpr{Name: "s"}}},
				&sparql.ConstExpr{Term: rdf.NewLiteral("x")}}}},
		}},
	}
	if sp.seeds.Rows > 0 {
		req.Seeds = engine.Seeds{Vars: slices.Clone(sp.seeds.Vars), IDs: slices.Clone(sp.seeds.IDs), Rows: sp.seeds.Rows}
		req.Block = sp.block
	}
	return req, engine.NewSchema(append([]string(nil), sp.schema...))
}

func randomSpec(rng *rand.Rand) reqSpec {
	sp := reqSpec{
		class:     fmt.Sprintf("http://c/%d", rng.Intn(100)),
		constant:  rdf.NewIRI(fmt.Sprintf("http://c/%d", rng.Intn(100))),
		npatterns: 1 + rng.Intn(4),
		filterOp:  sparql.CompareOp(rng.Intn(6)),
		filterVal: rdf.Term{Kind: rdf.TermLiteral, Value: fmt.Sprint(rng.Intn(50)), Datatype: rdf.XSDInteger},
		block:     rng.Intn(2) == 0,
		schema:    []string{"s"},
	}
	for i := 0; i < sp.npatterns; i++ {
		sp.schema = append(sp.schema, fmt.Sprintf("o%d", i))
	}
	if rng.Intn(3) > 0 {
		sp.seeds = randomSeeds(rng, sp.block)
	}
	return sp
}

// randomSeeds draws seeds over ?s and ?o0 as the bind joins hand them
// over: one row for the per-answer form, one to three distinct rows for a
// block. The IDs need not be interned — a cache key never resolves them.
func randomSeeds(rng *rand.Rand, block bool) engine.Seeds {
	s := engine.Seeds{Vars: []string{"s", "o0"}, Rows: 1}
	if block {
		s.Rows += rng.Intn(3)
	}
	for i := 0; i < s.Rows*len(s.Vars); i++ {
		s.IDs = append(s.IDs, dict.ID(1+1000*i+rng.Intn(1000)))
	}
	return s
}

// TestResponseCacheKeyIsContent is the key's property: two independently
// built, structurally equal requests share one entry, and so do the
// per-answer and block forms of the same seeds (a per-answer seed and a
// block of that one seed included) — the charge is the request's, not the
// entry's. A request that differs in any one of class, a pattern
// constant, a filter constant, a filter operator, the schema order, or the seed IDs — one ID changed, a variable turned
// Unbound, two seeds of a block swapped, no seed at all — does not.
func TestResponseCacheKeyIsContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	formsOfOneSeed := 0
	for i := 0; i < 200; i++ {
		sp := randomSpec(rng)
		if sp.seeds.Rows == 0 {
			sp.seeds = randomSeeds(rng, sp.block)
		}
		if sp.seeds.Rows == 1 {
			formsOfOneSeed++
		}
		c := NewResponseCache()
		req, schema := sp.build()
		stored := newColEntry(nil, 0, len(schema.Vars))
		c.store(respKeyFor("src", req, schema), req, schema, stored)

		lookup := func(sp reqSpec) *respEntry {
			req, schema := sp.build()
			return c.lookup(respKeyFor("src", req, schema), req, schema, 0)
		}
		if got := lookup(sp); got != stored {
			t.Fatalf("spec %+v: an equal request built from scratch missed", sp)
		}
		other := sp
		other.block = !other.block
		if got := lookup(other); got != stored {
			t.Fatalf("spec %+v: the other form of the same seeds missed", sp)
		}
		mutations := map[string]func(*reqSpec){
			"class":            func(m *reqSpec) { m.class += "x" },
			"pattern constant": func(m *reqSpec) { m.constant.Value += "x" },
			"filter constant":  func(m *reqSpec) { m.filterVal.Value += "0" },
			"filter operator":  func(m *reqSpec) { m.filterOp = (m.filterOp + 1) % 6 },
			"schema order": func(m *reqSpec) {
				m.schema = append([]string(nil), m.schema...)
				m.schema[0], m.schema[1] = m.schema[1], m.schema[0]
			},
			"one ID changed": func(m *reqSpec) {
				m.seeds.IDs = slices.Clone(m.seeds.IDs)
				m.seeds.IDs[len(m.seeds.IDs)-1]++
			},
			"variable turned Unbound": func(m *reqSpec) {
				m.seeds.IDs = slices.Clone(m.seeds.IDs)
				m.seeds.IDs[0] = dict.Unbound
			},
			"unseeded": func(m *reqSpec) { m.seeds = engine.Seeds{} },
		}
		if sp.seeds.Rows > 1 {
			mutations["two seeds swapped"] = func(m *reqSpec) {
				m.seeds.IDs = slices.Clone(m.seeds.IDs)
				r0, r1 := m.seeds.Row(0), m.seeds.Row(1)
				for c := range r0 {
					r0[c], r1[c] = r1[c], r0[c]
				}
			}
		}
		for name, mutate := range mutations {
			m := sp
			mutate(&m)
			if lookup(m) != nil {
				t.Fatalf("spec %+v: a request differing in %s hit the entry", sp, name)
			}
		}
	}
	if formsOfOneSeed == 0 {
		t.Fatal("no spec compared a per-answer seed with a one-seed block")
	}
}

// TestResponseCacheCollisionIsMiss forces two different requests onto one
// key: the verification on hit turns the collision into a miss.
func TestResponseCacheCollisionIsMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randomSpec(rng), randomSpec(rng)
	b.block, b.seeds, b.schema = a.block, a.seeds, a.schema
	reqA, schema := a.build()
	reqB, _ := b.build()
	if reqA.shapeOf().canon == reqB.shapeOf().canon {
		t.Fatal("specs are equal")
	}
	c := NewResponseCache()
	k := respKeyFor("src", reqA, schema)
	c.store(k, reqA, schema, newColEntry(nil, 0, len(schema.Vars)))
	if c.lookup(k, reqB, schema, 0) != nil {
		t.Fatal("a different request under the same key was served")
	}
	if c.lookup(k, reqA, schema, 0) == nil {
		t.Fatal("the stored request missed")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestResponseCacheSharedAcrossTranslationModes: a cached SQL request is
// translated the same way in either mode — naive mode diverts only
// multi-star per-answer requests, which are never cached — so a naive-mode
// and an optimized-mode wrapper over one cache share the entry of a
// single-star request: one miss, then one hit.
func TestResponseCacheSharedAcrossTranslationModes(t *testing.T) {
	src := testSource(t)
	cache := NewResponseCache()
	naive := NewSQLWrapper(src, nil, TranslationNaive, 0)
	naive.SetResponseCache(cache)
	opt := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	opt.SetResponseCache(cache)
	req := func() *Request {
		return &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}}
	}
	first, second := collect(t, naive, req()), collect(t, opt, req())
	if len(first) != 5 || len(second) != 5 {
		t.Fatalf("naive answered %d rows, optimized %d; want 5 each", len(first), len(second))
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, then 1 hit, on 1 entry", st)
	}
}

// TestResponseCacheSweep: at the cap the cache evicts instead of dropping
// everything — never-reused seeded entries go, the hot unseeded entry and
// a seeded entry that was hit stay — and it stays bounded.
func TestResponseCacheSweep(t *testing.T) {
	sp := randomSpec(rand.New(rand.NewSource(3)))
	sp.seeds = engine.Seeds{}
	c := NewResponseCache()
	hot, schema := sp.build()
	hotKey := respKeyFor("src", hot, schema)
	c.store(hotKey, hot, schema, newColEntry(nil, 0, len(schema.Vars)))

	block := func(i int) *Request {
		return hot.WithSeeds(engine.Seeds{Vars: []string{"s"}, IDs: []dict.ID{dict.ID(i + 1)}, Rows: 1}, true)
	}
	reused := block(0)
	reusedKey := respKeyFor("src", reused, schema)
	c.store(reusedKey, reused, schema, newColEntry(nil, 0, len(schema.Vars)))
	for i := 1; i <= 3*respCacheCap; i++ {
		req := block(i)
		c.store(respKeyFor("src", req, schema), req, schema, newColEntry(nil, 0, len(schema.Vars)))
		if i%100 == 0 {
			// The hot entries are asked for between sweeps, as a replayed
			// workload does; the other blocks never again.
			if c.lookup(hotKey, hot, schema, 0) == nil || c.lookup(reusedKey, reused, schema, 0) == nil {
				t.Fatalf("after %d stores: a hot entry was evicted", i)
			}
		}
		if n := c.Stats().Entries; n > respCacheCap {
			t.Fatalf("after %d stores: %d entries, cap %d", i, n, respCacheCap)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 || int(st.Evictions)+st.Entries != 3*respCacheCap+2 {
		t.Fatalf("stats %+v: evictions + entries must account for every store", st)
	}
}

// TestSweepFallsBackToArbitrary: when every entry was used since the last
// sweep the second chance frees nothing, and the sweep still makes room.
func TestSweepFallsBackToArbitrary(t *testing.T) {
	m := map[int]*shapeSlot{}
	for i := 0; i < 100; i++ {
		m[i] = &shapeSlot{}
		m[i].used.Store(true)
	}
	if n := sweep(m, 75, func(s *shapeSlot) bool { return s.used.Swap(false) }); n != 25 || len(m) != 75 {
		t.Fatalf("evicted %d, %d left; want 25 and 75", n, len(m))
	}
	if n := sweep(m, 75, func(s *shapeSlot) bool { return s.used.Swap(false) }); n != 75 || len(m) != 0 {
		t.Fatalf("second sweep over unused entries evicted %d, %d left", n, len(m))
	}
}

// TestShapeLazyOnBareLiteral: a request written as a struct literal
// fingerprints itself on first use, race-free under concurrent first uses,
// and its seeded forms carry the same shape value.
func TestShapeLazyOnBareLiteral(t *testing.T) {
	req, _ := randomSpec(rand.New(rand.NewSource(5))).build()
	var wg sync.WaitGroup
	shapes := make([]*shape, 8)
	for i := range shapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shapes[i] = req.shapeOf()
		}()
	}
	wg.Wait()
	for _, s := range shapes {
		if s != shapes[0] {
			t.Fatal("concurrent first uses disagree on the shape")
		}
	}
	seed := engine.Seeds{Vars: []string{"s"}, IDs: []dict.ID{1}, Rows: 1}
	if req.WithSeeds(seed, false).shapeOf() != shapes[0] || req.WithSeeds(seed, true).shapeOf() != shapes[0] {
		t.Fatal("seeded forms do not carry the leaf's shape")
	}
}

// TestShapeRoundTrip: the canonical form decodes to a request with the
// same canonical form, through every expression and node kind; the table
// hands the same decoded request to every caller.
func TestShapeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	table := NewShapeTable()
	for i := 0; i < 50; i++ {
		req, _ := randomSpec(rng).build()
		canon, err := req.Shape()
		if err != nil {
			t.Fatal(err)
		}
		got, err := table.Resolve([]byte(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if again, _ := got.Shape(); again != canon {
			t.Fatal("decoded request has a different canonical form")
		}
		if got.shapeOf().h != req.shapeOf().h {
			t.Fatal("decoded request has a different fingerprint")
		}
		if got.Stars[0].Class != req.Stars[0].Class || got.Filters[0].String() != req.Filters[0].String() {
			t.Fatalf("decoded %v / %v, want %v / %v", got.Stars[0], got.Filters[0], req.Stars[0], req.Filters[0])
		}
		if second, _ := table.Resolve([]byte(canon)); second != got {
			t.Fatal("the table decoded a known shape again")
		}
	}
}

type customExpr struct{ sparql.VarExpr }

// TestShapeRejects: bytes that are not a canonical form are an error and
// are not remembered; a filter outside the closed AST still fingerprints
// but does not serialize.
func TestShapeRejects(t *testing.T) {
	req, _ := randomSpec(rand.New(rand.NewSource(13))).build()
	canon, _ := req.Shape()
	deep := []byte{shapeVersion, 1, 1, 's', 1, 'c', 0, 1}
	deep = append(deep, []byte(strings.Repeat(string(rune(exprNot)), maxExprDepth+2))...)
	bad := map[string][]byte{
		"empty":                nil,
		"unknown version":      append([]byte{9}, canon[1:]...),
		"truncated":            []byte(canon[:len(canon)/2]),
		"trailing bytes":       append([]byte(canon), 0),
		"no stars":             {shapeVersion, 0, 0},
		"unknown expr tag":     append([]byte(canon[:len(canon)-1]), 0x55),
		"huge count":           {shapeVersion, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"nested too deep":      deep,
		"non-minimal uvarint":  append([]byte{shapeVersion, 0x81, 0x00}, canon[2:]...),
		"no-argument function": {shapeVersion, 1, 1, 's', 1, 'c', 0, 1, exprFunc, 3, 'S', 'T', 'R', 0},
	}
	table := NewShapeTable()
	for name, b := range bad {
		if _, err := table.Resolve(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if table.Len() != 0 {
		t.Fatalf("rejected bytes were remembered: %d shapes", table.Len())
	}

	opaque := &Request{Stars: req.Stars, Filters: []sparql.Expr{&customExpr{sparql.VarExpr{Name: "s"}}}}
	if _, err := opaque.Shape(); err == nil {
		t.Fatal("a filter outside the closed AST serialized")
	}
	if opaque.shapeOf().h == (&Request{Stars: req.Stars}).shapeOf().h {
		t.Fatal("the opaque filter does not take part in the fingerprint")
	}
}

// TestShapeTableBounded: the table sweeps at its cap and keeps resolving.
func TestShapeTableBounded(t *testing.T) {
	table := NewShapeTable()
	for i := 0; i < 2*shapeTableCap; i++ {
		req := &Request{Stars: []*StarQuery{{SubjectVar: "s", Class: fmt.Sprintf("http://c/%d", i)}}}
		canon, _ := req.Shape()
		if _, err := table.Resolve([]byte(canon)); err != nil {
			t.Fatal(err)
		}
		if n := table.Len(); n > shapeTableCap {
			t.Fatalf("%d shapes, cap %d", n, shapeTableCap)
		}
	}
}
