package wrapper

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// selfPred links some drugs to themselves and others elsewhere, so a
// variable repeated inside one pattern has matches to keep and to reject.
const selfPred = "http://test/self"

var walkLakeOnce struct {
	sync.Once
	src *catalog.Source
	g   *rdf.Graph
	err error
}

// walkLake is the DrugBank source of a small LSLOD lake and its RDF view
// (lslod.GraphFromSource) plus the self links, built once per test binary.
func walkLake(t *testing.T) (*catalog.Source, *rdf.Graph) {
	t.Helper()
	l := &walkLakeOnce
	l.Do(func() {
		lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
		if err != nil {
			l.err = err
			return
		}
		l.src = lk.Catalog.Source(lslod.DSDrugBank)
		if l.g, l.err = lslod.GraphFromSource(l.src); l.err != nil {
			return
		}
		typ, drug := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(lslod.ClassDrug)
		for i, s := range l.g.Subjects(&typ, &drug) {
			switch i % 3 {
			case 0:
				l.g.Add(rdf.Triple{S: s, P: rdf.NewIRI(selfPred), O: s})
			case 1:
				l.g.Add(rdf.Triple{S: s, P: rdf.NewIRI(selfPred), O: rdf.NewIRI("http://test/other")})
			}
		}
	})
	if l.err != nil {
		t.Fatal(l.err)
	}
	return l.src, l.g
}

// walkCase is one generated request; what lists the features it drew, for
// the failure message and the coverage check.
type walkCase struct {
	req    *Request
	schema *engine.Schema
	what   []string
}

// genWalkCase draws a star over one class of src: constants in any
// position, optionally (RDF only) a variable predicate and a variable
// repeated inside one pattern; a per-answer seed or a block (duplicates,
// Unbound cells, all-Unbound rows, foreign variables) drawn from the
// star's own solutions; filters over request variables, seeded ones
// included; a shuffled output schema. relational keeps to what the SQL translation
// accepts and always adds a filter the translation leaves to the wrapper.
func genWalkCase(rng *rand.Rand, src *catalog.Source, g *rdf.Graph, d *dict.Dict, relational bool) walkCase {
	var c walkCase
	note := func(s string) { c.what = append(c.what, s) }
	classes := []string{lslod.ClassDrug, lslod.ClassTarget}
	class := classes[rng.Intn(len(classes))]
	var preds []string
	for p := range src.Mappings[class].Properties {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	typ, cls := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(class)

	subj := sparql.VarNode("s")
	if rng.Intn(6) == 0 {
		subjects := g.Subjects(&typ, &cls)
		subj = sparql.TermNode(subjects[rng.Intn(len(subjects))])
		note("constant subject")
	}
	var pats []sparql.TriplePattern
	switch rng.Intn(4) {
	case 0, 1:
		pats = append(pats, sparql.TriplePattern{S: subj, P: sparql.TermNode(typ), O: sparql.TermNode(cls)})
	case 2:
		pats = append(pats, sparql.TriplePattern{S: subj, P: sparql.TermNode(typ), O: sparql.VarNode("t")})
	}
	for i, pi := range rng.Perm(len(preds))[:1+rng.Intn(min(3, len(preds)))] {
		p := rdf.NewIRI(preds[pi])
		o := sparql.VarNode(fmt.Sprintf("o%d", i))
		if rng.Intn(4) == 0 {
			objs := g.Objects(nil, &p)
			o = sparql.TermNode(objs[rng.Intn(len(objs))])
			note("constant object")
		}
		pats = append(pats, sparql.TriplePattern{S: subj, P: sparql.TermNode(p), O: o})
	}
	if !relational {
		if rng.Intn(4) == 0 {
			pats = append(pats, sparql.TriplePattern{S: subj, P: sparql.VarNode("pv"), O: sparql.VarNode("ov")})
			note("variable predicate")
		}
		if class == lslod.ClassDrug && rng.Intn(3) == 0 {
			pats = append(pats, sparql.TriplePattern{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(selfPred)), O: sparql.VarNode("s")})
			note("repeated variable")
		}
	}
	c.req = &Request{Stars: []*StarQuery{{SubjectVar: "s", Class: class, Patterns: pats}}}
	vars := c.req.Vars()

	// Seeds project the star's own solutions, so most of them match.
	if rng.Intn(3) > 0 {
		sols := sparql.EvalBGP(g, pats)
		seedVars := slices.Clone(vars)
		rng.Shuffle(len(seedVars), func(i, j int) { seedVars[i], seedVars[j] = seedVars[j], seedVars[i] })
		seedVars = seedVars[:min(len(seedVars), 1+rng.Intn(2))]
		if len(seedVars) == 0 || rng.Intn(5) == 0 {
			seedVars = append(seedVars, "z")
			note("foreign seed variable")
		}
		c.req.Block = rng.Intn(2) == 0
		rows := 1
		if c.req.Block {
			rows += rng.Intn(5)
			note("block")
		}
		s := engine.Seeds{Vars: seedVars, Rows: rows}
		for r := 0; r < rows; r++ {
			switch {
			case r > 0 && rng.Intn(4) == 0:
				s.IDs = append(s.IDs, s.Row(rng.Intn(r))...)
				note("duplicate seed")
				continue
			case c.req.Block && rng.Intn(8) == 0:
				s.IDs = append(s.IDs, make([]dict.ID, len(seedVars))...)
				note("all-Unbound seed")
				continue
			}
			var sol sparql.Binding
			if len(sols) > 0 {
				sol = sols[rng.Intn(len(sols))]
			}
			for _, v := range seedVars {
				t, ok := sol[v]
				switch {
				case rng.Intn(6) == 0:
					s.IDs = append(s.IDs, dict.Unbound)
					note("Unbound seed cell")
					continue
				case v == "z":
					t = rdf.NewLiteral("z")
				case !ok || rng.Intn(6) == 0:
					t = rdf.NewIRI(fmt.Sprintf("http://nowhere/%d", rng.Intn(3)))
				}
				s.IDs = append(s.IDs, d.Intern(t))
			}
		}
		c.req.Seeds = s
	}

	// Filters reference request variables, seeded ones included, as the
	// planner pushes them; the relational ones always include one the SQL
	// translation cannot push.
	if len(vars) > 0 && (relational || rng.Intn(2) == 0) {
		v := &sparql.VarExpr{Name: vars[rng.Intn(len(vars))]}
		if slices.Contains(c.req.Seeds.Vars, v.Name) {
			note("filter on a seeded variable")
		}
		str := &sparql.FuncExpr{Name: "STR", Args: []sparql.Expr{v}}
		lit := func(s string) sparql.Expr { return &sparql.ConstExpr{Term: rdf.NewLiteral(s)} }
		local := []sparql.Expr{
			&sparql.FuncExpr{Name: "REGEX", Args: []sparql.Expr{str, lit("[13]")}},
			&sparql.FuncExpr{Name: "BOUND", Args: []sparql.Expr{v}},
			&sparql.NotExpr{X: &sparql.FuncExpr{Name: "BOUND", Args: []sparql.Expr{v}}},
			&sparql.FuncExpr{Name: "STRSTARTS", Args: []sparql.Expr{str, lit("http")}},
			&sparql.CompareExpr{Op: sparql.OpNeq, L: v, R: &sparql.ConstExpr{Term: rdf.NewIRI("http://nowhere/0")}},
		}
		c.req.Filters = append(c.req.Filters, local[rng.Intn(len(local))])
		if rng.Intn(3) == 0 {
			c.req.Filters = append(c.req.Filters, &sparql.CompareExpr{Op: sparql.OpGt, L: v, R: &sparql.ConstExpr{Term: rdf.IntLiteral(10)}})
		}
		note("filter")
	}

	schemaVars := slices.Clone(vars)
	rng.Shuffle(len(schemaVars), func(i, j int) { schemaVars[i], schemaVars[j] = schemaVars[j], schemaVars[i] })
	if !relational && rng.Intn(4) == 0 {
		schemaVars = append(schemaVars, "extra")
	}
	c.schema = engine.NewSchema(schemaVars)
	return c
}

// refBGP is the binding-model BGP evaluation the wrapper used before it
// walked in IDs: patterns in sparql.OrderPatterns' order with the
// variables initial binds counted as bound, each level extending every
// solution by its matches in the graph's order. From the single empty
// solution it is sparql.EvalBGP, which the property test checks.
func refBGP(g *rdf.Graph, patterns []sparql.TriplePattern, initial []sparql.Binding) []sparql.Binding {
	bound := map[string]bool{}
	for v := range initial[0] {
		bound[v] = true
	}
	sols := initial
	for _, tp := range sparql.OrderPatterns(g, patterns, bound) {
		var next []sparql.Binding
		for _, b := range sols {
			at := func(n sparql.Node) *rdf.Term {
				if !n.IsVar {
					return &n.Term
				}
				if t, ok := b[n.Var]; ok {
					return &t
				}
				return nil
			}
			for _, tr := range g.Match(at(tp.S), at(tp.P), at(tp.O)) {
				if nb, ok := extendBinding(b, tp, tr); ok {
					next = append(next, nb)
				}
			}
		}
		if sols = next; len(sols) == 0 {
			return nil
		}
	}
	return sols
}

func extendBinding(b sparql.Binding, tp sparql.TriplePattern, tr rdf.Triple) (sparql.Binding, bool) {
	nb := b.Copy()
	for _, p := range []struct {
		n sparql.Node
		t rdf.Term
	}{{tp.S, tr.S}, {tp.P, tr.P}, {tp.O, tr.O}} {
		if !p.n.IsVar {
			continue
		}
		if cur, ok := nb[p.n.Var]; ok && cur != p.t {
			return nil, false
		}
		nb[p.n.Var] = p.t
	}
	return nb, true
}

// refSeedProjections is the binding-model start of a block walk (see
// blockStarts).
func refSeedProjections(seeds []sparql.Binding, vars []string) []sparql.Binding {
	var on []string
	for _, v := range vars {
		if _, ok := seeds[0][v]; ok {
			on = append(on, v)
		}
	}
	var initial []sparql.Binding
	seen := map[string]bool{}
	for _, seed := range seeds {
		proj := seed.Project(on)
		if len(proj) == 0 || len(proj) < len(on) {
			return []sparql.Binding{sparql.NewBinding()}
		}
		if k := proj.Key(on); !seen[k] {
			seen[k] = true
			initial = append(initial, proj)
		}
	}
	return initial
}

// seedStars substitutes a per-answer seed into every star's patterns: the
// per-answer references below answer the request this way, independently
// of the seed set the wrappers evaluate.
func seedStars(req *Request, seed sparql.Binding) []*StarQuery {
	seeded := make([]*StarQuery, len(req.Stars))
	for i, s := range req.Stars {
		seeded[i] = &StarQuery{SubjectVar: s.SubjectVar, Class: s.Class, Patterns: substituteSeed(s.Patterns, seed)}
	}
	return seeded
}

// withSeed merges a per-answer seed into a solution over the substituted
// patterns, which no longer bind the seeded variables.
func withSeed(b, seed sparql.Binding) sparql.Binding {
	if len(seed) == 0 {
		return b
	}
	return seed.Merge(b)
}

// perAnswerSeed returns the seed of a per-answer request (nil for an
// unseeded or block request).
func perAnswerSeed(req *Request, d *dict.Dict) sparql.Binding {
	if req.Block || req.Seeds.Rows == 0 {
		return nil
	}
	return req.Seeds.Bindings(d)[0]
}

// The row-model reference below is what the wrappers computed before
// every answer went through the ID row check: solutions as bindings,
// seed-checked and filtered term by term, interned only at the end. It
// lives here, sharing no code with the row check it is held against.

// refMatchesAnySeed reports whether the solution is compatible with at
// least one seed (always true without seeds).
func refMatchesAnySeed(b sparql.Binding, seeds []sparql.Binding) bool {
	if len(seeds) == 0 {
		return true
	}
	for _, s := range seeds {
		if s.Compatible(b) {
			return true
		}
	}
	return false
}

// refPasses reports whether the solution satisfies every filter.
func refPasses(b sparql.Binding, filters []sparql.Expr) bool {
	for _, f := range filters {
		if !sparql.EvalBool(f, b) {
			return false
		}
	}
	return true
}

// refDecodeRow converts one SQL result row of tl into a solution; ok is
// false when a decoded column is NULL (the property is absent, so the row
// does not match the star).
func refDecodeRow(tl *translation, row rdb.Row) (sparql.Binding, bool) {
	b := sparql.NewBinding()
	for i, v := range tl.varOrder {
		if row[i].Null {
			return nil, false
		}
		b[v] = catalog.ValueTerm(row[i], tl.varCols[v].template)
	}
	for v, term := range tl.constBindings {
		b[v] = term
	}
	return b, true
}

// refQuery runs tl's statement from its SQL text.
func refQuery(t *testing.T, src *catalog.Source, tl *translation) []rdb.Row {
	t.Helper()
	res, err := src.DB.Query(tl.sel.String())
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// refEntry interns solutions into a response entry in schema order, row
// by row: each row starts unbound and each solution fills the positions it
// binds.
func refEntry(sols []sparql.Binding, schema *engine.Schema, d *dict.Dict) *respEntry {
	e := &respEntry{nrows: len(sols), cols: make([][]dict.ID, len(schema.Vars))}
	for c := range e.cols {
		e.cols[c] = make([]dict.ID, len(sols))
	}
	for r, b := range sols {
		for c, v := range schema.Vars {
			if t, ok := b[v]; ok {
				e.cols[c][r] = d.Intern(t)
			}
		}
	}
	return e
}

// refRDFEntry is the RDF wrapper's response built the way it was before
// the ID walk: binding-model solutions, then the seed checks and filters,
// flattened by refEntry. A per-answer request is answered over its
// substituted patterns, a block from its seeds' projections.
func refRDFEntry(g *rdf.Graph, req *Request, schema *engine.Schema, d *dict.Dict) *respEntry {
	patterns := req.Stars[0].Patterns
	var sols []sparql.Binding
	if req.Block {
		seeds := req.Seeds.Bindings(d)
		for _, b := range refBGP(g, patterns, refSeedProjections(seeds, req.Vars())) {
			if refMatchesAnySeed(b, seeds) && refPasses(b, req.Filters) {
				sols = append(sols, b)
			}
		}
	} else {
		seed := perAnswerSeed(req, d)
		for _, b := range sparql.EvalBGP(g, substituteSeed(patterns, seed)) {
			if b = withSeed(b, seed); refPasses(b, req.Filters) {
				sols = append(sols, b)
			}
		}
	}
	return refEntry(sols, schema, d)
}

// refSQLEntry is the SQL wrapper's response built the way it was before
// unpushable filters ran on the decoder: rows decoded into bindings, seed
// checks and filters over them, flattened by refEntry. A per-answer
// request runs its substituted translation, a block its pushed seeds.
func refSQLEntry(t *testing.T, w *SQLWrapper, req *Request, schema *engine.Schema, d *dict.Dict) *respEntry {
	seed, seeds := perAnswerSeed(req, d), req.Seeds.Bindings(d)
	stars := req.Stars
	if seed != nil {
		stars, seeds = seedStars(req, seed), nil
	}
	tl, err := translateRequest(w.src, stars, req.Filters)
	if err != nil {
		t.Fatal(err)
	}
	var sols []sparql.Binding
	if !tl.empty && !tl.pushSeeds(seeds) {
		for _, row := range refQuery(t, w.src, tl) {
			if b, ok := refDecodeRow(tl, row); ok && refMatchesAnySeed(b, seeds) {
				if b = withSeed(b, seed); refPasses(b, tl.localFilters) {
					sols = append(sols, b)
				}
			}
		}
	}
	return refEntry(sols, schema, d)
}

// refNaive is the naive translation in the row model: each star's rows,
// with the seeds pushed down and the filters its variables cover, decoded
// into bindings and re-checked against the seeds, then joined by a nested
// loop and filtered by the rest. kept counts the star rows retrieved — one
// message each.
func refNaive(t *testing.T, src *catalog.Source, req *Request, d *dict.Dict) (sols []sparql.Binding, kept int) {
	var seeds []sparql.Binding
	if req.Seeds.Rows > 0 {
		seeds = req.Seeds.Bindings(d)
	}
	used := make([]bool, len(req.Filters))
	for i, st := range req.Stars {
		var pushed []sparql.Expr
		for fi, f := range req.Filters {
			if !used[fi] && !slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(st.Vars(), v) }) {
				pushed, used[fi] = append(pushed, f), true
			}
		}
		tl, err := translateRequest(src, []*StarQuery{st}, pushed)
		if err != nil {
			t.Fatal(err)
		}
		if tl.empty || tl.pushSeeds(seeds) {
			return nil, kept
		}
		var rows []sparql.Binding
		for _, row := range refQuery(t, src, tl) {
			if b, ok := refDecodeRow(tl, row); ok && refMatchesAnySeed(b, seeds) && refPasses(b, tl.localFilters) {
				rows = append(rows, b)
			}
		}
		kept += len(rows)
		if i == 0 {
			sols = rows
			continue
		}
		var next []sparql.Binding
		for _, l := range sols {
			for _, r := range rows {
				if l.Compatible(r) {
					next = append(next, l.Merge(r))
				}
			}
		}
		sols = next
	}
	var rest []sparql.Expr
	for fi, f := range req.Filters {
		if !used[fi] {
			rest = append(rest, f)
		}
	}
	out := sols[:0:0]
	for _, b := range sols {
		if refPasses(b, rest) {
			out = append(out, b)
		}
	}
	return out, kept
}

// TestWalkEntriesMatchReference is the ID walk's property: on generated
// stars over the RDF view of an LSLOD source, the RDF wrapper's response
// rows are exactly — same rows, same order — those of the binding-model
// reference over sparql.EvalBGP; on the relational source, the SQL
// wrapper's entries with unpushable filters are exactly those of the
// binding-decoding path they replace. The wrappers answer every seeded
// request as a seed set; the references answer a per-answer one
// independently, over its substituted patterns and translation.
func TestWalkEntriesMatchReference(t *testing.T) {
	src, g := walkLake(t)
	d := dict.New()
	view := NewResponseCache().view(viewKey{g: g, d: d})
	sqlw := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	seen := map[string]int{}
	check := func(i int, relational bool, c walkCase, got, want *respEntry) {
		t.Helper()
		if got.nrows != want.nrows || !slices.EqualFunc(got.cols, want.cols, slices.Equal[[]dict.ID]) {
			diff := 0
			for diff < min(got.nrows, want.nrows) && slices.EqualFunc(got.cols, want.cols, func(g, w []dict.ID) bool { return g[diff] == w[diff] }) {
				diff++
			}
			t.Fatalf("case %d (relational=%v, %s):\n%v\nfilters %v, seeds %+v, schema %v\ngot %d rows, want %d; first difference at row %d",
				i, relational, strings.Join(c.what, ", "), c.req.Stars[0].Patterns, c.req.Filters, c.req.Seeds, c.schema.Vars,
				got.nrows, want.nrows, diff)
		}
		if got.nrows > 0 {
			for _, w := range c.what {
				seen[w]++
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		c := genWalkCase(rng, src, g, d, false)
		pats := c.req.Stars[0].Patterns
		ref, oracle := refBGP(g, pats, []sparql.Binding{{}}), sparql.EvalBGP(g, pats)
		if !slices.EqualFunc(ref, oracle, func(a, b sparql.Binding) bool { return a.FullKey() == b.FullKey() }) {
			t.Fatalf("case %d: the reference walk disagrees with sparql.EvalBGP on %v", i, pats)
		}
		check(i, false, c, walkEntry(g, view, c.req, c.schema, d), refRDFEntry(g, c.req, c.schema, d))
	}
	for i := 0; i < 200; i++ {
		c := genWalkCase(rng, src, g, d, true)
		got, err := sqlw.columnarEntry(c.req, c.schema, d)
		if err != nil {
			t.Fatal(err)
		}
		check(i, true, c, got, refSQLEntry(t, sqlw, c.req, c.schema, d))
	}
	// The generator must reach every feature with a non-empty answer.
	for _, w := range []string{"constant subject", "constant object", "variable predicate", "repeated variable",
		"foreign seed variable", "block", "duplicate seed", "all-Unbound seed", "Unbound seed cell",
		"filter on a seeded variable", "filter"} {
		if seen[w] == 0 {
			t.Errorf("no generated case with a non-empty answer drew %q", w)
		}
	}
}

// TestTripleIDViewConcurrentMisses: goroutines run overlapping misses —
// per-answer, block and unseeded, each under its own source ID so none
// replays another's response — over one graph and one response cache.
// Every slot of the shared triple-ID view they filled holds d.Intern of
// its term.
func TestTripleIDViewConcurrentMisses(t *testing.T) {
	_, g := walkLake(t)
	d := dict.New()
	cache := NewResponseCache()
	typ, drug := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(lslod.ClassDrug)
	drugs := g.Subjects(&typ, &drug)
	st := []*StarQuery{{SubjectVar: "s", Class: lslod.ClassDrug, Patterns: []sparql.TriplePattern{
		{S: sparql.VarNode("s"), P: sparql.TermNode(typ), O: sparql.TermNode(drug)},
		{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(lslod.PredGenericName)), O: sparql.VarNode("n")},
		{S: sparql.VarNode("s"), P: sparql.VarNode("p"), O: sparql.VarNode("o")},
	}}}
	schema := engine.NewSchema((&Request{Stars: st}).Vars())
	var wg sync.WaitGroup
	for gi := 0; gi < 4; gi++ {
		w := NewRDFWrapper(fmt.Sprintf("g%d", gi), g, nil, 0)
		w.SetResponseCache(cache)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := func(req *Request) {
				s, err := w.ExecuteColumnar(context.Background(), req, schema, d)
				if err != nil {
					t.Error(err)
					return
				}
				for range s.Batches() {
				}
			}
			run(&Request{Stars: st})
			for i := range drugs {
				s := drugs[(i*(gi+1))%len(drugs)]
				seed := engine.Seeds{Vars: []string{"s"}, IDs: []dict.ID{d.Intern(s)}, Rows: 1}
				run((&Request{Stars: st}).WithSeeds(seed, false))
				if i%8 == 0 {
					seed.IDs = append(seed.IDs, d.Intern(drugs[(i+gi)%len(drugs)]))
					seed.Rows++
					run((&Request{Stars: st}).WithSeeds(seed, true))
				}
			}
		}()
	}
	wg.Wait()
	v := cache.view(viewKey{g: g, d: d})
	triples := g.Triples()
	filled := 0
	for i := range v {
		if id := v.load(i); id != dict.Unbound {
			filled++
			tr := triples[i/3]
			if want := d.Intern([3]rdf.Term{tr.S, tr.P, tr.O}[i%3]); id != want {
				t.Fatalf("slot %d (triple %d position %d) holds %d, want %d", i, i/3, i%3, id, want)
			}
		}
	}
	if filled == 0 {
		t.Fatal("the walks filled no slot of the cache's view")
	}
}

// TestNaiveAndExternalMatchReference holds the two paths that checked
// their rows as bindings before the row check took them over — the naive
// translation and a custom source that ignores its seeds — to the
// row-model reference, as answer multisets: unseeded and seeded, with
// filters the SQL translation cannot push inside a star and across the
// stars. The naive path charges one message per star row it keeps, as
// many as the reference keeps.
func TestNaiveAndExternalMatchReference(t *testing.T) {
	src := testSource(t)
	sqlw := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	g := peopleGraph(t, sqlw)
	person := func(id string) rdf.Term { return rdf.NewIRI("http://e/person/" + id) }
	regex := func(v, pattern string) sparql.Expr {
		return &sparql.FuncExpr{Name: "REGEX", Args: []sparql.Expr{
			&sparql.FuncExpr{Name: "STR", Args: []sparql.Expr{&sparql.VarExpr{Name: v}}},
			&sparql.ConstExpr{Term: rdf.NewLiteral(pattern)}}}
	}
	across := &sparql.CompareExpr{Op: sparql.OpLt, L: &sparql.VarExpr{Name: "a"}, R: &sparql.VarExpr{Name: "fa"}}
	multiset := func(bs []sparql.Binding, vars []string) string {
		keys := make([]string, len(bs))
		for i, b := range bs {
			keys[i] = b.Project(vars).FullKey()
		}
		sort.Strings(keys)
		return strings.Join(keys, "\n")
	}
	cases := []struct {
		name    string
		filters []sparql.Expr
		seeds   []sparql.Binding
	}{
		{"unseeded", nil, nil},
		{"unseeded, local filter", []sparql.Expr{regex("fn", "a")}, nil},
		{"unseeded, filter across the stars", []sparql.Expr{across, regex("n", "a")}, nil},
		{"seeded on the first star", nil, []sparql.Binding{{"p": person("1")}}},
		{"seeded on the join variable, local filter", []sparql.Expr{regex("n", "a")}, []sparql.Binding{{"f": person("3")}}},
		{"seeded on both stars, filter across", []sparql.Expr{across}, []sparql.Binding{{"p": person("1"), "fn": rdf.NewLiteral("alan")}}},
		{"seed matching nothing", nil, []sparql.Binding{{"p": person("1"), "fn": rdf.NewLiteral("nobody")}}},
		{"seed outside the namespace", nil, []sparql.Binding{{"f": rdf.NewIRI("http://other/3")}}},
		{"foreign seed variable", []sparql.Expr{regex("fn", "^[ag]")}, []sparql.Binding{{"z": rdf.NewLiteral("z")}}},
	}
	answered := 0
	for _, c := range cases {
		t.Run("naive/"+c.name, func(t *testing.T) {
			sim := NoDelaySim(1)
			w := NewSQLWrapper(src, sim, TranslationNaive, 0)
			req := &Request{Stars: []*StarQuery{
				star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`),
				star(t, "f", "http://c/Person", `?f <http://p/name> ?fn . ?f <http://p/age> ?fa .`),
			}, Filters: c.filters}
			if c.seeds != nil {
				req.Seeds = seedsOf(c.seeds...)
			}
			want, wantMsgs := refNaive(t, src, req, testDict)
			got := collect(t, w, req)
			if vars := req.Vars(); multiset(got, vars) != multiset(want, vars) {
				t.Fatalf("naive path answered %d rows, the reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
			if n := sim.Messages(); n != wantMsgs {
				t.Fatalf("naive path charged %d messages, the reference keeps %d star rows", n, wantMsgs)
			}
			answered += len(want)
		})
		for _, block := range []bool{false, true} {
			if block && c.seeds == nil {
				continue
			}
			t.Run(fmt.Sprintf("external/%s/block=%v", c.name, block), func(t *testing.T) {
				st := star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`)
				canned := sparql.EvalBGP(g, st.Patterns)
				req := &Request{Stars: []*StarQuery{st}, Block: block}
				for _, f := range c.filters { // those over the star's own variables
					if !slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(st.Vars(), v) }) {
						req.Filters = append(req.Filters, f)
					}
				}
				seeds := c.seeds
				if block { // a second seed widens the set
					seeds = append(slices.Clone(seeds), sparql.Binding{"p": person("4")})
				}
				if seeds != nil {
					req.Seeds = seedsOf(seeds...)
				}
				var want []sparql.Binding
				for _, b := range canned {
					if refMatchesAnySeed(b, seeds) && refPasses(b, req.Filters) {
						want = append(want, b)
					}
				}
				got := collect(t, NewExternalWrapper("x", cannedSource(canned), nil, 0), req)
				if vars := req.Vars(); multiset(got, vars) != multiset(want, vars) {
					t.Fatalf("external wrapper answered %d rows, the reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
				}
				answered += len(want)
			})
		}
	}
	if answered == 0 {
		t.Fatal("no case answered a row")
	}
}
