package wrapper

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// pushSeeds ANDs the reference seed predicate (seedPredicate) into the
// WHERE clause and reports whether the seeds prove the result empty.
func (t *translation) pushSeeds(seeds []sparql.Binding) (provablyEmpty bool) {
	cond, provablyEmpty := t.seedPredicate(seeds)
	switch {
	case cond == nil:
	case t.sel.Where == nil:
		t.sel.Where = cond
	default:
		t.sel.Where = &sql.And{L: t.sel.Where, R: cond}
	}
	return provablyEmpty
}

// seedPredicate is the reference seed predicate, built from row-model
// bindings: per seed, the translatable variables it binds in sorted order,
// one equality each; a seed with an unconvertible value contributes no
// disjunct; the disjuncts collapse into one IN list when each is a single
// equality on the same column (inShape). seedCond must build the same
// statement from the seed IDs.
func (t *translation) seedPredicate(seeds []sparql.Binding) (cond sql.BoolExpr, provablyEmpty bool) {
	if len(seeds) == 0 {
		return nil, false
	}
	var disjuncts []sql.BoolExpr
	for _, seed := range seeds {
		vars := make([]string, 0, len(seed))
		for v := range seed {
			if _, ok := t.varCols[v]; ok {
				vars = append(vars, v)
			}
		}
		sort.Strings(vars)
		if len(vars) == 0 {
			return nil, false
		}
		var conj []sql.BoolExpr
		unsat := false
		for _, v := range vars {
			info := t.varCols[v]
			lit, ok := refSeedLiteral(info, seed[v])
			if !ok {
				unsat = true
				break
			}
			conj = append(conj, &sql.Comparison{
				Op: sql.CmpEq, L: sql.ColOperand(info.ref), R: sql.LitOperand(lit),
			})
		}
		if unsat {
			continue
		}
		disjuncts = append(disjuncts, sql.AndAll(conj))
	}
	if len(disjuncts) == 0 {
		return nil, true
	}
	if col, lits, ok := inShape(disjuncts); ok {
		return &sql.In{Col: col, List: lits}, false
	}
	return orAll(disjuncts), false
}

// refSeedLiteral is the reference conversion of a seed value into the SQL
// literal of the stored value it stands for, written apart from the
// translation's: the text (the IRI's key, or the literal's lexical form)
// is coerced the way a SQL engine coerces a string to the column type, and
// kept only when the column's own reading of the coerced value gives back
// the seed term exactly. A non-finite double has no SQL equality.
func refSeedLiteral(info colInfo, term rdf.Term) (sql.Literal, bool) {
	text := term.Value
	if info.template != "" {
		prefix, suffix, found := strings.Cut(info.template, "{value}")
		if !found || !term.IsIRI() || len(text) < len(prefix)+len(suffix) ||
			!strings.HasPrefix(text, prefix) || !strings.HasSuffix(text, suffix) {
			return sql.Literal{}, false
		}
		text = text[len(prefix) : len(text)-len(suffix)]
	}
	v, err := rdb.FromLiteral(sql.Literal{Kind: sql.LitString, Str: text}, info.typ)
	if err != nil {
		return sql.Literal{}, false
	}
	var back rdf.Term
	var lit sql.Literal
	switch v.Type {
	case rdb.TypeInt:
		back, lit = rdf.IntLiteral(v.Int), sql.Literal{Kind: sql.LitInt, Int: v.Int}
	case rdb.TypeFloat:
		if math.IsNaN(v.Float) || math.IsInf(v.Float, 0) {
			return sql.Literal{}, false
		}
		back, lit = rdf.FloatLiteral(v.Float), sql.Literal{Kind: sql.LitFloat, Float: v.Float}
	case rdb.TypeBool:
		back, lit = rdf.BoolLiteral(v.Bool), sql.Literal{Kind: sql.LitBool, Bool: v.Bool}
	default:
		back, lit = rdf.NewLiteral(v.Str), sql.Literal{Kind: sql.LitString, Str: v.Str}
	}
	if info.template != "" {
		back = rdf.NewIRI(strings.Replace(info.template, "{value}", v.String(), 1))
	}
	return lit, back == term
}

// inShape reports whether every disjunct is a single equality on the same
// column, collapsing the disjunction into one IN list.
func inShape(disjuncts []sql.BoolExpr) (sql.ColumnRef, []sql.Literal, bool) {
	var col sql.ColumnRef
	lits := make([]sql.Literal, 0, len(disjuncts))
	for i, d := range disjuncts {
		cmp, ok := d.(*sql.Comparison)
		if !ok || cmp.Op != sql.CmpEq || !cmp.L.IsCol || cmp.R.IsCol {
			return sql.ColumnRef{}, nil, false
		}
		if i == 0 {
			col = cmp.L.Col
		} else if cmp.L.Col != col {
			return sql.ColumnRef{}, nil, false
		}
		lits = append(lits, cmp.R.Lit)
	}
	return col, lits, true
}

// seedTermPools are the values a generated seed binds, per variable: keys
// inside and outside the IRI templates, lexical forms a typed column
// coerces lossily ("030", "1.50", "1", a language tag), and values of the
// wrong kind or type that no row can equal. Variables without a pool (the
// untranslatable ?x) draw from all of them.
var seedTermPools = map[string][]rdf.Term{
	"p": {
		rdf.NewIRI("http://e/person/1"), rdf.NewIRI("http://e/person/3"), rdf.NewIRI("http://e/person/5"),
		rdf.NewIRI("http://e/person/07"), rdf.NewIRI("http://e/person/x"), rdf.NewIRI("http://other/2"),
		rdf.NewLiteral("2"),
	},
	"n": {
		rdf.NewLiteral("ada"), rdf.NewLiteral("alan"), rdf.NewLiteral("o'neil"), rdf.NewLangLiteral("grace", "en"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewIRI("http://e/person/1"),
	},
	"a": {
		rdf.IntLiteral(30), rdf.IntLiteral(50), rdf.NewTypedLiteral("030", rdf.XSDInteger), rdf.NewLiteral("40"),
		rdf.NewTypedLiteral("3.5", rdf.XSDDecimal), rdf.NewLiteral("abc"), rdf.NewIRI("http://e/age/30"),
	},
	"m": {
		rdf.NewIRI("http://e/m/1"), rdf.NewIRI("http://e/m/2"), rdf.NewIRI("http://e/m/01"), rdf.NewIRI("http://e/person/1"),
	},
	"l": {rdf.NewLiteral("alpha"), rdf.NewLiteral("beta"), rdf.NewLangLiteral("gamma", "el")},
	"v": {
		rdf.NewTypedLiteral("1.5", rdf.XSDDecimal), rdf.NewTypedLiteral("2.50", rdf.XSDDecimal), rdf.NewLiteral("3.5"),
		rdf.NewLiteral("x"),
	},
	"ok": {
		rdf.BoolLiteral(true), rdf.BoolLiteral(false), rdf.NewTypedLiteral("1", rdf.XSDBoolean), rdf.NewLiteral("yes"),
	},
}

func init() {
	seedTermPools["f"] = seedTermPools["p"]
	seedTermPools["b"] = seedTermPools["a"]
}

// randomSeedTerm draws a value for a seed variable, mostly from its own
// pool.
func randomSeedTerm(rng *rand.Rand, v string) rdf.Term {
	pool := seedTermPools[v]
	if pool == nil || rng.Intn(5) == 0 {
		keys := make([]string, 0, len(seedTermPools))
		for k := range seedTermPools {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pool = seedTermPools[keys[rng.Intn(len(keys))]]
	}
	return pool[rng.Intn(len(pool))]
}

// seedCondLeaves are the leaves the seed-condition tests translate: a
// side-table join and nullable columns, two variables stored in one
// column, a star whose statement has no WHERE clause, a pushed filter, and
// the float and boolean columns of the typed source.
func seedCondLeaves(t *testing.T) []sqlCase {
	people, typed := testSource(t), typedSource(t)
	gt := &sparql.CompareExpr{Op: sparql.OpGt, L: &sparql.VarExpr{Name: "a"}, R: &sparql.ConstExpr{Term: rdf.IntLiteral(25)}}
	return []sqlCase{
		{people, &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`)}}},
		{people, &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/age> ?a . ?p <http://p/age> ?b .`)}}},
		{people, &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p a <http://c/Person> .`)}}},
		{people, &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/age> ?a .`)}, Filters: []sparql.Expr{gt}}},
		{typed, &Request{Stars: []*StarQuery{star(t, "m", "http://c/M", `?m <http://p/label> ?l . ?m <http://p/value> ?v . ?m <http://p/valid> ?ok .`)}}},
	}
}

// randomLeafSeeds draws a seed set over a random ordering of some of the
// leaf's variables and the untranslatable ?x: zero to six seeds, a fifth
// of the cells Unbound.
func randomLeafSeeds(rng *rand.Rand, req *Request, d *dict.Dict) engine.Seeds {
	all := append(req.Vars(), "x")
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	s := engine.Seeds{Vars: all[:1+rng.Intn(min(3, len(all)))], Rows: rng.Intn(7)}
	for i := 0; i < s.Rows*len(s.Vars); i++ {
		id := dict.Unbound
		if rng.Intn(5) != 0 {
			id = d.Intern(randomSeedTerm(rng, s.Vars[i%len(s.Vars)]))
		}
		s.IDs = append(s.IDs, id)
	}
	return s
}

// TestSeedCondMatchesBindingReference is the ID builder's property: on
// random seed sets — Unbound cells, IRIs outside the template (provably
// empty), several variables per seed (the OR form), lossy typed literals —
// a seeded request's statement, built from the seed IDs over its leaf's
// shared translation, renders byte for byte as the statement the
// binding-model builder makes over a fresh translation. The leaf's base
// statement never changes.
func TestSeedCondMatchesBindingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dict.New()
	forms := map[string]int{}
	for _, leaf := range seedCondLeaves(t) {
		base, _, err := leaf.req.translated(leaf.src)
		if err != nil {
			t.Fatal(err)
		}
		baseSQL := base.sel.String()
		for i := 0; i < 400; i++ {
			seeds := randomLeafSeeds(rng, leaf.req, d)
			ref, err := translateRequest(leaf.src, leaf.req.Stars, leaf.req.Filters)
			if err != nil {
				t.Fatal(err)
			}
			var want string
			if !ref.pushSeeds(seeds.Bindings(d)) {
				want = ref.sel.String()
			}
			var got string
			if tl, err := leaf.req.WithSeeds(seeds, true).translate(leaf.src, d); err != nil {
				t.Fatal(err)
			} else if tl != nil {
				got = tl.sel.String()
			}
			if got != want {
				t.Fatalf("seeds %v %v:\n got %q\nwant %q", seeds.Vars, seeds.Bindings(d), got, want)
			}
			if base.sel.String() != baseSQL {
				t.Fatalf("seeding changed the leaf's base statement to %s", base.sel.String())
			}
			switch cond, empty := ref.seedPredicate(seeds.Bindings(d)); {
			case empty:
				forms["empty"]++
			case cond == nil:
				forms["unrestricted"]++
			default:
				forms[fmt.Sprintf("%T", cond)]++
			}
		}
	}
	for _, f := range []string{"empty", "unrestricted", "*sql.In", "*sql.Or", "*sql.And"} {
		if forms[f] == 0 {
			t.Errorf("no generated seed set took the %s form (forms: %v)", f, forms)
		}
	}
}

// TestLeafTranslatedOnce: the requests of one plan leaf — unseeded, per
// answer, blocks, seeded on other variables, and the LastSQL of a replay —
// share one translation of its stars: every statement a seeded miss runs
// is a copy of the leaf's base statement, sharing its projection.
func TestLeafTranslatedOnce(t *testing.T) {
	src := testSource(t)
	cache := NewResponseCache()
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	w.SetResponseCache(cache)
	leaf := &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/friend> ?f .`)}}
	person := func(i int) sparql.Binding {
		return sparql.Binding{"p": rdf.NewIRI(fmt.Sprintf("http://e/person/%d", i))}
	}
	reqs := []*Request{
		leaf,
		leaf.WithSeeds(seedsOf(person(1)), false),
		leaf.WithSeeds(seedsOf(person(2)), false),
		leaf.WithSeeds(seedsOf(person(1), person(4)), true),
		leaf.WithSeeds(seedsOf(sparql.Binding{"f": rdf.NewIRI("http://e/person/3")}), true),
		leaf.WithSeeds(seedsOf(person(1), person(4)), true), // a response-cache hit
	}
	var stmts [][]string
	for _, req := range reqs {
		collect(t, w, req)
		stmts = append(stmts, w.LastSQL())
	}
	if !slices.Equal(stmts[3], stmts[5]) {
		t.Errorf("a replay's LastSQL %v differs from its miss's %v", stmts[5], stmts[3])
	}
	m := leaf.memo()
	if len(m.bySrc) != 1 {
		t.Fatalf("the leaf holds %d translations, want 1", len(m.bySrc))
	}
	base := m.bySrc[src].tl
	for i, req := range reqs {
		if req.memo() != m {
			t.Fatalf("request %d does not share the leaf's memo", i)
		}
		tl, err := req.translate(src, testDict)
		if err != nil || tl == nil {
			t.Fatalf("request %d: translation %v, %v", i, tl, err)
		}
		if &tl.sel.Columns[0] != &base.sel.Columns[0] {
			t.Errorf("request %d translated the leaf's stars again", i)
		}
	}
	if base.sel.String() != stmts[0][0] {
		t.Errorf("the base statement became %s, was %s", base.sel.String(), stmts[0][0])
	}
}

// TestSeededMissesConcurrentOnOneLeaf races the seeded misses of one fresh
// leaf, as a bind join's concurrent emitters issue them: the first
// translation, the seed slot and every seeded statement are shared across
// goroutines, and each response must equal that of the same request on a
// leaf of its own. Run under -race.
func TestSeededMissesConcurrentOnOneLeaf(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`)}
	schema := engine.NewSchema((&Request{Stars: stars}).Vars())
	var seeds []engine.Seeds
	for i := 1; i <= 6; i++ {
		p := func(k int) sparql.Binding {
			return sparql.Binding{"p": rdf.NewIRI(fmt.Sprintf("http://e/person/%d", k))}
		}
		seeds = append(seeds, seedsOf(p(i)), seedsOf(p(i), p(7-i), sparql.Binding{"p": rdf.NewIRI("http://other/1")}))
	}
	want := make([]*respEntry, len(seeds))
	for i, s := range seeds {
		want[i] = entryFor(t, w, (&Request{Stars: stars}).WithSeeds(s, s.Rows > 1), schema, testDict)
	}
	for round := 0; round < 4; round++ {
		leaf := &Request{Stars: stars}
		got := make([]*respEntry, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		for i, s := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = w.columnarEntry(leaf.WithSeeds(s, s.Rows > 1), schema, testDict)
			}()
		}
		wg.Wait()
		for i := range seeds {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameEntry(t, fmt.Sprintf("round %d seeds %d", round, i), got[i], want[i])
		}
	}
}
