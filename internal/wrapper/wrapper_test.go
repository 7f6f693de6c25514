package wrapper

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// testSource builds a small relational source: person(id, name, age) with
// a side table person_friend(id, person_id, friend_id).
func testSource(t *testing.T) *catalog.Source {
	t.Helper()
	db := rdb.NewDatabase("people")
	person, err := db.CreateTable(&rdb.Schema{
		Name: "person",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "name", Type: rdb.TypeString},
			{Name: "age", Type: rdb.TypeInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	friend, err := db.CreateTable(&rdb.Schema{
		Name: "person_friend",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "person_id", Type: rdb.TypeInt},
			{Name: "friend_id", Type: rdb.TypeInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ada", "grace", "alan", "edsger", "barbara"}
	for i, n := range names {
		if err := person.Insert(rdb.Row{rdb.IntValue(int64(i + 1)), rdb.StringValue(n), rdb.IntValue(int64(20 + 10*i))}); err != nil {
			t.Fatal(err)
		}
	}
	links := [][2]int64{{1, 2}, {1, 3}, {2, 3}, {4, 5}}
	for i, l := range links {
		if err := friend.Insert(rdb.Row{rdb.IntValue(int64(i + 1)), rdb.IntValue(l[0]), rdb.IntValue(l[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := person.CreateIndex(rdb.IndexSpec{Column: "name", Kind: rdb.IndexHash}); err != nil {
		t.Fatal(err)
	}
	if err := friend.CreateIndex(rdb.IndexSpec{Column: "person_id", Kind: rdb.IndexHash}); err != nil {
		t.Fatal(err)
	}
	return &catalog.Source{
		ID:    "people",
		Model: catalog.ModelRelational,
		DB:    db,
		Mappings: map[string]*catalog.ClassMapping{
			"http://c/Person": {
				Class: "http://c/Person", Table: "person",
				SubjectColumn: "id", SubjectTemplate: "http://e/person/{value}",
				Properties: map[string]*catalog.PropertyMapping{
					"http://p/name": {Predicate: "http://p/name", Column: "name"},
					"http://p/age":  {Predicate: "http://p/age", Column: "age"},
					"http://p/friend": {
						Predicate: "http://p/friend", JoinTable: "person_friend",
						JoinFK: "person_id", ValueColumn: "friend_id",
						ObjectTemplate: "http://e/person/{value}", ObjectClass: "http://c/Person",
					},
				},
			},
		},
	}
}

func star(t *testing.T, subjectVar, class, patterns string) *StarQuery {
	t.Helper()
	q, err := sparql.Parse("SELECT * WHERE { " + patterns + " }")
	if err != nil {
		t.Fatal(err)
	}
	return &StarQuery{SubjectVar: subjectVar, Class: class, Patterns: q.Patterns}
}

// testDict is the dictionary every test request interns into — one per
// package run, like the lake-lifetime dictionary of an engine, so response
// cache entries stay valid across requests.
var testDict = dict.New()

// seedsOf encodes row-model seeds the way the bind joins hand them to a
// wrapper: ID rows over the sorted union of their variables, interned into
// testDict, Unbound where a seed omits a variable.
func seedsOf(bs ...sparql.Binding) engine.Seeds {
	var vars []string
	for _, b := range bs {
		for v := range b {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	sort.Strings(vars)
	s := engine.Seeds{Vars: vars, IDs: make([]dict.ID, 0, len(bs)*len(vars)), Rows: len(bs)}
	for _, b := range bs {
		for _, v := range vars {
			id := dict.Unbound
			if t, ok := b[v]; ok {
				id = testDict.Intern(t)
			}
			s.IDs = append(s.IDs, id)
		}
	}
	return s
}

// execute issues req on w over the request's own variables.
func execute(ctx context.Context, w Wrapper, req *Request) (*engine.CStream, error) {
	return w.ExecuteColumnar(ctx, req, engine.NewSchema(req.Vars()), testDict)
}

// drain materializes a response stream back into bindings.
func drain(t *testing.T, s *engine.CStream) []sparql.Binding {
	t.Helper()
	var out []sparql.Binding
	for batch := range s.Batches() {
		out = append(out, engine.DecodeBatch(batch, testDict)...)
	}
	return out
}

// collect is how the wrapper tests read results: issue the request, fail
// the test on a setup error, decode every answer.
func collect(t *testing.T, w Wrapper, req *Request) []sparql.Binding {
	t.Helper()
	s, err := execute(context.Background(), w, req)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, s)
}

func TestSQLWrapperSingleStar(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a .`),
	}}
	got := collect(t, w, req)
	if len(got) != 5 {
		t.Fatalf("got %d bindings, want 5", len(got))
	}
	for _, b := range got {
		if !b["p"].IsIRI() || !strings.HasPrefix(b["p"].Value, "http://e/person/") {
			t.Fatalf("subject not an IRI: %v", b)
		}
		if b["n"].Kind != rdf.TermLiteral {
			t.Fatalf("name not a literal: %v", b)
		}
		if b["a"].Datatype != rdf.XSDInteger {
			t.Fatalf("age not an integer literal: %v", b)
		}
	}
	if sqls := w.LastSQL(); len(sqls) != 1 || !strings.Contains(sqls[0], "FROM person") {
		t.Errorf("LastSQL = %v", sqls)
	}
}

func TestSQLWrapperTypePattern(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person",
			`?p <`+rdf.RDFType+`> <http://c/Person> . ?p <http://p/name> ?n . ?p <`+rdf.RDFType+`> ?t .`),
	}}
	got := collect(t, w, req)
	if len(got) != 5 {
		t.Fatalf("got %d, want 5", len(got))
	}
	if got[0]["t"].Value != "http://c/Person" {
		t.Fatalf("?t not bound to the class: %v", got[0])
	}
	// Wrong class constant: provably empty.
	req = &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <`+rdf.RDFType+`> <http://c/Other> . ?p <http://p/name> ?n .`),
	}}
	if got := collect(t, w, req); len(got) != 0 {
		t.Fatalf("wrong class returned %d bindings", len(got))
	}
}

func TestSQLWrapperConstantSubjectAndObject(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	// Constant subject.
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `<http://e/person/2> <http://p/name> ?n .`),
	}}
	got := collect(t, w, req)
	if len(got) != 1 || got[0]["n"].Value != "grace" {
		t.Fatalf("constant subject: %v", got)
	}
	// Constant literal object.
	req = &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> "alan" .`),
	}}
	got = collect(t, w, req)
	if len(got) != 1 || got[0]["p"].Value != "http://e/person/3" {
		t.Fatalf("constant object: %v", got)
	}
	// Constant IRI object through a side table.
	req = &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/friend> <http://e/person/3> .`),
	}}
	got = collect(t, w, req)
	if len(got) != 2 {
		t.Fatalf("friend-of-3: got %d, want 2 (%v)", len(got), got)
	}
	// Subject IRI outside the namespace: empty.
	req = &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `<http://elsewhere/9> <http://p/name> ?n .`),
	}}
	if got := collect(t, w, req); len(got) != 0 {
		t.Fatalf("foreign subject matched: %v", got)
	}
}

func TestSQLWrapperSideTable(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/friend> ?f .`),
	}}
	got := collect(t, w, req)
	if len(got) != 4 {
		t.Fatalf("got %d friendship rows, want 4", len(got))
	}
	sqls := w.LastSQL()
	if len(sqls) != 1 || !strings.Contains(sqls[0], "JOIN person_friend") {
		t.Errorf("expected a JOIN in %v", sqls)
	}
}

func TestSQLWrapperFilterPushdown(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/age> ?a . FILTER (?a >= 40) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 3 {
		t.Fatalf("got %d, want 3 (ages 40,50,60)", len(got))
	}
	if !strings.Contains(w.LastSQL()[0], "age >= 40") {
		t.Errorf("filter not pushed into SQL: %v", w.LastSQL())
	}
}

func TestSQLWrapperContainsBecomesLike(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/name> ?n . FILTER (CONTAINS(?n, "ra")) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	names := map[string]bool{}
	for _, b := range got {
		names[b["n"].Value] = true
	}
	if len(got) != 2 || !names["grace"] || !names["barbara"] {
		t.Fatalf("CONTAINS results: %v", got)
	}
	if !strings.Contains(w.LastSQL()[0], "LIKE '%ra%'") {
		t.Errorf("CONTAINS not translated to LIKE: %v", w.LastSQL())
	}
}

func TestSQLWrapperUntranslatableFilterRunsLocally(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	// REGEX is not translatable; it must still be applied (locally).
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/name> ?n . FILTER (REGEX(?n, "^a")) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 2 { // ada, alan
		t.Fatalf("got %d, want 2: %v", len(got), got)
	}
	if strings.Contains(w.LastSQL()[0], "LIKE") {
		t.Errorf("REGEX was wrongly pushed: %v", w.LastSQL())
	}
}

func TestSQLWrapperMergedStarsOptimizedVsNaive(t *testing.T) {
	src := testSource(t)
	stars := []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/friend> ?f .`),
		star(t, "f", "http://c/Person", `?f <http://p/name> ?fn . ?f <http://p/age> ?fa .`),
	}
	opt := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	naive := NewSQLWrapper(src, nil, TranslationNaive, 0)
	gotOpt := collect(t, opt, &Request{Stars: stars})
	gotNaive := collect(t, naive, &Request{Stars: stars})
	if len(gotOpt) != 4 || len(gotNaive) != 4 {
		t.Fatalf("optimized %d, naive %d; want 4 each", len(gotOpt), len(gotNaive))
	}
	key := func(bs []sparql.Binding) []string {
		out := make([]string, len(bs))
		for i, x := range bs {
			out[i] = x.FullKey()
		}
		sort.Strings(out)
		return out
	}
	ko, kn := key(gotOpt), key(gotNaive)
	for i := range ko {
		if ko[i] != kn[i] {
			t.Fatalf("optimized and naive results differ:\n%v\n%v", gotOpt, gotNaive)
		}
	}
	if len(opt.LastSQL()) != 1 {
		t.Errorf("optimized issued %d statements, want 1", len(opt.LastSQL()))
	}
	if len(naive.LastSQL()) != 2 {
		t.Errorf("naive issued %d statements, want 2", len(naive.LastSQL()))
	}
}

func TestSQLWrapperSeed(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{
		Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)},
		Seeds: seedsOf(sparql.Binding{"p": rdf.NewIRI("http://e/person/4")}),
	}
	got := collect(t, w, req)
	if len(got) != 1 || got[0]["n"].Value != "edsger" {
		t.Fatalf("seeded request: %v", got)
	}
	if got[0]["p"].Value != "http://e/person/4" {
		t.Fatalf("seed variable not re-merged: %v", got[0])
	}
}

func TestSQLWrapperVariablePredicateRejected(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p ?any ?o .`),
	}}
	if _, err := execute(context.Background(), w, req); err == nil {
		t.Fatal("variable predicate accepted at a relational source")
	}
}

func TestSQLWrapperUnknownPredicateEmpty(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/unknown> ?x .`),
	}}
	if got := collect(t, w, req); len(got) != 0 {
		t.Fatalf("unknown predicate matched: %v", got)
	}
}

func TestRDFWrapper(t *testing.T) {
	g := rdf.NewGraph()
	name := rdf.NewIRI("http://p/name")
	for i, n := range []string{"ada", "grace"} {
		g.Add(rdf.Triple{S: rdf.NewIRI("http://e/person/" + string(rune('1'+i))), P: name, O: rdf.NewLiteral(n)})
	}
	sim := netsim.NewSimulator(netsim.NoDelay, 0, 1)
	w := NewRDFWrapper("g", g, sim, 0)
	if w.SourceID() != "g" {
		t.Error("SourceID wrong")
	}
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/name> ?n . FILTER (CONTAINS(?n, "a")) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 2 {
		t.Fatalf("RDF wrapper: %v", got)
	}
	if sim.Messages() != 2 {
		t.Errorf("messages = %d, want 2", sim.Messages())
	}
	// Seeded execution.
	got = collect(t, w, req.WithSeeds(seedsOf(sparql.Binding{"n": rdf.NewLiteral("ada")}), false))
	if len(got) != 1 {
		t.Fatalf("seeded RDF wrapper: %v", got)
	}
}

func TestNullColumnsDropRows(t *testing.T) {
	src := testSource(t)
	// Add a person with NULL age: the star requiring age must not match.
	person := src.DB.Table("person")
	if err := person.Insert(rdb.Row{rdb.IntValue(99), rdb.StringValue("ghost"), rdb.NullValue(rdb.TypeInt)}); err != nil {
		t.Fatal(err)
	}
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a .`),
	}}
	got := collect(t, w, req)
	if len(got) != 5 {
		t.Fatalf("NULL age row leaked: %d bindings (want 5)", len(got))
	}
	// Without the age pattern the ghost appears.
	req = &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`),
	}}
	if got := collect(t, w, req); len(got) != 6 {
		t.Fatalf("got %d names, want 6", len(got))
	}
}
