package wrapper

import (
	"sort"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

func personSeed(id string) sparql.Binding {
	return sparql.Binding{"p": rdf.NewIRI("http://e/person/" + id)}
}

// TestSQLWrapperMultiSeedIN: a block of subject seeds becomes ONE SQL
// query whose WHERE carries an IN predicate over the subject column, and
// the answers are exactly the union of the per-seed sequential results.
func TestSQLWrapperMultiSeedIN(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}

	var want []sparql.Binding
	for _, id := range []string{"1", "3", "5"} {
		want = append(want, collect(t, w, &Request{Stars: stars, Seeds: seedsOf(personSeed(id))})...)
	}

	got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(
		personSeed("1"), personSeed("3"), personSeed("5"),
	)})
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("got %d block answers, %d sequential answers, want 3", len(got), len(want))
	}
	gotKeys := map[string]bool{}
	for _, b := range got {
		gotKeys[b.FullKey()] = true
	}
	for _, b := range want {
		if !gotKeys[b.FullKey()] {
			t.Errorf("sequential answer %s missing from block result", b)
		}
	}

	sqls := w.LastSQL()
	if len(sqls) != 1 {
		t.Fatalf("block request issued %d SQL queries, want 1: %v", len(sqls), sqls)
	}
	if !strings.Contains(sqls[0], "IN (1, 3, 5)") {
		t.Errorf("expected IN seed predicate, got: %s", sqls[0])
	}
}

// TestSQLWrapperMultiSeedOR: seeds constraining two variables become an
// OR-of-conjunctions predicate in a single query.
func TestSQLWrapperMultiSeedOR(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a .`)}
	seeds := []sparql.Binding{
		{"n": rdf.NewLiteral("ada"), "a": rdf.IntLiteral(20)},
		{"n": rdf.NewLiteral("alan"), "a": rdf.IntLiteral(40)},
	}
	got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(seeds...)})
	if len(got) != 2 {
		t.Fatalf("got %d answers, want 2: %v", len(got), got)
	}
	sqls := w.LastSQL()
	if len(sqls) != 1 {
		t.Fatalf("block request issued %d SQL queries, want 1: %v", len(sqls), sqls)
	}
	if !strings.Contains(sqls[0], " OR ") || !strings.Contains(sqls[0], "AND") {
		t.Errorf("expected OR-of-AND seed predicate, got: %s", sqls[0])
	}
}

// typedSource backs one class with a column of every storage type.
func typedSource(t *testing.T) *catalog.Source {
	t.Helper()
	db := rdb.NewDatabase("typed")
	m, err := db.CreateTable(&rdb.Schema{
		Name: "measurement",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "label", Type: rdb.TypeString, NotNull: true},
			{Name: "value", Type: rdb.TypeFloat, NotNull: true},
			{Name: "valid", Type: rdb.TypeBool, NotNull: true},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []rdb.Row{
		{rdb.IntValue(1), rdb.StringValue("alpha"), rdb.FloatValue(1.5), rdb.BoolValue(true)},
		{rdb.IntValue(2), rdb.StringValue("beta"), rdb.FloatValue(2.5), rdb.BoolValue(false)},
		{rdb.IntValue(3), rdb.StringValue("gamma"), rdb.FloatValue(3.5), rdb.BoolValue(true)},
	}
	for _, r := range rows {
		if err := m.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return &catalog.Source{
		ID:    "typed",
		Model: catalog.ModelRelational,
		DB:    db,
		Mappings: map[string]*catalog.ClassMapping{
			"http://c/M": {
				Class: "http://c/M", Table: "measurement",
				SubjectColumn: "id", SubjectTemplate: "http://e/m/{value}",
				Properties: map[string]*catalog.PropertyMapping{
					"http://p/label": {Predicate: "http://p/label", Column: "label"},
					"http://p/value": {Predicate: "http://p/value", Column: "value"},
					"http://p/valid": {Predicate: "http://p/valid", Column: "valid"},
				},
			},
		},
	}
}

// TestSQLWrapperMultiSeedTypeRoundTrip pushes a seed block down on each
// column type in turn and checks the decoded rows hand the exact seed
// terms back — the value-to-term round trip of the multi-seed path.
func TestSQLWrapperMultiSeedTypeRoundTrip(t *testing.T) {
	src := typedSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "m", "http://c/M",
		`?m <http://p/label> ?l . ?m <http://p/value> ?v . ?m <http://p/valid> ?ok .`)}

	cases := []struct {
		name string
		v    string // seeded variable
		seed []sparql.Binding
		rows int
	}{
		{"iri-subject(int column)", "m", []sparql.Binding{
			{"m": rdf.NewIRI("http://e/m/1")}, {"m": rdf.NewIRI("http://e/m/3")},
		}, 2},
		{"string", "l", []sparql.Binding{
			{"l": rdf.NewLiteral("alpha")}, {"l": rdf.NewLiteral("beta")},
		}, 2},
		{"float", "v", []sparql.Binding{
			{"v": rdf.FloatLiteral(2.5)}, {"v": rdf.FloatLiteral(3.5)},
		}, 2},
		{"bool", "ok", []sparql.Binding{
			{"ok": rdf.BoolLiteral(false)},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(tc.seed...)})
			if len(got) != tc.rows {
				t.Fatalf("got %d rows, want %d: %v", len(got), tc.rows, got)
			}
			for _, b := range got {
				found := false
				for _, s := range tc.seed {
					if b[tc.v] == s[tc.v] {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("decoded value %s for ?%s does not round-trip any seed term", b[tc.v], tc.v)
				}
			}
			sqls := w.LastSQL()
			if len(sqls) != 1 {
				t.Fatalf("issued %d SQL queries, want 1: %v", len(sqls), sqls)
			}
			if !strings.Contains(sqls[0], "IN (") && !strings.Contains(sqls[0], " = ") {
				t.Errorf("no seed predicate in: %s", sqls[0])
			}
		})
	}
}

// TestSQLWrapperMultiSeedUnsatisfiableSeeds: seeds outside the subject
// template's namespace cannot match; an all-unsatisfiable block returns
// empty without querying, a mixed block keeps only the valid disjunct.
func TestSQLWrapperMultiSeedUnsatisfiableSeeds(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}

	got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(
		sparql.Binding{"p": rdf.NewIRI("http://other/42")},
	)})
	if len(got) != 0 {
		t.Fatalf("unsatisfiable block returned %d answers", len(got))
	}
	if sqls := w.LastSQL(); len(sqls) != 0 {
		t.Errorf("unsatisfiable block still queried the source: %v", sqls)
	}

	got = collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(
		sparql.Binding{"p": rdf.NewIRI("http://other/42")}, personSeed("2"),
	)})
	if len(got) != 1 || got[0]["n"].Value != "grace" {
		t.Fatalf("mixed block: got %v, want person 2 only", got)
	}
}

// TestSQLWrapperMultiSeedSingleMessage: however many rows a block answers,
// it crosses the simulated network as one message.
func TestSQLWrapperMultiSeedSingleMessage(t *testing.T) {
	src := testSource(t)
	sim := netsim.NewSimulator(netsim.NoDelay, 0, 1)
	w := NewSQLWrapper(src, sim, TranslationOptimized, 0)
	stars := []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}
	got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(
		personSeed("1"), personSeed("2"), personSeed("3"), personSeed("4"),
	)})
	if len(got) != 4 {
		t.Fatalf("got %d answers, want 4", len(got))
	}
	if sim.Messages() != 1 {
		t.Errorf("block answered in %d messages, want 1", sim.Messages())
	}
}

// TestRDFWrapperMultiSeedBlock: the RDF wrapper answers a block in one
// pass — and one message — returning exactly the union of the seeds'
// results.
func TestRDFWrapperMultiSeedBlock(t *testing.T) {
	g := rdf.NewGraph()
	for _, s := range []string{"a", "b", "c", "d"} {
		subj := rdf.NewIRI("http://e/thing/" + s)
		g.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://c/Thing")})
		g.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://p/tag"), O: rdf.NewLiteral("tag-" + s)})
	}
	sim := netsim.NewSimulator(netsim.NoDelay, 0, 1)
	w := NewRDFWrapper("things", g, sim, 0)
	stars := []*StarQuery{star(t, "s", "http://c/Thing", `?s <http://p/tag> ?tag .`)}
	seeds := []sparql.Binding{
		{"s": rdf.NewIRI("http://e/thing/a")},
		{"s": rdf.NewIRI("http://e/thing/c")},
	}
	got := collect(t, w, &Request{Stars: stars, Block: true, Seeds: seedsOf(seeds...)})
	if len(got) != 2 {
		t.Fatalf("got %d answers, want 2: %v", len(got), got)
	}
	for _, b := range got {
		if v := b["tag"].Value; v != "tag-a" && v != "tag-c" {
			t.Errorf("answer %s not produced by any seed", b)
		}
	}
	if sim.Messages() != 1 {
		t.Errorf("block answered in %d messages, want 1", sim.Messages())
	}
}

// peopleGraph is testSource as an RDF graph, built from the relational
// wrapper's own answers so both models hold identical terms.
func peopleGraph(t *testing.T, sqlw *SQLWrapper) *rdf.Graph {
	return sourceGraph(t, sqlw, "p", "http://c/Person", "http://p/name", "http://p/age", "http://p/friend")
}

// TestBlockSeededMatchesUninstantiated: a block request — served from the
// source's indexes — returns exactly the multiset the un-instantiated
// request restricted to the seeds returns, on both source models.
func TestBlockSeededMatchesUninstantiated(t *testing.T) {
	sqlw := NewSQLWrapper(testSource(t), nil, TranslationOptimized, 0)
	rdfw := NewRDFWrapper("people-rdf", peopleGraph(t, sqlw), nil, 0)
	person := func(id string) rdf.Term { return rdf.NewIRI("http://e/person/" + id) }
	stars := map[string][]*StarQuery{
		"name+age":    {star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a .`)},
		"name+friend": {star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/friend> ?f .`)},
	}
	blocks := map[string][]sparql.Binding{
		"iri subjects":     {{"p": person("1")}, {"p": person("3")}, {"p": person("4")}},
		"iri objects":      {{"f": person("3")}, {"f": person("5")}},
		"string literals":  {{"n": rdf.NewLiteral("ada")}, {"n": rdf.NewLiteral("alan")}, {"n": rdf.NewLiteral("nobody")}},
		"typed literals":   {{"a": rdf.IntLiteral(30)}, {"a": rdf.IntLiteral(31)}},
		"duplicates":       {{"p": person("2")}, {"p": person("2")}, {"p": person("1")}, {"p": person("2")}},
		"outside":          {{"p": rdf.NewIRI("http://other/42")}, {"p": person("2")}},
		"all outside":      {{"p": rdf.NewIRI("http://other/42")}, {"p": rdf.NewLiteral("1")}},
		"two variables":    {{"p": person("1"), "n": rdf.NewLiteral("ada")}, {"p": person("2"), "n": rdf.NewLiteral("ada")}, {"p": person("4"), "n": rdf.NewLiteral("edsger")}},
		"extra variable":   {{"p": person("1"), "z": rdf.NewLiteral("x")}, {"p": person("4"), "z": rdf.NewLiteral("y")}},
		"foreign variable": {{"z": rdf.NewLiteral("x")}},                     // binds nothing here: every answer
		"mixed foreign":    {{"p": person("1")}, {"z": rdf.NewLiteral("x")}}, // fallback pass
		"mixed variables":  {{"p": person("1")}, {"n": rdf.NewLiteral("ada")}, {"n": rdf.NewLiteral("grace")}},
	}
	keys := func(bs []sparql.Binding) string {
		out := make([]string, len(bs))
		for i, b := range bs {
			out[i] = b.FullKey()
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	for _, w := range []Wrapper{sqlw, rdfw} {
		for sname, st := range stars {
			all := collect(t, w, &Request{Stars: st})
			if len(all) == 0 {
				t.Fatalf("%s/%s: un-instantiated request is empty", w.SourceID(), sname)
			}
			for bname, seeds := range blocks {
				var want []sparql.Binding
				for _, b := range all {
					if refMatchesAnySeed(b, seeds) {
						want = append(want, b)
					}
				}
				got := collect(t, w, &Request{Stars: st, Block: true, Seeds: seedsOf(seeds...)})
				if keys(got) != keys(want) {
					t.Errorf("%s/%s/%s: block returned %d answers, un-instantiated pass %d:\n got %v\nwant %v",
						w.SourceID(), sname, bname, len(got), len(want), got, want)
				}
			}
		}
	}
}
