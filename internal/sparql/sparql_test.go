package sparql

import (
	"fmt"
	"strings"
	"testing"

	"ontario/internal/rdf"
)

const exampleQuery = `
PREFIX dise: <http://example.org/diseasome/>
PREFIX affy: <http://example.org/affymetrix/>
SELECT DISTINCT ?gene ?disease ?species WHERE {
  ?gene a dise:genes .
  ?gene dise:associatedWith ?disease .
  ?disease dise:name ?dname .
  ?probe affy:transcribedFrom ?gene ;
         affy:species ?species .
  FILTER (?species = "Homo sapiens")
} LIMIT 50
`

func TestParseExample(t *testing.T) {
	q, err := Parse(exampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 5 {
		t.Fatalf("got %d patterns, want 5", len(q.Patterns))
	}
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if q.Limit != 50 {
		t.Errorf("Limit = %d, want 50", q.Limit)
	}
	if len(q.Filters) != 1 {
		t.Fatalf("got %d filters, want 1", len(q.Filters))
	}
	if got := q.Patterns[0].P.Term.Value; got != rdf.RDFType {
		t.Errorf("'a' not expanded to rdf:type: %s", got)
	}
	if got := q.Patterns[1].P.Term.Value; got != "http://example.org/diseasome/associatedWith" {
		t.Errorf("prefix not expanded: %s", got)
	}
	// The ';' abbreviation must reuse the subject.
	if q.Patterns[3].S.Var != "probe" || q.Patterns[4].S.Var != "probe" {
		t.Errorf("';' abbreviation broken: %s / %s", q.Patterns[3], q.Patterns[4])
	}
	if got := q.ProjectedVars(); len(got) != 3 {
		t.Errorf("ProjectedVars = %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	q := MustParse(exampleQuery)
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse of %q failed: %v", q.String(), err)
	}
	if len(q2.Patterns) != len(q.Patterns) || q2.Limit != q.Limit || q2.Distinct != q.Distinct {
		t.Errorf("round trip changed query: %s vs %s", q, q2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"SELECT WHERE { ?s ?p ?o }",
		"SELECT * { ?s ?p ?o }",                        // missing WHERE
		"SELECT * WHERE { ?s ?p }",                     // incomplete triple
		"SELECT * WHERE { ?s ?p ?o . } LIMIT x",        // bad limit
		"SELECT * WHERE { ?s ex:p ?o . }",              // undeclared prefix
		"SELECT * WHERE { ?s ?p ?o . FILTER (?x = ) }", // bad expr
		"SELECT * WHERE { ?s ?p ?o . } trailing",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseNumbersAndComparisons(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x <http://p> ?v . FILTER (?v >= 10 && ?v < 20.5) }`)
	if err != nil {
		t.Fatal(err)
	}
	b := Binding{"v": rdf.IntLiteral(15)}
	if !EvalBool(q.Filters[0], b) {
		t.Error("15 should satisfy ?v >= 10 && ?v < 20.5")
	}
	b["v"] = rdf.IntLiteral(25)
	if EvalBool(q.Filters[0], b) {
		t.Error("25 should not satisfy filter")
	}
}

func TestFilterFunctions(t *testing.T) {
	for _, tc := range []struct {
		expr string
		b    Binding
		want bool
	}{
		{`CONTAINS(?s, "sapiens")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, true},
		{`CONTAINS(?s, "mus")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, false},
		{`STRSTARTS(?s, "Homo")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, true},
		{`STRENDS(?s, "ens")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, true},
		{`REGEX(?s, "^h.*s$", "i")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, true},
		{`REGEX(?s, "^x")`, Binding{"s": rdf.NewLiteral("Homo sapiens")}, false},
		{`BOUND(?s)`, Binding{"s": rdf.NewLiteral("x")}, true},
		{`BOUND(?t)`, Binding{"s": rdf.NewLiteral("x")}, false},
		{`!BOUND(?t)`, Binding{"s": rdf.NewLiteral("x")}, true},
		{`STRLEN(?s) = 4`, Binding{"s": rdf.NewLiteral("abcd")}, true},
		{`UCASE(?s) = "ABC"`, Binding{"s": rdf.NewLiteral("abc")}, true},
		{`LCASE(?s) = "abc"`, Binding{"s": rdf.NewLiteral("ABC")}, true},
		{`LANG(?s) = "en"`, Binding{"s": rdf.NewLangLiteral("hi", "en")}, true},
		{`DATATYPE(?s) = <` + rdf.RDFLangString + `>`, Binding{"s": rdf.NewLangLiteral("hi", "en")}, true},
		{`DATATYPE(?s) = <` + rdf.XSDString + `>`, Binding{"s": rdf.NewLiteral("hi")}, true},
		{`DATATYPE(?x) = <` + rdf.XSDInteger + `>`, Binding{"x": rdf.IntLiteral(42)}, true},
		{`STR(?x) = "42"`, Binding{"x": rdf.IntLiteral(42)}, true},
		{`?a = ?b || ?a > 5`, Binding{"a": rdf.IntLiteral(7), "b": rdf.IntLiteral(1)}, true},
	} {
		q, err := Parse("SELECT ?s WHERE { ?s ?p ?o . FILTER (" + tc.expr + ") }")
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		if got := EvalBool(q.Filters[0], tc.b); got != tc.want {
			t.Errorf("EvalBool(%s, %s) = %v, want %v", tc.expr, tc.b, got, tc.want)
		}
	}
}

// TestLanguageTaggedLiterals: a language-tagged literal equals only the
// same term (tags compare case-insensitively), any other comparison
// involving one is a type error, CONTAINS, STRSTARTS and STRENDS take a
// language-tagged needle only from a text with the same tag, and a filter
// on DATATYPE xsd:string drops it (its datatype is rdf:langString).
func TestLanguageTaggedLiterals(t *testing.T) {
	ada, adaEN := rdf.NewLiteral("ada"), rdf.NewLangLiteral("ada", "en")
	for _, tc := range []struct {
		expr string
		n    rdf.Term
		want string // "true", "false" or "error"
	}{
		{`?n = "ada"@en`, adaEN, "true"},
		{`?n = "ada"@en`, rdf.NewLangLiteral("ada", "EN"), "true"},
		{`?n != "ada"@en`, adaEN, "false"},
		{`?n = "ada"@en`, ada, "error"},
		{`?n != "ada"@en`, ada, "error"},
		{`?n = "ada"`, adaEN, "error"},
		{`?n = "ada"@fr`, adaEN, "error"},
		{`?n = "bob"@en`, adaEN, "error"},
		{`?n < "bob"@en`, adaEN, "error"},
		{`?n <= "ada"@en`, adaEN, "error"},
		{`?n < "bob"`, adaEN, "error"},
		{`?n = <http://e/ada>`, adaEN, "error"},
		{`CONTAINS(?n, "ad"@en)`, ada, "error"},
		{`CONTAINS(?n, "ad"@en)`, adaEN, "true"},
		{`CONTAINS(?n, "ad")`, adaEN, "true"},
		{`CONTAINS(?n, "ad"@fr)`, adaEN, "error"},
		{`STRSTARTS(?n, "a"@en)`, ada, "error"},
		{`STRSTARTS(?n, "a"@en)`, adaEN, "true"},
		{`STRSTARTS(?n, "d"@en)`, adaEN, "false"},
		{`STRENDS(?n, "da"^^<http://www.w3.org/2001/XMLSchema#string>)`, adaEN, "true"},
		{`STRENDS(?n, "x")`, adaEN, "false"},
		{`STRENDS(?n, "da"@en)`, ada, "error"},
		{`STR(?n) = "ada"`, adaEN, "true"},
		{`UCASE(?n) = "ADA"@en`, adaEN, "true"},
		{`UCASE(?n) = "ADA"`, adaEN, "error"},
		{`DATATYPE(?n) = <http://www.w3.org/2001/XMLSchema#string>`, adaEN, "false"},
		{`DATATYPE(?n) = <http://www.w3.org/2001/XMLSchema#string>`, ada, "true"},
	} {
		q, err := Parse("SELECT ?n WHERE { ?s ?p ?n . FILTER (" + tc.expr + ") }")
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		v, err := q.Filters[0].Eval(Binding{"n": tc.n})
		got := "error"
		if err == nil {
			got = fmt.Sprint(v.Bool)
		}
		if got != tc.want {
			t.Errorf("%s with ?n = %s: %s, want %s", tc.expr, tc.n, got, tc.want)
		}
	}
}

func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	gene := func(i string) rdf.Term { return rdf.NewIRI("http://g/" + i) }
	dis := func(i string) rdf.Term { return rdf.NewIRI("http://d/" + i) }
	assoc := rdf.NewIRI("http://p/assoc")
	name := rdf.NewIRI("http://p/name")
	typ := rdf.NewIRI(rdf.RDFType)
	geneCls := rdf.NewIRI("http://c/Gene")
	g.Add(rdf.Triple{S: gene("1"), P: typ, O: geneCls})
	g.Add(rdf.Triple{S: gene("2"), P: typ, O: geneCls})
	g.Add(rdf.Triple{S: gene("1"), P: assoc, O: dis("a")})
	g.Add(rdf.Triple{S: gene("2"), P: assoc, O: dis("b")})
	g.Add(rdf.Triple{S: dis("a"), P: name, O: rdf.NewLiteral("asthma")})
	g.Add(rdf.Triple{S: dis("b"), P: name, O: rdf.NewLiteral("cancer")})
	return g
}

func TestEvalBGP(t *testing.T) {
	g := testGraph()
	q := MustParse(`SELECT ?g ?n WHERE {
		?g <` + rdf.RDFType + `> <http://c/Gene> .
		?g <http://p/assoc> ?d .
		?d <http://p/name> ?n .
	}`)
	sols := EvalBGP(g, q.Patterns)
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2: %v", len(sols), sols)
	}
	names := map[string]bool{}
	for _, s := range sols {
		names[s["n"].Value] = true
	}
	if !names["asthma"] || !names["cancer"] {
		t.Errorf("names = %v", names)
	}
}

func TestEvalQueryWithFilterAndModifiers(t *testing.T) {
	g := testGraph()
	q := MustParse(`SELECT ?n WHERE {
		?g <http://p/assoc> ?d .
		?d <http://p/name> ?n .
		FILTER (CONTAINS(?n, "a"))
	} ORDER BY ?n LIMIT 1`)
	sols := EvalQuery(g, q)
	if len(sols) != 1 || sols[0]["n"].Value != "asthma" {
		t.Fatalf("got %v, want [asthma]", sols)
	}
}

// TestEvalQueryOrderByUnselectedVar: ORDER BY applies before the
// projection (SPARQL 1.1 §18.2.5), so a query may sort on a variable it
// does not select. The ranks run against the names' order, and ascending
// and descending must both hold, so no evaluation order passes by chance.
func TestEvalQueryOrderByUnselectedVar(t *testing.T) {
	g := rdf.NewGraph()
	rank, name := rdf.NewIRI("http://p/rank"), rdf.NewIRI("http://p/name")
	for i, n := range []string{"d", "b", "c", "a"} {
		s := rdf.NewIRI("http://s/" + n)
		g.Add(rdf.Triple{S: s, P: rank, O: rdf.IntLiteral(int64(i))})
		g.Add(rdf.Triple{S: s, P: name, O: rdf.NewLiteral(n)})
	}
	for order, want := range map[string]string{
		"?r":       "d b c a",
		"DESC(?r)": "a c b d",
	} {
		q := MustParse(`SELECT ?n WHERE { ?s <http://p/rank> ?r . ?s <http://p/name> ?n . } ORDER BY ` + order + ` LIMIT 4`)
		var got []string
		for _, sol := range EvalQuery(g, q) {
			if len(sol) != 1 {
				t.Fatalf("ORDER BY %s: solution %v binds more than the selected ?n", order, sol)
			}
			got = append(got, sol["n"].Value)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("ORDER BY %s: got %v, want %s", order, got, want)
		}
	}
}

func TestEvalQueryDistinct(t *testing.T) {
	g := testGraph()
	q := MustParse(`SELECT DISTINCT ?g WHERE { ?g ?p ?o . }`)
	sols := EvalQuery(g, q)
	// subjects: gene1, gene2, disease a, disease b
	if len(sols) != 4 {
		t.Fatalf("got %d distinct subjects, want 4", len(sols))
	}
}

func TestBindingOps(t *testing.T) {
	a := Binding{"x": rdf.IntLiteral(1), "y": rdf.NewLiteral("s")}
	b := Binding{"y": rdf.NewLiteral("s"), "z": rdf.IntLiteral(2)}
	if !a.Compatible(b) {
		t.Error("compatible bindings reported incompatible")
	}
	c := Binding{"y": rdf.NewLiteral("other")}
	if a.Compatible(c) {
		t.Error("incompatible bindings reported compatible")
	}
	m := a.Merge(b)
	if len(m) != 3 {
		t.Errorf("merge has %d vars, want 3", len(m))
	}
	p := m.Project([]string{"x", "z"})
	if len(p) != 2 {
		t.Errorf("project has %d vars, want 2", len(p))
	}
	if a.Key([]string{"x", "y"}) == c.Key([]string{"x", "y"}) {
		t.Error("distinct bindings share a key")
	}
	if !strings.Contains(a.String(), "?x") {
		t.Errorf("String() = %s", a)
	}
}

func TestSharedVars(t *testing.T) {
	got := SharedVars([]string{"a", "b", "c"}, []string{"c", "d", "a"})
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("SharedVars = %v, want [a c]", got)
	}
}

func TestPatternReorderingSelectivity(t *testing.T) {
	// A graph where one pattern is far more selective; just verify results
	// are correct regardless of written order.
	g := testGraph()
	q1 := MustParse(`SELECT ?g WHERE { ?g <http://p/assoc> ?d . ?d <http://p/name> "cancer" . }`)
	q2 := MustParse(`SELECT ?g WHERE { ?d <http://p/name> "cancer" . ?g <http://p/assoc> ?d . }`)
	s1, s2 := EvalBGP(g, q1.Patterns), EvalBGP(g, q2.Patterns)
	if len(s1) != 1 || len(s2) != 1 {
		t.Fatalf("got %d / %d solutions, want 1 each", len(s1), len(s2))
	}
	if s1[0]["g"] != s2[0]["g"] {
		t.Error("reordered evaluation differs")
	}
}
