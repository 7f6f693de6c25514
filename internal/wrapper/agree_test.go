package wrapper

import (
	"sort"
	"strings"
	"testing"

	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// agreeSeedTerms are the values the seeded forms of TestSQLAndRDFReadingsAgree
// bind each request variable to: keys inside and outside the subject
// templates, non-canonical integer keys, plain, typed and language-tagged
// literals of the stored values in canonical and other lexical forms, and
// the class IRI.
var agreeSeedTerms = []rdf.Term{
	rdf.NewIRI("http://e/person/1"), rdf.NewIRI("http://e/person/3"), rdf.NewIRI("http://e/person/007"),
	rdf.NewIRI("http://e/person/01"), rdf.NewIRI("http://other/1"), rdf.NewIRI("http://c/Person"),
	rdf.NewLiteral("3"), rdf.NewLiteral("30"), rdf.IntLiteral(30), rdf.IntLiteral(3),
	rdf.NewTypedLiteral("030", rdf.XSDInteger), rdf.NewLiteral("ada"), rdf.NewLangLiteral("ada", "en"),
	rdf.NewTypedLiteral("ada", rdf.XSDString), rdf.BoolLiteral(true), rdf.NewTypedLiteral("1", rdf.XSDBoolean),
	rdf.FloatLiteral(2.5), rdf.NewTypedLiteral("2.50", rdf.XSDDouble), rdf.NewIRI("http://e/m/1"),
}

// sourceGraph is a relational source's class as an RDF graph, built from
// the SQL wrapper's own answers for each of the class's predicates, so both
// models hold identical terms.
func sourceGraph(t *testing.T, sqlw *SQLWrapper, subjectVar, class string, preds ...string) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	for _, pred := range preds {
		s := star(t, subjectVar, class, "?"+subjectVar+" <"+pred+"> ?o .")
		for _, b := range collect(t, sqlw, &Request{Stars: []*StarQuery{s}}) {
			g.Add(rdf.Triple{S: b[subjectVar], P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(class)})
			g.Add(rdf.Triple{S: b[subjectVar], P: rdf.NewIRI(pred), O: b["o"]})
		}
	}
	return g
}

// TestSQLAndRDFReadingsAgree holds the SQL translation to the RDF reading of
// the same data: on the people and typed sources and the graphs of their
// triples, every constant subject, constant object and filter constant,
// and every seed of a per-answer or block request, must give the SQL
// wrapper exactly the answers the RDF wrapper gives. A constant a column
// cannot hold matches nothing, and a filter constant it cannot hold (or an
// order SPARQL does not define) leaves the filter to the wrapper's SPARQL
// evaluation.
func TestSQLAndRDFReadingsAgree(t *testing.T) {
	people := NewSQLWrapper(testSource(t), nil, TranslationOptimized, 0)
	typed := NewSQLWrapper(typedSource(t), nil, TranslationOptimized, 0)
	readings := map[*SQLWrapper]Wrapper{
		people: NewRDFWrapper("people-rdf", peopleGraph(t, people), nil, 0),
		typed:  NewRDFWrapper("typed-rdf", sourceGraph(t, typed, "m", "http://c/M", "http://p/label", "http://p/value", "http://p/valid"), nil, 0),
	}
	const boolean, double = "<http://www.w3.org/2001/XMLSchema#boolean>", "<http://www.w3.org/2001/XMLSchema#double>"
	cases := []struct {
		name, patterns, filter string
		sqlw                   *SQLWrapper
	}{
		{"literal object on an IRI column", `?p <http://p/friend> "3" .`, "", people},
		{"plain literal object on an integer column", `?p <http://p/age> "30" .`, "", people},
		{"non-canonical integer object", `?p <http://p/age> "030"^^<http://www.w3.org/2001/XMLSchema#integer> .`, "", people},
		{"canonical integer object", `?p <http://p/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .`, "", people},
		{"plain literal filter on an integer column", `?p <http://p/age> ?a .`, `?a = "30"`, people},
		{"integer filter", `?p <http://p/age> ?a .`, `?a = 30`, people},
		{"class and column bind one variable", `?p a ?t . ?p <http://p/friend> ?t .`, "", people},
		{"subject outside the template", `<http://other/1> <http://p/name> ?n .`, "", people},
		{"non-canonical integer subject key", `<http://e/person/007> <http://p/name> ?n .`, "", people},
		{"zero-padded subject key of a stored row", `<http://e/person/01> <http://p/name> ?n .`, "", people},
		{"IRI object on a literal column", `?p <http://p/name> <http://e/person/1> .`, "", people},
		{"language-tagged filter constant", `?p <http://p/name> ?n .`, `?n = "ada"@en`, people},
		{"language-tagged CONTAINS constant", `?p <http://p/name> ?n .`, `CONTAINS(?n, "ad"@en)`, people},
		{"typed string object", `?p <http://p/name> "ada"^^<http://www.w3.org/2001/XMLSchema#string> .`, "", people},
		{"name, age and friends", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`, "", people},
		{"ordered boolean filter", `?m <http://p/valid> ?ok .`, `?ok < "true"^^` + boolean, typed},
		{"boolean filter", `?m <http://p/valid> ?ok .`, `?ok = "true"^^` + boolean, typed},
		{"numeric boolean object", `?m <http://p/valid> "1"^^` + boolean + ` .`, "", typed},
		{"integer filter on a double column", `?m <http://p/value> ?v .`, `?v > 2`, typed},
		{"non-canonical double object", `?m <http://p/value> "2.50"^^` + double + ` .`, "", typed},
		{"canonical double object", `?m <http://p/value> "2.5"^^` + double + ` .`, "", typed},
	}
	// A language-tagged constant equals no stored plain literal and is not
	// argument-compatible with one, so these cases answer nothing.
	empty := map[string]bool{"language-tagged filter constant": true, "language-tagged CONTAINS constant": true}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := c.patterns
			if c.filter != "" {
				text += " FILTER (" + c.filter + ")"
			}
			q := sparql.MustParse("SELECT * WHERE { " + text + " }")
			subject, class := "p", "http://c/Person"
			if c.sqlw == typed {
				subject, class = "m", "http://c/M"
			}
			req := &Request{
				Stars:   []*StarQuery{{SubjectVar: subject, Class: class, Patterns: q.Patterns}},
				Filters: q.Filters,
			}
			agree := func(form string, r *Request) {
				t.Helper()
				got, want := answerKeys(collect(t, c.sqlw, r)), answerKeys(collect(t, readings[c.sqlw], r))
				if got != want {
					t.Errorf("%s: SQL answers\n%s\nRDF answers\n%s\nSQL %v", form, got, want, c.sqlw.LastSQL())
				}
			}
			agree("unseeded", req)
			if got := collect(t, c.sqlw, req); empty[c.name] && len(got) != 0 {
				t.Errorf("answered %d rows, want none: %v", len(got), got)
			}
			for _, v := range req.Vars() {
				var block []sparql.Binding
				for _, term := range agreeSeedTerms {
					seed := sparql.Binding{v: term}
					agree("per-answer ?"+v+" = "+term.String(), req.WithSeeds(seedsOf(seed), false))
					block = append(block, seed)
				}
				agree("block over ?"+v, req.WithSeeds(seedsOf(block...), true))
			}
		})
	}
}

// answerKeys renders an answer multiset in a canonical order.
func answerKeys(bs []sparql.Binding) string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.FullKey()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
