package rdf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://x/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Error("IRI kind predicates wrong")
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() {
		t.Error("literal kind predicate wrong")
	}
	bn := NewBlank("b0")
	if !bn.IsBlank() {
		t.Error("blank kind predicate wrong")
	}
	if !iri.Equal(NewIRI("http://x/a")) {
		t.Error("equal IRIs not equal")
	}
	if lit.Equal(NewLangLiteral("hello", "en")) {
		t.Error("plain and lang literal equal")
	}
}

func TestTermString(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<` + XSDInteger + `>`},
		{NewTypedLiteral("s", XSDString), `"s"`},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("a\"b\\c\nd\te"), `"a\"b\\c\nd\te"`},
		{IntLiteral(-7), `"-7"^^<` + XSDInteger + `>`},
		{BoolLiteral(true), `"true"^^<` + XSDBoolean + `>`},
	} {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String() = %s, want %s", got, tc.want)
		}
	}
}

func mkGraph() *Graph {
	g := NewGraph()
	a, b, c := NewIRI("http://s/a"), NewIRI("http://s/b"), NewIRI("http://s/c")
	p1, p2 := NewIRI("http://p/1"), NewIRI("http://p/2")
	g.Add(Triple{a, p1, NewLiteral("x")})
	g.Add(Triple{a, p2, b})
	g.Add(Triple{b, p1, NewLiteral("y")})
	g.Add(Triple{c, p2, b})
	return g
}

func TestGraphAddDuplicate(t *testing.T) {
	g := NewGraph()
	tr := Triple{NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o")}
	if !g.Add(tr) {
		t.Error("first Add returned false")
	}
	if g.Add(tr) {
		t.Error("duplicate Add returned true")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if !g.Contains(tr) {
		t.Error("Contains(added) = false")
	}
}

// TestGraphForEachVisitsTriples: ForEach visits exactly the triples
// Triples copies, in the same (insertion) order, duplicates dropped.
func TestGraphForEachVisitsTriples(t *testing.T) {
	g := NewGraph()
	for n := 0; n < 50; n++ {
		i := n % 40 // the last ten are duplicates
		s := NewIRI("http://s/" + strings.Repeat("x", i%7))
		g.Add(Triple{s, NewIRI("http://p/" + strings.Repeat("y", i%3)), IntLiteral(int64(i % 11))})
	}
	var got []Triple
	g.ForEach(func(t Triple) { got = append(got, t) })
	want := g.Triples()
	if len(got) != len(want) || len(got) != 40 {
		t.Fatalf("ForEach visited %d triples, Triples has %d, want 40", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("triple %d: ForEach visited %v, Triples has %v", i, got[i], want[i])
		}
	}
}

func TestGraphMatchPatterns(t *testing.T) {
	g := mkGraph()
	a := NewIRI("http://s/a")
	b := NewIRI("http://s/b")
	p1 := NewIRI("http://p/1")
	p2 := NewIRI("http://p/2")
	lx := NewLiteral("x")

	cases := []struct {
		s, p, o *Term
		want    int
	}{
		{nil, nil, nil, 4},
		{&a, nil, nil, 2},
		{nil, &p1, nil, 2},
		{nil, nil, &b, 2},
		{&a, &p1, nil, 1},
		{nil, &p2, &b, 2},
		{&a, nil, &lx, 1},
		{&a, &p1, &lx, 1},
		{&b, &p2, nil, 0},
	}
	for i, tc := range cases {
		if got := len(g.Match(tc.s, tc.p, tc.o)); got != tc.want {
			t.Errorf("case %d: Match = %d triples, want %d", i, got, tc.want)
		}
		if got := g.Count(tc.s, tc.p, tc.o); got != tc.want {
			t.Errorf("case %d: Count = %d, want %d", i, got, tc.want)
		}
	}
}

func TestGraphAccessors(t *testing.T) {
	g := mkGraph()
	p2 := NewIRI("http://p/2")
	b := NewIRI("http://s/b")
	subs := g.Subjects(&p2, &b)
	if len(subs) != 2 {
		t.Errorf("Subjects = %v", subs)
	}
	preds := g.Predicates()
	if len(preds) != 2 || preds[0].Value != "http://p/1" {
		t.Errorf("Predicates = %v", preds)
	}
	a := NewIRI("http://s/a")
	objs := g.Objects(&a, nil)
	if len(objs) != 2 {
		t.Errorf("Objects = %v", objs)
	}
	if len(g.Triples()) != 4 {
		t.Error("Triples() wrong length")
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	in := []Triple{
		{NewIRI("http://s/a"), NewIRI("http://p/1"), NewLiteral("plain")},
		{NewIRI("http://s/a"), NewIRI("http://p/2"), NewLangLiteral("hallo", "de")},
		{NewIRI("http://s/b"), NewIRI("http://p/3"), NewTypedLiteral("42", XSDInteger)},
		{NewBlank("n0"), NewIRI("http://p/4"), NewIRI("http://s/b")},
		{NewIRI("http://s/c"), NewIRI("http://p/5"), NewLiteral("esc \"quotes\"\nand\ttabs\\")},
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatalf("parse failed on %q: %v", buf.String(), err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d triples, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("triple %d: %s != %s", i, in[i], out[i])
		}
	}
}

func TestNTriplesCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
<http://s> <http://p> "o" .

<http://s> <http://p> <http://o> . # no trailing comment support needed
`
	_, err := ParseNTriples(strings.NewReader(src))
	if err == nil {
		t.Fatal("trailing comment should be rejected (strict N-Triples)")
	}
	ts, err := ParseNTriples(strings.NewReader("# only comment\n\n<http://s> <http://p> \"o\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
}

func TestNTriplesErrors(t *testing.T) {
	for _, in := range []string{
		"<http://s> <http://p> .",
		"<http://s> <http://p> \"unterminated .",
		"<http://s <http://p> \"o\" .",
		"_: <http://p> \"o\" .",
		"<http://s> <http://p> \"o\"",
		"<http://s> <http://p> \"o\" . extra",
		`<http://s> <http://p> "bad\q" .`,
	} {
		if _, err := ParseNTriples(strings.NewReader(in)); err == nil {
			t.Errorf("ParseNTriples(%q) should fail", in)
		}
	}
}

func TestNTriplesDatatypeAndLang(t *testing.T) {
	ts, err := ParseNTriples(strings.NewReader(
		`<http://s> <http://p> "5"^^<` + XSDInteger + `> .` + "\n" +
			`<http://s> <http://p> "hi"@en-GB .` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O.Datatype != XSDInteger {
		t.Errorf("datatype = %s", ts[0].O.Datatype)
	}
	if ts[1].O.Lang != "en-GB" {
		t.Errorf("lang = %s", ts[1].O.Lang)
	}
}

// Property: writing then parsing any set of simple triples is lossless.
func TestQuickNTriplesRoundTrip(t *testing.T) {
	f := func(subjects, values []string) bool {
		var ts []Triple
		for i := range subjects {
			s := "http://s/" + sanitize(subjects[i])
			v := "fixed"
			if len(values) > 0 {
				v = values[i%len(values)]
			}
			ts = append(ts, Triple{NewIRI(s), NewIRI("http://p"), NewLiteral(v)})
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			return false
		}
		got, err := ParseNTriples(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if ts[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > 0x20 && r != '>' && r != '<' && r < 0x7f {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}
