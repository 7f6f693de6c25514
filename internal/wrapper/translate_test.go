package wrapper

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"ontario/internal/lslod"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// TestKeyLiteral: an IRI inside a column's template becomes the SQL
// literal of its key in the column's type; any other IRI has none.
func TestKeyLiteral(t *testing.T) {
	const tmpl = "http://e/{value}"
	key := func(typ rdb.Type) colInfo { return colInfo{typ: typ, template: tmpl} }
	lit, ok := key(rdb.TypeInt).literal(rdf.NewIRI("http://e/42"))
	if !ok || lit.Kind != sql.LitInt || lit.Int != 42 {
		t.Errorf("int key: %v/%v", lit, ok)
	}
	if _, ok := key(rdb.TypeInt).literal(rdf.NewIRI("http://e/abc")); ok {
		t.Error("non-numeric key accepted for INTEGER column")
	}
	if _, ok := key(rdb.TypeInt).literal(rdf.NewIRI("http://other/42")); ok {
		t.Error("IRI outside the template accepted")
	}
	lit, ok = key(rdb.TypeFloat).literal(rdf.NewIRI("http://e/2.5"))
	if !ok || lit.Kind != sql.LitFloat || lit.Float != 2.5 {
		t.Errorf("float key: %v/%v", lit, ok)
	}
	lit, ok = key(rdb.TypeString).literal(rdf.NewIRI("http://e/x-1"))
	if !ok || lit.Kind != sql.LitString || lit.Str != "x-1" {
		t.Errorf("string key: %v/%v", lit, ok)
	}
}

// TestTermToSQLLiteral: a literal of exactly the column's datatype becomes
// the SQL literal of its value; any other literal has none.
func TestTermToSQLLiteral(t *testing.T) {
	col := func(typ rdb.Type) colInfo { return colInfo{typ: typ} }
	lit, ok := col(rdb.TypeInt).literal(rdf.IntLiteral(7))
	if !ok || lit.Kind != sql.LitInt || lit.Int != 7 {
		t.Errorf("int: %v/%v", lit, ok)
	}
	lit, ok = col(rdb.TypeFloat).literal(rdf.FloatLiteral(3.5))
	if !ok || lit.Kind != sql.LitFloat || lit.Float != 3.5 {
		t.Errorf("float: %v/%v", lit, ok)
	}
	if _, ok := col(rdb.TypeFloat).literal(rdf.NewLiteral("3.5")); ok {
		t.Error("plain literal accepted for DOUBLE column")
	}
	if _, ok := col(rdb.TypeFloat).literal(rdf.NewLiteral("x")); ok {
		t.Error("non-numeric literal accepted for DOUBLE column")
	}
	lit, ok = col(rdb.TypeBool).literal(rdf.BoolLiteral(true))
	if !ok || lit.Kind != sql.LitBool || !lit.Bool {
		t.Errorf("bool: %v/%v", lit, ok)
	}
	if _, ok := col(rdb.TypeBool).literal(rdf.NewLiteral("maybe")); ok {
		t.Error("non-boolean literal accepted for BOOLEAN column")
	}
	lit, ok = col(rdb.TypeString).literal(rdf.NewLiteral("ada"))
	if !ok || lit.Kind != sql.LitString || lit.Str != "ada" {
		t.Errorf("string: %v/%v", lit, ok)
	}
}

// TestMergedStarJoinEqualityOnce: Q2's two Diseasome stars, merged into
// one statement, repeat ?gene in three of their patterns; the statement
// equates the association's gene column with the gene key once, and no
// other condition of any Q1–Q5 statement is repeated either.
func TestMergedStarJoinEqualityOnce(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := lslod.Query("Q2")
	req := &Request{
		Stars: []*StarQuery{
			{SubjectVar: "disease", Class: lslod.ClassDisease, Patterns: q.Patterns[:3]},
			{SubjectVar: "gene", Class: lslod.ClassGene, Patterns: q.Patterns[3:]},
		},
		Filters: q.Filters,
	}
	w := NewSQLWrapper(lk.Catalog.Source(lslod.DSDiseasome), nil, TranslationOptimized, 0)
	if got := collect(t, w, req); len(got) == 0 {
		t.Fatal("Q2's merged star answered nothing")
	}
	stmts := w.LastSQL()
	if len(stmts) != 1 {
		t.Fatalf("Q2's merged star issued %d statements, want 1: %v", len(stmts), stmts)
	}
	if n := len(regexp.MustCompile(`t\d+\.gene_id = t\d+\.id`).FindAllString(stmts[0], -1)); n != 1 {
		t.Errorf("Q2's merged statement equates gene_id with the gene key %d times, want once: %s", n, stmts[0])
	}
	for _, c := range lakeSQLRequests(lk) {
		w := NewSQLWrapper(c.src, nil, TranslationOptimized, 0)
		collect(t, w, c.req)
		for _, stmt := range w.LastSQL() {
			_, where, _ := strings.Cut(stmt, " WHERE ")
			seen := map[string]bool{}
			for _, cond := range strings.Split(where, " AND ") {
				if seen[cond] {
					t.Errorf("condition %q repeated in %s", cond, stmt)
				}
				seen[cond] = true
			}
		}
	}
}

func TestFilterWithWildcardNeedleStaysLocal(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	// '%' in the needle cannot be expressed in our LIKE subset — the
	// filter must run locally yet still be applied.
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/name> ?n . FILTER (CONTAINS(?n, "100%")) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 0 {
		t.Fatalf("wildcard needle matched: %v", got)
	}
	for _, s := range w.LastSQL() {
		if strings.Contains(s, "LIKE") {
			t.Errorf("wildcard needle was pushed as LIKE: %s", s)
		}
	}
}

func TestIRIEqualityFilterPushed(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/friend> ?f . FILTER (?f = <http://e/person/3>) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 2 {
		t.Fatalf("IRI equality filter: got %d, want 2", len(got))
	}
	if !strings.Contains(w.LastSQL()[0], "= 3") {
		t.Errorf("IRI filter not pushed as key equality: %v", w.LastSQL())
	}
}

func TestIRIRangeFilterNotPushed(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	// Ordering over IRIs cannot be pushed; it also fails at the engine
	// (type error), so zero results — but no SQL ordering on the key.
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/friend> ?f . FILTER (?f > <http://e/person/1>) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 0 {
		t.Fatalf("IRI ordering filter matched: %v", got)
	}
	if strings.Contains(w.LastSQL()[0], ">") {
		t.Errorf("IRI ordering pushed into SQL: %v", w.LastSQL())
	}
}

func TestDisjunctionPushedWhenBothSidesTranslate(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/age> ?a . FILTER (?a = 20 || ?a = 60) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 2 {
		t.Fatalf("disjunction: got %d, want 2", len(got))
	}
	if !strings.Contains(w.LastSQL()[0], "OR") {
		t.Errorf("disjunction not pushed: %v", w.LastSQL())
	}
}

func TestNegationPushed(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://p/age> ?a . FILTER (!(?a < 40)) }`)
	req := &Request{
		Stars:   []*StarQuery{{SubjectVar: "p", Class: "http://c/Person", Patterns: q.Patterns}},
		Filters: q.Filters,
	}
	got := collect(t, w, req)
	if len(got) != 3 {
		t.Fatalf("negation: got %d, want 3", len(got))
	}
	if !strings.Contains(w.LastSQL()[0], "NOT") {
		t.Errorf("negation not pushed: %v", w.LastSQL())
	}
}

func TestRepeatedObjectVariableAddsEquality(t *testing.T) {
	// ?x appears as the object of two different predicates: the SQL must
	// contain an equality between the two columns.
	src := testSource(t)
	// name and age are different types; equality can never hold, but the
	// translation must still be well-formed.
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?x . ?p <http://p/age> ?x .`),
	}}
	got := collect(t, w, req)
	if len(got) != 0 {
		t.Fatalf("impossible repeated-var star matched: %v", got)
	}
	if !strings.Contains(w.LastSQL()[0], "t1.name = t1.age") &&
		!strings.Contains(w.LastSQL()[0], "t1.age = t1.name") {
		t.Errorf("repeated variable equality missing: %v", w.LastSQL())
	}
}

func TestSharedSubjectAddsNoSelfEquality(t *testing.T) {
	// Every pattern of a star binds the subject variable to the same key
	// column: the repeats must not turn into "t1.id = t1.id".
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/age> ?a . ?p <http://p/friend> ?f .`),
	}}
	if got := collect(t, w, req); len(got) != 4 {
		t.Fatalf("star over four friend links returned %d answers: %v", len(got), got)
	}
	stmt := w.LastSQL()[0]
	for _, m := range regexp.MustCompile(`([\w.]+) = ([\w.]+)`).FindAllStringSubmatch(stmt, -1) {
		if m[1] == m[2] {
			t.Errorf("self-equality %q in %s", m[0], stmt)
		}
	}
	if !strings.Contains(stmt, "t2.person_id = t1.id") && !strings.Contains(stmt, "t1.id = t2.person_id") {
		t.Errorf("join-table equality missing: %s", stmt)
	}
}

func TestEmptyRequestRejected(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	if _, err := execute(context.Background(), w, &Request{}); err == nil {
		t.Error("empty request accepted")
	}
	rw := NewRDFWrapper("r", rdf.NewGraph(), nil, 0)
	if _, err := execute(context.Background(), rw, &Request{}); err == nil {
		t.Error("empty RDF request accepted")
	}
}

func TestUnknownClassRejected(t *testing.T) {
	src := testSource(t)
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	req := &Request{Stars: []*StarQuery{
		star(t, "p", "http://c/Unknown", `?p <http://p/name> ?n .`),
	}}
	if _, err := execute(context.Background(), w, req); err == nil {
		t.Error("unknown class accepted")
	}
}
