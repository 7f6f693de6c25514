package catalog

import (
	"testing"

	"ontario/internal/rdb"
	"ontario/internal/rdf"
)

func TestTemplateKey(t *testing.T) {
	tmpl := "http://lake/disease/{value}"
	if got := ValueTerm(rdb.StringValue("42"), tmpl); got != rdf.NewIRI("http://lake/disease/42") {
		t.Errorf("ValueTerm = %v", got)
	}
	for _, c := range []struct {
		tmpl, iri string
		key       string
		ok        bool
	}{
		{tmpl, "http://lake/disease/42", "42", true},
		{tmpl, "http://other/disease/42", "", false},
		{tmpl, "http://lake/disease/", "", true}, // the empty string renders to it
		{"no-placeholder", "no-placeholder", "", false},
		{"http://x/{value}/end", "http://x/7/end", "7", true},
		{"http://x/{value}/end", "http://x/7/en", "", false},
		{"a{value}a", "a", "", false}, // prefix and suffix overlap
		{"a{value}a", "aa", "", true},
	} {
		v, ok := TermValue(rdf.NewIRI(c.iri), rdb.TypeString, c.tmpl)
		if ok != c.ok || ok && v != rdb.StringValue(c.key) {
			t.Errorf("TermValue(<%s>, VARCHAR, %q) = %v/%v, want %q/%v", c.iri, c.tmpl, v, ok, c.key, c.ok)
		}
	}
}

func TestClassMappingSubject(t *testing.T) {
	cm := &ClassMapping{SubjectTemplate: "http://lake/gene/{value}"}
	if got := ValueTerm(rdb.IntValue(9), cm.SubjectTemplate); got != rdf.NewIRI("http://lake/gene/9") {
		t.Errorf("subject of key 9 = %v", got)
	}
	v, ok := TermValue(rdf.NewIRI("http://lake/gene/9"), rdb.TypeInt, cm.SubjectTemplate)
	if !ok || v != rdb.IntValue(9) {
		t.Errorf("key of <http://lake/gene/9> = %v/%v", v, ok)
	}
}

func TestValueTerm(t *testing.T) {
	for _, c := range []struct {
		v    rdb.Value
		tmpl string
		want rdf.Term
	}{
		{rdb.IntValue(5), "", rdf.NewTypedLiteral("5", rdf.XSDInteger)},
		{rdb.FloatValue(1.5), "", rdf.NewTypedLiteral("1.5", rdf.XSDDouble)},
		{rdb.BoolValue(true), "", rdf.NewTypedLiteral("true", rdf.XSDBoolean)},
		{rdb.StringValue("s"), "", rdf.NewLiteral("s")},
		{rdb.IntValue(9), "http://e/{value}", rdf.NewIRI("http://e/9")},
		{rdb.BoolValue(false), "http://e/{value}", rdf.NewIRI("http://e/FALSE")},
	} {
		if got := ValueTerm(c.v, c.tmpl); got != c.want {
			t.Errorf("ValueTerm(%v, %q) = %v, want %v", c.v, c.tmpl, got, c.want)
		}
	}
}

// TestTermValue lists, per column type and template, the terms a column
// holds a value for and those it does not.
func TestTermValue(t *testing.T) {
	const tmpl = "http://e/{value}"
	typed := rdf.NewTypedLiteral
	for _, c := range []struct {
		term rdf.Term
		typ  rdb.Type
		tmpl string
		want rdb.Value
		ok   bool
	}{
		// Keys rendered into an IRI template.
		{rdf.NewIRI("http://e/42"), rdb.TypeInt, tmpl, rdb.IntValue(42), true},
		{rdf.NewIRI("http://e/-3"), rdb.TypeInt, tmpl, rdb.IntValue(-3), true},
		{rdf.NewIRI("http://e/abc"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://e/007"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://e/+7"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://e/99999999999999999999"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://e/2.5"), rdb.TypeFloat, tmpl, rdb.FloatValue(2.5), true},
		{rdf.NewIRI("http://e/2.50"), rdb.TypeFloat, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://e/x-1"), rdb.TypeString, tmpl, rdb.StringValue("x-1"), true},
		{rdf.NewIRI("http://e/TRUE"), rdb.TypeBool, tmpl, rdb.BoolValue(true), true},
		{rdf.NewIRI("http://e/true"), rdb.TypeBool, tmpl, rdb.Value{}, false},
		{rdf.NewIRI("http://other/42"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewLiteral("42"), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.IntLiteral(42), rdb.TypeInt, tmpl, rdb.Value{}, false},
		{rdf.NewBlank("b42"), rdb.TypeString, tmpl, rdb.Value{}, false},
		// Literals.
		{rdf.IntLiteral(7), rdb.TypeInt, "", rdb.IntValue(7), true},
		{typed("030", rdf.XSDInteger), rdb.TypeInt, "", rdb.Value{}, false},
		{rdf.NewLiteral("7"), rdb.TypeInt, "", rdb.Value{}, false},
		{typed("7", rdf.XSDDecimal), rdb.TypeInt, "", rdb.Value{}, false},
		{rdf.FloatLiteral(3.5), rdb.TypeFloat, "", rdb.FloatValue(3.5), true},
		{typed("1e+21", rdf.XSDDouble), rdb.TypeFloat, "", rdb.FloatValue(1e21), true},
		{typed("1e21", rdf.XSDDouble), rdb.TypeFloat, "", rdb.Value{}, false},
		{typed("NaN", rdf.XSDDouble), rdb.TypeFloat, "", rdb.Value{}, false},
		{typed("+Inf", rdf.XSDDouble), rdb.TypeFloat, "", rdb.Value{}, false},
		{rdf.NewLiteral("3.5"), rdb.TypeFloat, "", rdb.Value{}, false},
		{typed("x", rdf.XSDDouble), rdb.TypeFloat, "", rdb.Value{}, false},
		{rdf.BoolLiteral(true), rdb.TypeBool, "", rdb.BoolValue(true), true},
		{rdf.BoolLiteral(false), rdb.TypeBool, "", rdb.BoolValue(false), true},
		{typed("1", rdf.XSDBoolean), rdb.TypeBool, "", rdb.Value{}, false},
		{typed("TRUE", rdf.XSDBoolean), rdb.TypeBool, "", rdb.Value{}, false},
		{rdf.NewLiteral("maybe"), rdb.TypeBool, "", rdb.Value{}, false},
		{rdf.NewLiteral("ada"), rdb.TypeString, "", rdb.StringValue("ada"), true},
		{rdf.NewLiteral(""), rdb.TypeString, "", rdb.StringValue(""), true},
		{rdf.NewLangLiteral("ada", "en"), rdb.TypeString, "", rdb.Value{}, false},
		{typed("ada", rdf.XSDString), rdb.TypeString, "", rdb.Value{}, false},
		{rdf.IntLiteral(5), rdb.TypeString, "", rdb.Value{}, false},
		{rdf.NewIRI("http://e/1"), rdb.TypeString, "", rdb.Value{}, false},
	} {
		v, ok := TermValue(c.term, c.typ, c.tmpl)
		if ok != c.ok || ok && v != c.want {
			t.Errorf("TermValue(%v, %v, %q) = %v/%v, want %v/%v", c.term, c.typ, c.tmpl, v, ok, c.want, c.ok)
		}
		if ok && ValueTerm(v, c.tmpl) != c.term {
			t.Errorf("ValueTerm(TermValue(%v)) = %v", c.term, ValueTerm(v, c.tmpl))
		}
	}
	lit, iri, float := rdf.IntLiteral(123456), rdf.NewIRI("http://e/123456"), rdf.FloatLiteral(0.125)
	if n := testing.AllocsPerRun(100, func() {
		TermValue(lit, rdb.TypeInt, "")
		TermValue(iri, rdb.TypeInt, tmpl)
		TermValue(float, rdb.TypeFloat, "")
	}); n != 0 {
		t.Errorf("TermValue allocates %v times per call", n)
	}
}

// FuzzTermValue: whenever TermValue answers, for any term and template
// over any column type, ValueTerm of its answer is the term itself.
func FuzzTermValue(f *testing.F) {
	f.Add("30", rdf.XSDInteger, "", "", false)
	f.Add("http://e/007", "", "", "http://e/{value}", true)
	f.Add("1.50", rdf.XSDDouble, "", "", false)
	f.Add("ada", "", "en", "", false)
	f.Add("http://e/TRUE", "", "", "http://e/{value}", true)
	f.Fuzz(func(t *testing.T, lex, datatype, lang, tmpl string, iri bool) {
		term := rdf.Term{Kind: rdf.TermLiteral, Value: lex, Datatype: datatype, Lang: lang}
		if iri {
			term = rdf.NewIRI(lex)
		}
		for _, typ := range []rdb.Type{rdb.TypeInt, rdb.TypeFloat, rdb.TypeString, rdb.TypeBool} {
			v, ok := TermValue(term, typ, tmpl)
			if !ok {
				continue
			}
			if v.Type != typ || v.Null {
				t.Fatalf("TermValue(%v, %v, %q) = %v, not a %v value", term, typ, tmpl, v, typ)
			}
			if got := ValueTerm(v, tmpl); got != term {
				t.Fatalf("TermValue(%v, %v, %q) = %v, whose term is %v", term, typ, tmpl, v, got)
			}
		}
	})
}

func relSource(t *testing.T) *Source {
	t.Helper()
	db := rdb.NewDatabase("d")
	tab, err := db.CreateTable(&rdb.Schema{
		Name: "thing",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "label", Type: rdb.TypeString},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.CreateTable(&rdb.Schema{
		Name: "thing_link",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "thing_id", Type: rdb.TypeInt},
			{Name: "other_id", Type: rdb.TypeInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex(rdb.IndexSpec{Column: "label", Kind: rdb.IndexHash}); err != nil {
		t.Fatal(err)
	}
	return &Source{
		ID:    "d",
		Model: ModelRelational,
		DB:    db,
		Mappings: map[string]*ClassMapping{
			"http://c/Thing": {
				Class: "http://c/Thing", Table: "thing",
				SubjectColumn: "id", SubjectTemplate: "http://e/thing/{value}",
				Properties: map[string]*PropertyMapping{
					"http://p/label": {Predicate: "http://p/label", Column: "label"},
					"http://p/link": {
						Predicate: "http://p/link", JoinTable: "thing_link",
						JoinFK: "thing_id", ValueColumn: "other_id",
						ObjectTemplate: "http://e/thing/{value}",
					},
				},
			},
		},
	}
}

func TestAddSourceValidation(t *testing.T) {
	c := New()
	if err := c.AddSource(&Source{}); err == nil {
		t.Error("empty source accepted")
	}
	if err := c.AddSource(&Source{ID: "r", Model: ModelRDF}); err == nil {
		t.Error("RDF source without graph accepted")
	}
	if err := c.AddSource(&Source{ID: "q", Model: ModelRelational}); err == nil {
		t.Error("relational source without DB accepted")
	}
	src := relSource(t)
	if err := c.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSource(src); err == nil {
		t.Error("duplicate source accepted")
	}
	if got := c.Source("d"); got != src {
		t.Error("Source lookup failed")
	}
	if ids := c.SourceIDs(); len(ids) != 1 || ids[0] != "d" {
		t.Errorf("SourceIDs = %v", ids)
	}
}

func TestAddSourceMappingValidation(t *testing.T) {
	src := relSource(t)
	src.Mappings["http://c/Bad"] = &ClassMapping{
		Class: "http://c/Bad", Table: "missing", SubjectColumn: "id",
	}
	if err := New().AddSource(src); err == nil {
		t.Error("mapping to missing table accepted")
	}
	delete(src.Mappings, "http://c/Bad")

	src2 := relSource(t)
	src2.Mappings["http://c/Thing"].SubjectColumn = "label"
	if err := New().AddSource(src2); err == nil {
		t.Error("non-PK subject column accepted")
	}

	src3 := relSource(t)
	src3.Mappings["http://c/Thing"].Properties["http://p/bad"] = &PropertyMapping{Column: "nope"}
	if err := New().AddSource(src3); err == nil {
		t.Error("property mapping to unknown column accepted")
	}

	src4 := relSource(t)
	src4.Mappings["http://c/Thing"].Properties["http://p/bad"] = &PropertyMapping{
		JoinTable: "thing_link", JoinFK: "missing_fk", ValueColumn: "other_id",
	}
	if err := New().AddSource(src4); err == nil {
		t.Error("join property with bad FK accepted")
	}
}

func TestHasIndexOn(t *testing.T) {
	src := relSource(t)
	cm := src.Mapping("http://c/Thing")
	if cm == nil {
		t.Fatal("mapping missing")
	}
	if !src.SubjectIndexed(cm) {
		t.Error("primary key not reported indexed")
	}
	if !src.HasIndexOn(cm, "http://p/label", false) {
		t.Error("indexed label column not reported")
	}
	// The link side table has no index on either column.
	if src.HasIndexOn(cm, "http://p/link", false) {
		t.Error("unindexed value column reported indexed")
	}
	if src.HasIndexOn(cm, "http://p/link", true) {
		t.Error("unindexed FK column reported indexed")
	}
	if src.HasIndexOn(cm, "http://p/none", false) {
		t.Error("unknown predicate reported indexed")
	}
	// RDF sources never report indexes.
	rsrc := &Source{ID: "r", Model: ModelRDF, Graph: rdf.NewGraph()}
	if rsrc.HasIndexOn(cm, "http://p/label", false) {
		t.Error("RDF source reported an index")
	}
}

func TestMTRegistryAndMerge(t *testing.T) {
	c := New()
	c.AddMT(&RDFMT{
		Class:      "http://c/A",
		Predicates: []PredicateDesc{{Predicate: "http://p/1"}},
		Sources:    []string{"s1"},
	})
	c.AddMT(&RDFMT{
		Class:      "http://c/A",
		Predicates: []PredicateDesc{{Predicate: "http://p/1"}, {Predicate: "http://p/2"}},
		Sources:    []string{"s1", "s2"},
	})
	mt := c.MT("http://c/A")
	if mt == nil || len(mt.Predicates) != 2 {
		t.Fatalf("merged MT = %+v", mt)
	}
	if len(mt.Sources) != 2 {
		t.Errorf("merged sources = %v", mt.Sources)
	}
	if !mt.HasPredicate("http://p/2") || mt.HasPredicate("http://p/3") {
		t.Error("HasPredicate wrong")
	}
	if got := c.ClassesWithPredicate("http://p/1"); len(got) != 1 || got[0] != "http://c/A" {
		t.Errorf("ClassesWithPredicate = %v", got)
	}
	if got := c.Classes(); len(got) != 1 {
		t.Errorf("Classes = %v", got)
	}
}
