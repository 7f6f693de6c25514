package lslod

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/sparql"
	"ontario/lake"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SmallScale(), 42)
	b := Generate(SmallScale(), 42)
	if len(a.Diseases) != len(b.Diseases) {
		t.Fatal("non-deterministic disease count")
	}
	for i := range a.Diseases {
		if a.Diseases[i].Name != b.Diseases[i].Name || len(a.Diseases[i].Genes) != len(b.Diseases[i].Genes) {
			t.Fatalf("disease %d differs between same-seed runs", i)
		}
	}
	c := Generate(SmallScale(), 43)
	same := true
	for i := range a.Diseases {
		if a.Diseases[i].Name != c.Diseases[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical names")
	}
}

func TestScaleCounts(t *testing.T) {
	s := SmallScale()
	d := Generate(s, 1)
	if len(d.Diseases) != s.Diseases || len(d.Genes) != s.Genes ||
		len(d.Probesets) != s.Probesets || len(d.Drugs) != s.Drugs ||
		len(d.Trials) != s.Trials {
		t.Fatal("entity counts do not match scale")
	}
	links := 0
	for _, dis := range d.Diseases {
		links += len(dis.Genes)
	}
	if links != s.DiseaseGeneLinks {
		t.Errorf("disease-gene links = %d, want %d", links, s.DiseaseGeneLinks)
	}
}

func TestLinksUniqueAndInRange(t *testing.T) {
	d := Generate(SmallScale(), 5)
	for _, dis := range d.Diseases {
		seen := map[int]bool{}
		for _, g := range dis.Genes {
			if g < 1 || g > len(d.Genes) {
				t.Fatalf("gene link %d out of range", g)
			}
			if seen[g] {
				t.Fatalf("duplicate gene link %d for disease %d", g, dis.ID)
			}
			seen[g] = true
		}
	}
	for _, p := range d.Probesets {
		if p.GeneID < 1 || p.GeneID > len(d.Genes) {
			t.Fatalf("probeset gene %d out of range", p.GeneID)
		}
	}
	for _, tr := range d.Trials {
		if tr.DiseaseID < 1 || tr.DiseaseID > len(d.Diseases) {
			t.Fatalf("trial disease %d out of range", tr.DiseaseID)
		}
		if tr.DrugID < 1 || tr.DrugID > len(d.Drugs) {
			t.Fatalf("trial drug %d out of range", tr.DrugID)
		}
	}
}

func TestQ1FilterSelectivity(t *testing.T) {
	// CONTAINS(?name, "itis") must be weakly selective: between 40% and
	// 80% of diseases.
	d := Generate(DefaultScale(), 1)
	n := 0
	for _, dis := range d.Diseases {
		if strings.Contains(dis.Name, "itis") {
			n++
		}
	}
	frac := float64(n) / float64(len(d.Diseases))
	if frac < 0.4 || frac > 0.8 {
		t.Errorf("Q1 filter selectivity = %.2f, want 0.4..0.8", frac)
	}
}

func TestSpeciesSkew(t *testing.T) {
	// Homo sapiens must exceed the 15% threshold so the index is denied.
	d := Generate(DefaultScale(), 1)
	n := 0
	for _, p := range d.Probesets {
		if p.Species == "Homo sapiens" {
			n++
		}
	}
	if frac := float64(n) / float64(len(d.Probesets)); frac <= MaxIndexValueFraction {
		t.Errorf("Homo sapiens fraction = %.2f, must exceed %.2f", frac, MaxIndexValueFraction)
	}
}

func TestBuildLakeIndexRule(t *testing.T) {
	lake, err := BuildLake(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	deniedSet := map[string]bool{}
	for _, d := range lake.DeniedIndexes {
		deniedSet[d] = true
	}
	for _, must := range []string{"probeset.species", "patient.gender", "trial.phase"} {
		if !deniedSet[must] {
			t.Errorf("%s should be denied by the 15%% rule (denied: %v)", must, lake.DeniedIndexes)
		}
	}
	// Indexed columns the queries depend on.
	aff := lake.Catalog.Source(DSAffymetrix)
	if !aff.DB.Table("probeset").HasIndexOn("chromosome") {
		t.Error("probeset.chromosome must be indexed (Q3)")
	}
	dis := lake.Catalog.Source(DSDiseasome)
	if !dis.DB.Table("disease_gene").HasIndexOn("gene_id") {
		t.Error("disease_gene.gene_id must be indexed (Q2, H1)")
	}
	if !dis.DB.Table("disease").HasIndexOn("name") {
		t.Error("disease.name must be indexed (Q1, H2)")
	}
	lct := lake.Catalog.Source(DSLinkedCT)
	if !lct.DB.Table("trial").HasIndexOn("overall_status") {
		t.Error("trial.overall_status must be indexed (Q5)")
	}
	if aff.DB.Table("probeset").HasIndexOn("species") {
		t.Error("probeset.species must NOT be indexed (15 percent rule)")
	}
}

// TestApplyIndexRule: the 15 % rule denies an index on a column whose most
// frequent value covers more than 15 % of the rows, and grants one at
// exactly 15 %.
func TestApplyIndexRule(t *testing.T) {
	if indexDenied(MaxIndexValueFraction) || !indexDenied(0.16) {
		t.Error("the rule's boundary moved off 15 percent")
	}
	b := newRelationalBuilder("x")
	tab := b.table(&rdb.Schema{
		Name: "t",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "skewed", Type: rdb.TypeString},
			{Name: "uniform", Type: rdb.TypeInt},
			{Name: "edge", Type: rdb.TypeInt},
		},
		PrimaryKey: "id",
	})
	for i := 0; i < 100; i++ {
		v := "common"
		if i%5 == 0 {
			v = "rare"
		}
		edge := int64(i)
		if i < 15 {
			edge = -1 // 15 of 100 rows: exactly at the threshold
		}
		b.insert(tab, rdb.Row{rdb.IntValue(int64(i)), rdb.StringValue(v), rdb.IntValue(int64(i)), rdb.IntValue(edge)})
	}
	b.want("t", "skewed", rdb.IndexHash)
	b.want("t", "uniform", rdb.IndexHash)
	b.want("t", "edge", rdb.IndexBTree)
	spec := b.finish("x")
	denied := spec.applyIndexRule()
	if !reflect.DeepEqual(denied, []string{"t.skewed"}) {
		t.Errorf("denied = %v, want [t.skewed]", denied)
	}
	want := []lake.Index{{Column: "uniform", Kind: lake.HashIndex}, {Column: "edge", Kind: lake.BTreeIndex}}
	if got := spec.tables[0].idx; !reflect.DeepEqual(got, want) {
		t.Errorf("indexes = %+v, want %+v", got, want)
	}
}

func TestAllSourcesValidateAndCount(t *testing.T) {
	lake, err := BuildLake(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(lake.Catalog.SourceIDs()); got != 10 {
		t.Fatalf("lake has %d sources, want 10", got)
	}
	for _, ds := range Datasets() {
		src := lake.Catalog.Source(ds)
		if src == nil {
			t.Fatalf("missing source %s", ds)
		}
		if src.Model != catalog.ModelRelational {
			t.Errorf("source %s should be relational", ds)
		}
		if src.DB.TotalRows() == 0 {
			t.Errorf("source %s is empty", ds)
		}
	}
	if got := len(lake.Catalog.Classes()); got != 12 {
		t.Errorf("lake registers %d molecule classes, want 12", got)
	}
}

func TestMixedLake(t *testing.T) {
	lake, err := BuildMixedLake(SmallScale(), 1, []string{DSKEGG})
	if err != nil {
		t.Fatal(err)
	}
	if lake.Catalog.Source(DSKEGG).Model != catalog.ModelRDF {
		t.Error("kegg should be RDF in the mixed lake")
	}
	if lake.Catalog.Source(DSDiseasome).Model != catalog.ModelRelational {
		t.Error("diseasome should stay relational")
	}
	if _, err := BuildMixedLake(SmallScale(), 1, []string{"nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestIndexRuleOnlyForRelationalDatasets: the 15% rule decides the indexes
// of the datasets stored relationally only. With LinkedCT kept as RDF, no
// trial column is listed as denied, while the relational lake still denies
// trial.phase and the mixed lake still applies the rule to the others.
func TestIndexRuleOnlyForRelationalDatasets(t *testing.T) {
	mixed, err := BuildMixedLake(SmallScale(), 1, []string{DSLinkedCT})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mixed.DeniedIndexes {
		if strings.HasPrefix(d, "trial.") {
			t.Errorf("the mixed lake denies %s of the RDF dataset (denied: %v)", d, mixed.DeniedIndexes)
		}
	}
	if !slices.Contains(mixed.DeniedIndexes, "probeset.species") {
		t.Errorf("the mixed lake no longer applies the rule to relational datasets (denied: %v)", mixed.DeniedIndexes)
	}
	rel, err := BuildLake(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rel.DeniedIndexes, "trial.phase") {
		t.Errorf("the relational lake does not deny trial.phase (denied: %v)", rel.DeniedIndexes)
	}
}

func TestGraphFromSourceConsistency(t *testing.T) {
	lake, err := BuildLake(SmallScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	src := lake.Catalog.Source(DSDiseasome)
	g, err := GraphFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every disease yields: rdf:type + name + class + degree, plus one
	// triple per gene link and drug link; every gene: type + 3 props.
	s := lake.Data.Scale
	links := 0
	for _, d := range lake.Data.Diseases {
		links += len(d.Genes) + len(d.Drugs)
	}
	want := s.Diseases*4 + links + s.Genes*4
	if g.Len() != want {
		t.Errorf("diseasome graph has %d triples, want %d", g.Len(), want)
	}
	// Spot check one entity.
	d0 := lake.Data.Diseases[0]
	subj := "http://lake.tib.eu/diseasome/disease/1"
	q := sparql.MustParse(`SELECT ?n WHERE { <` + subj + `> <` + PredDiseaseName + `> ?n . }`)
	sols := sparql.EvalQuery(g, q)
	if len(sols) != 1 || sols[0]["n"].Value != d0.Name {
		t.Errorf("disease 1 name = %v, want %q", sols, d0.Name)
	}
}

func TestQueriesParseAndDecompose(t *testing.T) {
	for _, bq := range Queries() {
		q, err := sparql.Parse(bq.Text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", bq.ID, err)
		}
		if len(q.Patterns) == 0 {
			t.Errorf("%s has no patterns", bq.ID)
		}
		if bq.Intent == "" {
			t.Errorf("%s has no documented intent", bq.ID)
		}
	}
	if MotivatingExample() == nil {
		t.Error("motivating example missing")
	}
	defer func() {
		if recover() == nil {
			t.Error("Query(unknown) should panic")
		}
	}()
	Query("Q99")
}
