package stats

import (
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
)

func TestRelationalSourceStats(t *testing.T) {
	lake, err := lslod.BuildLake(lslod.SmallScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvider(lake.Catalog)
	ss := prov.Source(lslod.DSDiseasome)
	if ss == nil {
		t.Fatal("no stats for diseasome")
	}
	if ss.Model != catalog.ModelRelational {
		t.Fatalf("diseasome model = %v", ss.Model)
	}
	cs := ss.Class(lslod.ClassDisease)
	if cs == nil {
		t.Fatal("no class stats for Disease")
	}
	src := lake.Catalog.Source(lslod.DSDiseasome)
	wantExtent := src.DB.Table(src.Mapping(lslod.ClassDisease).Table).RowCount()
	if cs.Extent != wantExtent {
		t.Errorf("Disease extent = %d, want %d", cs.Extent, wantExtent)
	}
	if !cs.SubjectIndexed {
		t.Error("Disease subject (primary key) not reported as indexed")
	}
	name := cs.Predicate(lslod.PredDiseaseName)
	if name == nil {
		t.Fatal("no predicate stats for disease name")
	}
	if name.Count != wantExtent || name.DistinctSubjects != wantExtent {
		t.Errorf("name count/subjects = %d/%d, want %d", name.Count, name.DistinctSubjects, wantExtent)
	}
	if name.DistinctObjects <= 0 || name.DistinctObjects > name.Count {
		t.Errorf("name distinct objects = %d out of range (count %d)", name.DistinctObjects, name.Count)
	}
	// associatedGene lives in a side table: fanout above one, FK-backed.
	gene := cs.Predicate(lslod.PredAssociatedGene)
	if gene == nil {
		t.Fatal("no predicate stats for associatedGene")
	}
	if gene.Count <= gene.DistinctSubjects {
		t.Errorf("associatedGene fanout %d/%d not > 1", gene.Count, gene.DistinctSubjects)
	}
	if gene.Fanout() <= 1 {
		t.Errorf("Fanout() = %v, want > 1", gene.Fanout())
	}
}

func TestRDFSourceStats(t *testing.T) {
	mixed, err := lslod.BuildMixedLake(lslod.SmallScale(), 7, []string{lslod.DSDiseasome})
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvider(mixed.Catalog)
	ss := prov.Source(lslod.DSDiseasome)
	if ss == nil || ss.Model != catalog.ModelRDF {
		t.Fatalf("diseasome not RDF in mixed lake: %+v", ss)
	}
	if ss.Triples == 0 {
		t.Error("no triples counted")
	}
	cs := ss.Class(lslod.ClassDisease)
	if cs == nil || cs.Extent == 0 {
		t.Fatalf("Disease class stats missing or empty: %+v", cs)
	}
	g := mixed.Catalog.Source(lslod.DSDiseasome).Graph
	typeT := rdf.NewIRI(rdf.RDFType)
	classT := rdf.NewIRI(lslod.ClassDisease)
	if want := g.Count(nil, &typeT, &classT); cs.Extent != want {
		t.Errorf("Disease extent = %d, want %d", cs.Extent, want)
	}
	name := cs.Predicate(lslod.PredDiseaseName)
	if name == nil {
		t.Fatal("no predicate stats for disease name")
	}
	if name.DistinctSubjects != cs.Extent {
		t.Errorf("name distinct subjects = %d, want extent %d", name.DistinctSubjects, cs.Extent)
	}
	if !name.Indexed {
		t.Error("RDF predicates must report as indexed")
	}
}

func TestProviderCaches(t *testing.T) {
	lake, err := lslod.BuildLake(lslod.SmallScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvider(lake.Catalog)
	a := prov.Source(lslod.DSDiseasome)
	if b := prov.Source(lslod.DSDiseasome); a != b {
		t.Error("second lookup did not hit the cache")
	}
	if prov.Source("no-such-source") != nil {
		t.Error("unknown source must return nil")
	}
}
