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

// bruteRDFStats counts every (class, predicate) pair's facts and distinct
// subjects and objects with a set per pair, untyped subjects under "".
func bruteRDFStats(g *rdf.Graph) map[[2]string]PredicateStats {
	classOf := map[rdf.Term][]string{}
	for _, t := range g.Triples() {
		if t.P.Value == rdf.RDFType && t.O.IsIRI() {
			classOf[t.S] = append(classOf[t.S], t.O.Value)
		}
	}
	subjects := map[[2]string]map[rdf.Term]bool{}
	objects := map[[2]string]map[rdf.Term]bool{}
	out := map[[2]string]PredicateStats{}
	for _, t := range g.Triples() {
		if t.P.Value == rdf.RDFType {
			continue
		}
		classes := classOf[t.S]
		if len(classes) == 0 {
			classes = []string{""}
		}
		for _, c := range classes {
			k := [2]string{c, t.P.Value}
			if subjects[k] == nil {
				subjects[k], objects[k] = map[rdf.Term]bool{}, map[rdf.Term]bool{}
			}
			subjects[k][t.S], objects[k][t.O] = true, true
			ps := out[k]
			ps.Count++
			ps.DistinctSubjects, ps.DistinctObjects = len(subjects[k]), len(objects[k])
			out[k] = ps
		}
	}
	return out
}

func checkRDFStatsExact(t *testing.T, g *rdf.Graph) {
	t.Helper()
	ss := rdfStats(&catalog.Source{ID: "g", Model: catalog.ModelRDF, Graph: g})
	want := bruteRDFStats(g)
	got := 0
	for class, cs := range ss.Classes {
		for pred, ps := range cs.Predicates {
			got++
			w, ok := want[[2]string{class, pred}]
			if !ok {
				t.Errorf("(%q, %s): unexpected stats %+v", class, pred, ps)
				continue
			}
			if ps.Count != w.Count || ps.DistinctSubjects != w.DistinctSubjects || ps.DistinctObjects != w.DistinctObjects {
				t.Errorf("(%q, %s): count/subjects/objects = %d/%d/%d, want %d/%d/%d", class, pred,
					ps.Count, ps.DistinctSubjects, ps.DistinctObjects, w.Count, w.DistinctSubjects, w.DistinctObjects)
			}
		}
	}
	if got != len(want) {
		t.Errorf("%d (class, predicate) stats, want %d", got, len(want))
	}
}

// TestRDFStatsDistinctCountsExact checks the distinct subject and object
// counts against a set per (class, predicate): on a small graph whose
// subjects carry two classes, one class or none, and on a generated one.
func TestRDFStatsDistinctCountsExact(t *testing.T) {
	iri := rdf.NewIRI
	g := rdf.NewGraph()
	add := func(s, p string, o rdf.Term) { g.Add(rdf.Triple{S: iri(s), P: iri(p), O: o}) }
	add("s1", rdf.RDFType, iri("A"))
	add("s1", rdf.RDFType, iri("B"))
	add("s2", rdf.RDFType, iri("A"))
	add("s2", rdf.RDFType, rdf.NewLiteral("not a class"))
	for _, s := range []string{"s1", "s2", "u1", "u2"} {
		add(s, "p", iri("o1"))
		add(s, "p", rdf.NewLiteral("o1"))
	}
	add("s1", "p", iri("o2"))
	add("s1", "q", iri("s2"))
	add("s1", "q", iri("o1"))
	add("s2", "q", iri("s2"))
	add("u1", "q", iri("s1"))
	checkRDFStatsExact(t, g)

	ss := rdfStats(&catalog.Source{ID: "g", Model: catalog.ModelRDF, Graph: g})
	if p := ss.Class("B").Predicate("p"); p.DistinctSubjects != 1 || p.DistinctObjects != 3 {
		t.Errorf("B.p = %+v, want 1 subject, 3 objects", p)
	}
	if p := ss.Class("").Predicate("p"); p.DistinctSubjects != 2 || p.DistinctObjects != 2 || ss.Class("").Extent != 2 {
		t.Errorf("untyped p = %+v (extent %d), want 2 subjects, 2 objects, extent 2", p, ss.Class("").Extent)
	}

	mixed, err := lslod.BuildMixedLake(lslod.SmallScale(), 7, []string{lslod.DSDrugBank})
	if err != nil {
		t.Fatal(err)
	}
	checkRDFStatsExact(t, mixed.Catalog.Source(lslod.DSDrugBank).Graph)
}
