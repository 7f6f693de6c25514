package lslod

import (
	"fmt"
	"testing"

	"ontario/internal/bridge"
	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/lake"
)

// TestMixedLakeGraphsMatchReference holds every RDF dataset of a mixed
// lake, whose triples are emitted straight from the generated rows, equal
// element by element and in order to GraphFromSource over the same dataset
// stored relationally.
func TestMixedLakeGraphsMatchReference(t *testing.T) {
	for _, sc := range []struct {
		name  string
		scale Scale
	}{{"small", SmallScale()}, {"default", DefaultScale()}} {
		for _, seed := range []int64{1, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				mixed, err := BuildMixedLake(sc.scale, seed, Datasets())
				if err != nil {
					t.Fatal(err)
				}
				rel, err := BuildLake(sc.scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, ds := range Datasets() {
					src := mixed.Catalog.Source(ds)
					if src.Model != catalog.ModelRDF {
						t.Fatalf("%s is %v in the mixed lake, want RDF", ds, src.Model)
					}
					want, err := GraphFromSource(rel.Catalog.Source(ds))
					if err != nil {
						t.Fatal(err)
					}
					assertSameTriples(t, ds, src.Graph.Triples(), want.Triples())
				}
			})
		}
	}
}

func assertSameTriples(t *testing.T, ds string, got, want []rdf.Triple) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d triples, want %d", ds, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s: triple %d = %v, want %v", ds, i, got[i], want[i])
			return
		}
	}
}

// TestGraphFromSourceQuotedKey exports a side-table property of subjects
// keyed by strings, one of which holds a quote: the per-subject SQL must
// quote it, and the emitter must group the side table by the same keys.
func TestGraphFromSourceQuotedKey(t *testing.T) {
	const (
		class = "http://example.org/Person"
		nick  = "http://example.org/nick"
	)
	b := newRelationalBuilder("people")
	person := b.table(&rdb.Schema{
		Name:       "person",
		Columns:    []rdb.Column{{Name: "name", Type: rdb.TypeString, NotNull: true}},
		PrimaryKey: "name",
	})
	nicks := b.table(&rdb.Schema{
		Name:       "nick",
		Columns:    []rdb.Column{pkCol("id"), strCol("person"), strCol("nick")},
		PrimaryKey: "id",
	})
	b.insert(person, rdb.Row{rdb.StringValue("o'brien")}, rdb.Row{rdb.StringValue("smith")})
	b.insert(nicks,
		rdb.Row{rdb.IntValue(1), rdb.StringValue("smith"), rdb.StringValue("smitty")},
		rdb.Row{rdb.IntValue(2), rdb.StringValue("o'brien"), rdb.StringValue("obie")},
	)
	b.mappings[class] = &catalog.ClassMapping{
		Class: class, Table: "person",
		SubjectColumn: "name", SubjectTemplate: "http://example.org/person/{value}",
		Properties: map[string]*catalog.PropertyMapping{
			nick: sideTable(nick, "nick", "person", "nick", "", ""),
		},
	}
	spec := b.finish("people")
	lb := lake.NewBuilder()
	spec.apply(lb)
	l, err := lb.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := GraphFromSource(bridge.LakeCatalog(l).Source("people"))
	if err != nil {
		t.Fatal(err)
	}
	for subj, want := range map[string]string{"o'brien": "obie", "smith": "smitty"} {
		s := rdf.NewIRI("http://example.org/person/" + subj)
		if !g.Contains(rdf.Triple{S: s, P: rdf.NewIRI(nick), O: rdf.NewLiteral(want)}) {
			t.Errorf("no nick %q for %s in %v", want, subj, g.Triples())
		}
	}
	emitted := lake.NewBuilder().AddGraph("people", spec.triples())
	el, err := emitted.Build()
	if err != nil {
		t.Fatal(err)
	}
	assertSameTriples(t, "people", bridge.LakeCatalog(el).Source("people").Graph.Triples(), g.Triples())
}

// BenchmarkBuildMixedLake builds the lake the end-to-end benchmark's
// param-cold, replay-warm and cluster-2w workloads serve: 4 × DefaultScale
// with DrugBank and LinkedCT kept as RDF.
func BenchmarkBuildMixedLake(b *testing.B) {
	scale := timesScale(DefaultScale(), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMixedLake(scale, 1, []string{DSDrugBank, DSLinkedCT}); err != nil {
			b.Fatal(err)
		}
	}
}

func timesScale(s Scale, k int) Scale {
	return Scale{
		Diseases: s.Diseases * k, Genes: s.Genes * k, DiseaseGeneLinks: s.DiseaseGeneLinks * k,
		PossibleDrugLinks: s.PossibleDrugLinks * k, Probesets: s.Probesets * k, Drugs: s.Drugs * k,
		Targets: s.Targets * k, DrugTargetLinks: s.DrugTargetLinks * k, Patients: s.Patients * k,
		PatientGeneLinks: s.PatientGeneLinks * k, Compounds: s.Compounds * k, ChemEntities: s.ChemEntities * k,
		Effects: s.Effects * k, Trials: s.Trials * k, Providers: s.Providers * k,
		ProviderDrugLinks: s.ProviderDrugLinks * k, Associations: s.Associations * k,
	}
}
