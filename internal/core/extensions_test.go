package core

import (
	"testing"

	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/sparql"
)

// TestDenormalizedLakeMatchesReference: the denormalized Diseasome layout
// must return exactly the answers of the 3NF layout.
func TestDenormalizedLakeMatchesReference(t *testing.T) {
	normal := testLake(t)
	ref := referenceGraph(t, normal)
	den, err := lslod.BuildDenormalizedLake(lslod.SmallScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Q1", "Q2", "Q4"} {
		q := lslod.Query(id)
		want := sparql.EvalQuery(ref, q)
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"unaware", UnawareOptions(netsim.NoDelay)},
			{"aware", AwareOptions(netsim.NoDelay)},
		} {
			got := runQuery(t, den, q, cfg.opts)
			assertSameBindings(t, "denorm/"+id+"/"+cfg.name, got, want, q.ProjectedVars())
		}
	}
}

// TestDenormalizedPlanUsesDistinct: the SQL issued against a denormalized
// mapping must de-duplicate.
func TestDenormalizedPlanUsesDistinct(t *testing.T) {
	den, err := lslod.BuildDenormalizedLake(lslod.SmallScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	src := den.Catalog.Source(lslod.DSDiseasome)
	cm := src.Mapping(lslod.ClassDisease)
	if cm == nil || !cm.Denormalized {
		t.Fatal("diseasome mapping is not denormalized")
	}
	if src.DB.Table("disease_wide") == nil {
		t.Fatal("wide table missing")
	}
	// The wide table must be strictly larger than the number of diseases
	// (denormalization blow-up).
	if src.DB.Table("disease_wide").RowCount() <= len(den.Data.Diseases) {
		t.Error("denormalized table did not blow up row count")
	}
}
