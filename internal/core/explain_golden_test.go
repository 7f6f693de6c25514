package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ontario/internal/lslod"
	"ontario/internal/netsim"
)

// explainGoldenFile holds the EXPLAIN output of every default plan the
// paper's grid can produce: Q1–Q5 × {aware, unaware, h2} × the four network
// profiles × {mode default, cost, greedy} × {relational lake, small mixed
// lake with DrugBank and LinkedCT as RDF}. Planner refactorings must leave
// it byte-identical, so the aware/unaware plans and the message counts
// they yield do not move.
const explainGoldenFile = "testdata/explain_golden.txt"

// explainGrid renders the grid in a fixed order, one section per plan.
func explainGrid(t *testing.T) string {
	t.Helper()
	relational, err := lslod.BuildLake(lslod.DefaultScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := lslod.BuildMixedLake(lslod.SmallScale(), 1, []string{"drugbank", "linkedct"})
	if err != nil {
		t.Fatal(err)
	}
	lakes := []struct {
		name string
		lake *lslod.Lake
	}{{"relational", relational}, {"small-mixed", mixed}}
	modes := []struct {
		name string
		opts func(netsim.Profile) Options
	}{
		{"aware", AwareOptions},
		{"unaware", UnawareOptions},
		{"h2", func(p netsim.Profile) Options {
			o := AwareOptions(p)
			o.FilterPolicy = FilterHeuristic2
			return o
		}},
	}
	optimizers := []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"cost", func(o *Options) { o.Optimizer = OptimizerCost }},
		{"greedy", func(o *Options) { o.Optimizer = OptimizerGreedy }},
	}

	var b strings.Builder
	for _, l := range lakes {
		planner := NewPlanner(l.lake.Catalog)
		for _, id := range []string{"Q1", "Q2", "Q3", "Q4", "Q5"} {
			q := lslod.Query(id)
			for _, m := range modes {
				for _, prof := range netsim.Profiles() {
					for _, o := range optimizers {
						opts := m.opts(prof)
						o.set(&opts)
						plan, err := planner.Plan(q, opts)
						if err != nil {
							t.Fatalf("%s %s %s %s %s: %v", l.name, id, m.name, prof.Name, o.name, err)
						}
						fmt.Fprintf(&b, "=== %s %s %s %s %s\n%s", l.name, id, m.name, prof.Name, o.name, plan.Explain())
					}
				}
			}
		}
	}
	return b.String()
}

// TestExplainGolden checks every grid plan against the committed EXPLAIN
// output and names the first section that differs.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile(explainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := explainGrid(t)
	if got == string(want) {
		return
	}
	gotSec := strings.Split(got, "=== ")
	wantSec := strings.Split(string(want), "=== ")
	for i := 0; i < len(gotSec) && i < len(wantSec); i++ {
		if gotSec[i] != wantSec[i] {
			t.Fatalf("EXPLAIN differs from %s in section %d\n--- want\n%s--- got\n%s", explainGoldenFile, i, wantSec[i], gotSec[i])
		}
	}
	t.Fatalf("EXPLAIN grid has %d sections, %s has %d", len(gotSec)-1, explainGoldenFile, len(wantSec)-1)
}
