package ontario_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ontario"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// The columnar data plane (dictionary IDs, ColBatch exchange, Unbound
// cells for absent values; presence bitmaps exist on the cluster wire
// only) must return exactly what a naive evaluator returns — the
// reference is sparql.EvalQuery over the whole lake materialized as one
// RDF graph, which shares no code with planner, wrappers or operators —
// for every execution configuration: same solution multisets across batch
// sizes, probe parallelism, and plan modes, with OPTIONAL unbound columns,
// ORDER BY over materialized values, and typed literals decoded from SQL
// wrappers all surviving the ID round-trip.

const rdfTypeIRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

func buildEquivLake(t *testing.T) *lslod.Lake {
	t.Helper()
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatalf("building LSLOD lake: %v", err)
	}
	return lk
}

// referenceGraph materializes every source of the lake into one graph.
func referenceGraph(t *testing.T, lk *lslod.Lake) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	for _, id := range lk.Catalog.SourceIDs() {
		sg, err := lslod.GraphFromSource(lk.Catalog.Source(id))
		if err != nil {
			t.Fatalf("materializing source %s: %v", id, err)
		}
		g.AddAll(sg.Triples())
	}
	return g
}

// canonRow renders a solution canonically: variables sorted, all four
// term fields included, so two bindings collide exactly when they are
// equal.
func canonRow(b ontario.Binding) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		tm := b[v]
		fmt.Fprintf(&sb, "%s=%d\x1f%s\x1f%s\x1f%s\x1e", v, tm.Kind, tm.Value, tm.Datatype, tm.Lang)
	}
	return sb.String()
}

// reference evaluates the query with the naive evaluator over the
// reference graph and returns its solutions, canonically rendered, both in
// evaluation order and as a sorted multiset.
func reference(t *testing.T, g *rdf.Graph, text string) (ordered, multiset []string) {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("parsing reference query: %v", err)
	}
	for _, sol := range sparql.EvalQuery(g, q) {
		b := make(ontario.Binding, len(sol))
		for v, tm := range sol {
			b[v] = ontario.Term{Kind: ontario.TermKind(tm.Kind), Value: tm.Value, Datatype: tm.Datatype, Lang: tm.Lang}
		}
		ordered = append(ordered, canonRow(b))
	}
	multiset = append([]string(nil), ordered...)
	sort.Strings(multiset)
	return ordered, multiset
}

// runResults executes the query, drains it and returns the closed cursor
// (for its stats and plan) with the delivered solutions.
func runResults(t *testing.T, eng *ontario.Engine, text string, opts ...ontario.Option) (*ontario.Results, []ontario.Binding) {
	t.Helper()
	res, err := eng.Query(context.Background(), text, opts...)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return res, rows
}

// runCanon executes the query and returns its solutions both in delivery
// order and as a sorted multiset.
func runCanon(t *testing.T, eng *ontario.Engine, text string, opts ...ontario.Option) (ordered, multiset []string) {
	t.Helper()
	_, rows := runResults(t, eng, text, opts...)
	ordered = make([]string, len(rows))
	for i, b := range rows {
		ordered[i] = canonRow(b)
	}
	multiset = append([]string(nil), ordered...)
	sort.Strings(multiset)
	return ordered, multiset
}

func diffMultisets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: the reference has %d solutions, the engine returned %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: multisets differ at sorted position %d:\n  reference: %q\n  engine:    %q", label, i, want[i], got[i])
		}
	}
}

// diffSequences requires the exact delivery order of the reference.
func diffSequences(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sequence length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: sequences diverge at position %d:\n  reference: %q\n  engine:    %q", label, i, want[i], got[i])
		}
	}
}

// mergesStars reports whether the plan pushes a multi-star join down to
// one relational source (Heuristic 1).
func mergesStars(p *ontario.PlanSummary) bool {
	if p.Operator == "merged-service" {
		return true
	}
	for _, c := range p.Children {
		if mergesStars(c) {
			return true
		}
	}
	return false
}

// TestColumnarEquivalenceLSLOD sweeps the five LSLOD benchmark queries
// across batch size x probe parallelism x plan mode and requires every
// configuration to reproduce the reference multiset. Each cell also runs
// twice on the same engine, so a repeated query — the configuration the
// lake-level response cache memoizes — must return the identical multiset.
//
// The aware-naive mode is the unoptimized multi-star SPARQL-to-SQL
// translation on the plane that ships: same answers, but where the aware
// plan merges stars every intermediate star row still crosses the
// simulated network, so it must retrieve strictly more messages than the
// optimized translation of the same plan.
func TestColumnarEquivalenceLSLOD(t *testing.T) {
	lk := buildEquivLake(t)
	ref := referenceGraph(t, lk)
	eng := ontario.New(lk.Lake)

	modes := []struct {
		name string
		opts []ontario.Option
	}{
		{"aware", []ontario.Option{ontario.WithAwarePlan()}},
		{"unaware", []ontario.Option{ontario.WithUnawarePlan()}},
		{"aware-naive", []ontario.Option{ontario.WithAwarePlan(), ontario.WithNaiveTranslation()}},
	}
	mergedQueries := 0
	for _, q := range lslod.Queries() {
		_, want := reference(t, ref, q.Text)
		if len(want) == 0 {
			t.Fatalf("%s: the reference returned no solutions", q.ID)
		}
		messages := map[string]int{}
		merged := false
		for _, mode := range modes {
			base := append([]ontario.Option{
				ontario.WithNetwork(ontario.NoDelay),
				ontario.WithNetworkScale(0),
				ontario.WithSeed(1),
			}, mode.opts...)
			for _, batch := range []int{1, 16, 64, 256} {
				for _, par := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/batch=%d/par=%d", q.ID, mode.name, batch, par)
					opts := append([]ontario.Option{
						ontario.WithBatchSize(batch),
						ontario.WithProbeParallelism(par),
					}, base...)
					_, got := runCanon(t, eng, q.Text, opts...)
					diffMultisets(t, label, want, got)
					_, again := runCanon(t, eng, q.Text, opts...)
					diffMultisets(t, label+"/repeat", want, again)
				}
			}
			res, _ := runResults(t, eng, q.Text, base...)
			messages[mode.name] = res.Stats().Messages
			merged = merged || (mode.name == "aware" && mergesStars(res.Plan()))
		}
		if merged {
			mergedQueries++
			if messages["aware-naive"] <= messages["aware"] {
				t.Errorf("%s: naive translation retrieved %d messages, optimized %d — every intermediate star row must still cross the network",
					q.ID, messages["aware-naive"], messages["aware"])
			}
		}
	}
	if mergedQueries == 0 {
		t.Fatal("no LSLOD query's aware plan merges stars; the naive-translation message check is not exercised")
	}
}

// TestColumnarEquivalenceOptional exercises OPTIONAL through Unbound
// cells: diseases without a possibleDrug link must come back with the
// ?drug column unbound — absent from the binding — exactly as in the
// reference, and the small scale's sparse drug links guarantee both bound
// and unbound rows exist. The filtered variant puts the condition inside
// the OPTIONAL group, so a failing filter unbinds instead of dropping.
func TestColumnarEquivalenceOptional(t *testing.T) {
	lk := buildEquivLake(t)
	ref := referenceGraph(t, lk)
	eng := ontario.New(lk.Lake)

	optional := map[string]string{
		"optional": fmt.Sprintf(`{ ?disease <%s> ?drug }`, lslod.PredPossibleDrug),
		"optional+filter": fmt.Sprintf(`{ ?disease <%s> ?drug . ?disease <%s> ?degree . FILTER (?degree > 2) }`,
			lslod.PredPossibleDrug, lslod.PredDegree),
	}
	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	for name, group := range optional {
		query := fmt.Sprintf(`
SELECT ?disease ?name ?drug WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
  OPTIONAL %s
}`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseName, group)

		_, want := reference(t, ref, query)
		bound, unbound := 0, 0
		for _, row := range want {
			if strings.Contains(row, "drug=") {
				bound++
			} else {
				unbound++
			}
		}
		if bound == 0 || unbound == 0 {
			t.Fatalf("%s: coverage needs both bound and unbound ?drug rows, got bound=%d unbound=%d", name, bound, unbound)
		}
		for _, batch := range []int{1, 64, 256} {
			for _, par := range []int{1, 4} {
				opts := append([]ontario.Option{
					ontario.WithBatchSize(batch),
					ontario.WithProbeParallelism(par),
				}, base...)
				_, got := runCanon(t, eng, query, opts...)
				diffMultisets(t, fmt.Sprintf("%s/batch=%d/par=%d", name, batch, par), want, got)
			}
		}
	}
}

// TestColumnarEquivalenceOrderBy checks the solution modifiers over
// late-materialized values: sorting happens on terms resolved from
// dictionary IDs, and the sort keys are pairwise distinct, so the engine
// must deliver the exact sequence of the reference, not just the same
// multiset — through ORDER BY + LIMIT, through DISTINCT + ORDER BY +
// OFFSET + LIMIT, and ordered by a variable the query does not select.
func TestColumnarEquivalenceOrderBy(t *testing.T) {
	lk := buildEquivLake(t)
	ref := referenceGraph(t, lk)
	eng := ontario.New(lk.Lake)

	queries := map[string]string{
		"order-limit": fmt.Sprintf(`
SELECT ?disease ?name WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
} ORDER BY ?name LIMIT 40`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseName),
		"distinct-order-offset-limit": fmt.Sprintf(`
SELECT DISTINCT ?class WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?class .
} ORDER BY DESC(?class) OFFSET 1 LIMIT 3`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseClass),
		// ORDER BY precedes the projection (SPARQL 1.1 §18.2.5): the sort
		// key ?disease is not selected, yet it orders the names.
		"order-by-unselected": fmt.Sprintf(`
SELECT ?name WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
} ORDER BY DESC(?disease) LIMIT 5`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseName),
	}
	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	for name, query := range queries {
		wantSeq, _ := reference(t, ref, query)
		if len(wantSeq) == 0 {
			t.Fatalf("%s: the reference returned no solutions", name)
		}
		for _, batch := range []int{1, 64} {
			gotSeq, _ := runCanon(t, eng, query,
				append([]ontario.Option{ontario.WithBatchSize(batch)}, base...)...)
			diffSequences(t, fmt.Sprintf("%s/batch=%d", name, batch), wantSeq, gotSeq)
		}
	}

	// Selecting the sort key as well must not change the order of the
	// names: the unselected key sorts exactly like a selected one.
	unselected := queries["order-by-unselected"]
	_, keyed := runResults(t, eng, strings.Replace(unselected, "SELECT ?name", "SELECT ?disease ?name", 1), base...)
	wantSeq := make([]string, len(keyed))
	for i, b := range keyed {
		wantSeq[i] = canonRow(ontario.Binding{"name": b["name"]})
	}
	gotSeq, _ := runCanon(t, eng, unselected, base...)
	diffSequences(t, "order-by-unselected/keyed", wantSeq, gotSeq)
}

// TestColumnarEquivalenceTypedLiterals pulls typed literals out of the
// relational Diseasome source (gene lengths are integers) and checks the
// SQL wrapper's decoded datatypes survive the dictionary round-trip
// bit-for-bit against the reference.
func TestColumnarEquivalenceTypedLiterals(t *testing.T) {
	lk := buildEquivLake(t)
	ref := referenceGraph(t, lk)
	eng := ontario.New(lk.Lake)

	query := fmt.Sprintf(`
SELECT ?gene ?len WHERE {
  ?gene <%s> <%s> .
  ?gene <%s> ?len .
}`, rdfTypeIRI, lslod.ClassGene, lslod.PredGeneLength)

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	_, want := reference(t, ref, query)
	if len(want) == 0 {
		t.Fatal("no gene length solutions")
	}
	for _, batch := range []int{1, 64} {
		_, rows := runResults(t, eng, query,
			append([]ontario.Option{ontario.WithBatchSize(batch)}, base...)...)
		typed := 0
		got := make([]string, len(rows))
		for i, b := range rows {
			if tm, ok := b["len"]; ok && tm.Kind == ontario.KindLiteral && tm.Datatype != "" {
				typed++
			}
			got[i] = canonRow(b)
		}
		if typed == 0 {
			t.Fatal("expected typed ?len literals from the SQL wrapper")
		}
		sort.Strings(got)
		diffMultisets(t, fmt.Sprintf("typed/batch=%d", batch), want, got)
	}
}
