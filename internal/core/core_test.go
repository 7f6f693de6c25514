package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// testLake builds one small lake shared by the package tests.
func testLake(t *testing.T) *lslod.Lake {
	t.Helper()
	lake, err := lslod.BuildLake(lslod.SmallScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return lake
}

// referenceGraph materializes the whole lake as one RDF graph for oracle
// evaluation.
func referenceGraph(t *testing.T, lake *lslod.Lake) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	for _, id := range lake.Catalog.SourceIDs() {
		src := lake.Catalog.Source(id)
		sg, err := lslod.GraphFromSource(src)
		if err != nil {
			t.Fatal(err)
		}
		g.AddAll(sg.Triples())
	}
	return g
}

// executePlan runs the plan the way production does — a fresh execution
// of an executor over cat, on the columnar plane — with no real sleeping,
// and decodes the answers. The execution is returned for its accounting.
func executePlan(t *testing.T, cat *catalog.Catalog, plan *Plan) ([]sparql.Binding, *Execution) {
	t.Helper()
	x := NewExecutor(cat).NewExecution(0, 1)
	stream, d, err := x.ExecuteColumnar(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var out []sparql.Binding
	for batch, ok := stream.Recv(nil); ok; batch, ok = stream.Recv(nil) {
		out = append(out, engine.DecodeBatch(batch, d)...)
	}
	stream.Drain()
	if err := x.Err(); err != nil {
		t.Fatal(err)
	}
	return out, x
}

// runWithMessages plans and executes q over cat, returning the answers,
// the simulated messages the execution retrieved, and the plan.
func runWithMessages(t *testing.T, cat *catalog.Catalog, q *sparql.Query, opts Options) ([]sparql.Binding, int, *Plan) {
	t.Helper()
	plan, err := NewPlanner(cat).Plan(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	answers, x := executePlan(t, cat, plan)
	msgs, _ := x.Network()
	total := 0
	for _, n := range msgs {
		total += n
	}
	return answers, total, plan
}

func runQuery(t *testing.T, lake *lslod.Lake, q *sparql.Query, opts Options) []sparql.Binding {
	t.Helper()
	answers, _, _ := runWithMessages(t, lake.Catalog, q, opts)
	return answers
}

func sortedKeys(bs []sparql.Binding, vars []string) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Key(vars)
	}
	sort.Strings(out)
	return out
}

func assertSameBindings(t *testing.T, label string, got, want []sparql.Binding, vars []string) {
	t.Helper()
	g, w := sortedKeys(got, vars), sortedKeys(want, vars)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d answers, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: answer multiset differs at %d:\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// TestQueriesMatchReference is the central correctness test: for every
// benchmark query, every plan mode and every translation mode, the
// federated engine must return exactly the answers that direct SPARQL
// evaluation over the materialized RDF view of the whole lake returns.
func TestQueriesMatchReference(t *testing.T) {
	lake := testLake(t)
	ref := referenceGraph(t, lake)
	for _, bq := range lslod.Queries() {
		q := sparql.MustParse(bq.Text)
		want := sparql.EvalQuery(ref, q)
		vars := q.ProjectedVars()
		if len(want) == 0 {
			t.Fatalf("%s: reference evaluation returned no answers; weak test data", bq.ID)
		}
		configs := []struct {
			name string
			opts Options
		}{
			{"unaware", UnawareOptions(netsim.NoDelay)},
			{"aware", AwareOptions(netsim.NoDelay)},
			{"aware-naive", func() Options {
				o := AwareOptions(netsim.NoDelay)
				o.Translation = wrapper.TranslationNaive
				return o
			}()},
			{"aware-h2", func() Options {
				o := AwareOptions(netsim.Gamma3)
				o.FilterPolicy = FilterHeuristic2
				return o
			}()},
			{"aware-bind", func() Options {
				o := AwareOptions(netsim.NoDelay)
				o.JoinOperator = JoinBind
				return o
			}()},
		}
		for _, cfg := range configs {
			got := runQuery(t, lake, q, cfg.opts)
			assertSameBindings(t, bq.ID+"/"+cfg.name, got, want, vars)
		}
	}
}

// TestMixedLakeMatchesReference runs the queries against a lake where
// Diseasome and DrugBank stay native RDF.
func TestMixedLakeMatchesReference(t *testing.T) {
	relLake := testLake(t)
	ref := referenceGraph(t, relLake)
	mixed, err := lslod.BuildMixedLake(lslod.SmallScale(), 7, []string{lslod.DSDiseasome, lslod.DSDrugBank})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"Q1", "Q2", "Q4", "Q5"} {
		q := lslod.Query(id)
		want := sparql.EvalQuery(ref, q)
		for _, opts := range []Options{UnawareOptions(netsim.NoDelay), AwareOptions(netsim.NoDelay)} {
			got := runQuery(t, mixed, q, opts)
			assertSameBindings(t, "mixed/"+id, got, want, q.ProjectedVars())
		}
	}
}

func TestDecompose(t *testing.T) {
	q := lslod.Query("Q4")
	ssqs := Decompose(q)
	if len(ssqs) != 3 {
		t.Fatalf("Q4 decomposed into %d SSQs, want 3", len(ssqs))
	}
	subjects := []string{ssqs[0].SubjectVar, ssqs[1].SubjectVar, ssqs[2].SubjectVar}
	want := []string{"disease", "gene", "probe"}
	for i := range want {
		if subjects[i] != want[i] {
			t.Errorf("SSQ %d subject = %s, want %s", i, subjects[i], want[i])
		}
	}
	if c, ok := ssqs[0].TypeClass(); !ok || c != lslod.ClassDisease {
		t.Errorf("SSQ 0 class = %s/%v", c, ok)
	}
}

func TestDecomposeConstantSubject(t *testing.T) {
	q := sparql.MustParse(`SELECT ?n WHERE { <http://lake.tib.eu/diseasome/disease/1> <` + lslod.PredDiseaseName + `> ?n . }`)
	ssqs := Decompose(q)
	if len(ssqs) != 1 || ssqs[0].SubjectVar != "" {
		t.Fatalf("constant-subject decomposition broken: %+v", ssqs)
	}
}

func TestSourceSelectionByPredicate(t *testing.T) {
	lake := testLake(t)
	// No rdf:type: the class must be inferred from predicate coverage.
	q := sparql.MustParse(`SELECT ?d ?n WHERE { ?d <` + lslod.PredDiseaseName + `> ?n . ?d <` + lslod.PredDegree + `> ?deg . }`)
	ssqs := Decompose(q)
	cands, err := SelectSources(lake.Catalog, ssqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands[0]) != 1 || cands[0][0].Class != lslod.ClassDisease || cands[0][0].SourceID != lslod.DSDiseasome {
		t.Fatalf("candidates = %+v", cands[0])
	}
}

func TestSourceSelectionNoSource(t *testing.T) {
	lake := testLake(t)
	q := sparql.MustParse(`SELECT ?d WHERE { ?d <http://nowhere/unknownPredicate> ?x . }`)
	ssqs := Decompose(q)
	if _, err := SelectSources(lake.Catalog, ssqs); err == nil {
		t.Fatal("expected source-selection error for unknown predicate")
	}
}

// mergedServices returns the Heuristic-1 merged service nodes in the plan.
func mergedServices(n PlanNode) []*ServiceNode {
	if v, ok := n.(*ServiceNode); ok && v.Merged {
		return []*ServiceNode{v}
	}
	var out []*ServiceNode
	for _, c := range children(n) {
		out = append(out, mergedServices(c)...)
	}
	return out
}

// TestHeuristic1MergesQ2 checks the Q2 plan shape: aware merges the two
// Diseasome stars into one service; unaware keeps two services joined at
// the engine.
func TestHeuristic1MergesQ2(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	q := lslod.Query("Q2")

	aware, err := planner.Plan(q, AwareOptions(netsim.NoDelay))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountServices(aware.Root); n != 1 {
		t.Errorf("aware Q2 has %d services, want 1 (merged):\n%s", n, aware.Explain())
	}
	if len(mergedServices(aware.Root)) != 1 {
		t.Errorf("aware Q2 has no merged service:\n%s", aware.Explain())
	}

	unaware, err := planner.Plan(q, UnawareOptions(netsim.NoDelay))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountServices(unaware.Root); n != 2 {
		t.Errorf("unaware Q2 has %d services, want 2:\n%s", n, unaware.Explain())
	}
	if len(mergedServices(unaware.Root)) != 0 {
		t.Errorf("unaware Q2 merged services:\n%s", unaware.Explain())
	}
}

// TestHeuristic1RequiresIndex: joining on a NON-indexed attribute must not
// merge. Patient gender is denied an index; a query joining patient and
// gene stars via an unindexed path cannot exist directly, so instead probe
// mergeability of two stars sharing only an unindexed variable: species is
// unindexed, but it is not a join column; craft a same-source query joined
// on the probeset signal (unindexed at... signal is btree-indexed). Use
// tcga: patient star and a second patient star joined on gender.
func TestHeuristic1RequiresIndex(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	// Two stars over affymetrix joined on ?species (denied an index by the
	// 15% rule): Heuristic 1 must NOT merge them.
	q := sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <` + rdf.RDFType + `> <` + lslod.ClassProbeset + `> .
		?a <` + lslod.PredSpecies + `> ?species .
		?b <` + rdf.RDFType + `> <` + lslod.ClassProbeset + `> .
		?b <` + lslod.PredSpecies + `> ?species .
		?b <` + lslod.PredProbeChromosome + `> "chr1" .
	}`)
	p, err := planner.Plan(q, AwareOptions(netsim.NoDelay))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountServices(p.Root); n != 2 {
		t.Errorf("join over unindexed attribute was merged (%d services):\n%s", n, p.Explain())
	}
}

// TestHeuristic2FilterPlacement checks filter placement across policies
// for Q3 (indexed attribute).
func TestHeuristic2FilterPlacement(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	q := lslod.Query("Q3")

	pushedCount := func(p *Plan) int {
		total := 0
		var walk func(PlanNode)
		walk = func(n PlanNode) {
			switch v := n.(type) {
			case *ServiceNode:
				total += len(v.Req.Filters)
			case *JoinNode:
				walk(v.L)
				walk(v.R)
			case *FilterNode:
				walk(v.Child)
			case *UnionNode:
				for _, c := range v.Children {
					walk(c)
				}
			}
		}
		walk(p.Root)
		return total
	}

	// Unaware: never pushed.
	p, _ := planner.Plan(q, UnawareOptions(netsim.NoDelay))
	if pushedCount(p) != 0 {
		t.Errorf("unaware pushed filters:\n%s", p.Explain())
	}
	// Aware (source-if-indexed): pushed.
	p, _ = planner.Plan(q, AwareOptions(netsim.NoDelay))
	if pushedCount(p) != 1 {
		t.Errorf("aware did not push Q3's indexed filter:\n%s", p.Explain())
	}
	// Heuristic 2 on a fast network: engine level.
	opts := AwareOptions(netsim.Gamma1)
	opts.FilterPolicy = FilterHeuristic2
	p, _ = planner.Plan(q, opts)
	if pushedCount(p) != 0 {
		t.Errorf("heuristic2 pushed on a fast network:\n%s", p.Explain())
	}
	// Heuristic 2 on a slow network: pushed.
	opts = AwareOptions(netsim.Gamma3)
	opts.FilterPolicy = FilterHeuristic2
	p, _ = planner.Plan(q, opts)
	if pushedCount(p) != 1 {
		t.Errorf("heuristic2 did not push on a slow network:\n%s", p.Explain())
	}
	// Q4's species filter: denied an index, never pushed even when aware.
	p, _ = planner.Plan(lslod.Query("Q4"), AwareOptions(netsim.Gamma3))
	if pushedCount(p) != 0 {
		t.Errorf("aware pushed the unindexed species filter:\n%s", p.Explain())
	}
}

// TestMotivatingExamplePlans reproduces Figure 1's plan shapes for Q4.
func TestMotivatingExamplePlans(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	q := lslod.MotivatingExample()

	aware, _ := planner.Plan(q, AwareOptions(netsim.NoDelay))
	if n := CountServices(aware.Root); n != 2 {
		t.Errorf("aware Q4: %d services, want 2 (diseasome merged + affymetrix):\n%s", n, aware.Explain())
	}
	explain := aware.Explain()
	if !strings.Contains(explain, "MergedService[diseasome]") {
		t.Errorf("aware Q4 did not merge the diseasome stars:\n%s", explain)
	}
	if !strings.Contains(explain, "Filter{") {
		t.Errorf("aware Q4 lost the engine-level species filter:\n%s", explain)
	}

	unaware, _ := planner.Plan(q, UnawareOptions(netsim.NoDelay))
	if n := CountServices(unaware.Root); n != 3 {
		t.Errorf("unaware Q4: %d services, want 3:\n%s", n, unaware.Explain())
	}
}

// TestUnionWhenClassAmbiguous: a star whose predicates exist in two
// molecules must produce a union.
func TestUnionWhenClassAmbiguous(t *testing.T) {
	cat := catalog.New()
	g1, g2 := rdf.NewGraph(), rdf.NewGraph()
	p := "http://x/p"
	g1.Add(rdf.Triple{S: rdf.NewIRI("http://x/a1"), P: rdf.NewIRI(p), O: rdf.NewLiteral("v1")})
	g2.Add(rdf.Triple{S: rdf.NewIRI("http://x/b1"), P: rdf.NewIRI(p), O: rdf.NewLiteral("v2")})
	if err := cat.AddSource(&catalog.Source{ID: "s1", Model: catalog.ModelRDF, Graph: g1}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(&catalog.Source{ID: "s2", Model: catalog.ModelRDF, Graph: g2}); err != nil {
		t.Fatal(err)
	}
	cat.AddMT(&catalog.RDFMT{Class: "http://x/C1", Predicates: []catalog.PredicateDesc{{Predicate: p}}, Sources: []string{"s1"}})
	cat.AddMT(&catalog.RDFMT{Class: "http://x/C2", Predicates: []catalog.PredicateDesc{{Predicate: p}}, Sources: []string{"s2"}})

	q := sparql.MustParse(`SELECT ?s ?v WHERE { ?s <` + p + `> ?v . }`)
	plan, err := NewPlanner(cat).Plan(q, UnawareOptions(netsim.NoDelay))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Root.(*UnionNode); !ok {
		t.Fatalf("expected a union plan, got:\n%s", plan.Explain())
	}
	if got, _ := executePlan(t, cat, plan); len(got) != 2 {
		t.Fatalf("union answered %d, want 2: %v", len(got), got)
	}
}

// TestSolutionModifiers exercises DISTINCT/ORDER BY/LIMIT end to end.
func TestSolutionModifiers(t *testing.T) {
	lake := testLake(t)
	q := sparql.MustParse(`SELECT DISTINCT ?class WHERE {
		?d <` + rdf.RDFType + `> <` + lslod.ClassDisease + `> .
		?d <` + lslod.PredDiseaseClass + `> ?class .
	} ORDER BY ?class LIMIT 5`)
	got := runQuery(t, lake, q, AwareOptions(netsim.NoDelay))
	if len(got) != 5 {
		t.Fatalf("got %d answers, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1]["class"].Value > got[i]["class"].Value {
			t.Fatalf("ORDER BY violated: %v", got)
		}
	}
}

// TestExplainOutput sanity-checks the plan rendering.
func TestExplainOutput(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	p, err := planner.Plan(lslod.Query("Q2"), AwareOptions(netsim.Gamma2))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"physical-design-aware", "MergedService[diseasome]", "pushed-filters"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExecutorAccounting(t *testing.T) {
	lake := testLake(t)
	plan, err := NewPlanner(lake.Catalog).Plan(lslod.Query("Q3"), UnawareOptions(netsim.Gamma2))
	if err != nil {
		t.Fatal(err)
	}
	_, x := executePlan(t, lake.Catalog, plan)
	msgs, delays := x.Network()
	if len(msgs) == 0 || len(delays) != len(msgs) {
		t.Fatalf("network snapshot covers %d sources with messages, %d with delays", len(msgs), len(delays))
	}
	for id, n := range msgs {
		if n == 0 {
			t.Errorf("source %s: no messages accounted", id)
		}
		if delays[id] == 0 {
			t.Errorf("source %s: no simulated delay accounted", id)
		}
	}
}

func TestPlanNodeStringAndPolicyNames(t *testing.T) {
	for _, p := range []FilterPolicy{FilterAtEngine, FilterAtSourceIfIndexed, FilterHeuristic2} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
	for _, j := range []JoinOperator{JoinSymmetricHash, JoinBind, JoinBlockBind} {
		if j.String() == "" {
			t.Error("empty join operator name")
		}
	}
}

func TestUnionNodeVarsAndExplain(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	q := sparql.MustParse(`SELECT ?x ?g WHERE {
		{ ?x <` + lslod.PredPAGene + `> ?g . } UNION { ?x <` + lslod.PredTargetGene + `> ?g . }
	}`)
	p, err := planner.Plan(q, UnawareOptions(netsim.NoDelay))
	if err != nil {
		t.Fatal(err)
	}
	vars := p.Root.Vars()
	if len(vars) != 2 {
		t.Errorf("union root vars = %v", vars)
	}
	if !strings.Contains(p.Explain(), "Union") {
		t.Errorf("explain missing Union:\n%s", p.Explain())
	}
}
