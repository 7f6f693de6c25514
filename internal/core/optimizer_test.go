package core

import (
	"fmt"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// TestCostOptimizerMessageParity is the headline property of the cost-based
// optimizer: on every LSLOD benchmark query it sends no more simulated
// network messages than the greedy planner, and strictly fewer on at least
// two, with identical answer multisets.
func TestCostOptimizerMessageParity(t *testing.T) {
	lake := testLake(t)
	strictlyFewer := 0
	for _, bq := range lslod.Queries() {
		q := sparql.MustParse(bq.Text)
		greedyOpts := AwareOptions(netsim.NoDelay)
		greedyOpts.Optimizer = OptimizerGreedy
		costOpts := AwareOptions(netsim.NoDelay)

		wantAnswers, greedyMsgs, _ := runWithMessages(t, lake.Catalog, q, greedyOpts)
		gotAnswers, costMsgs, plan := runWithMessages(t, lake.Catalog, q, costOpts)

		assertSameBindings(t, bq.ID+"/cost-vs-greedy", gotAnswers, wantAnswers, q.ProjectedVars())
		if costMsgs > greedyMsgs {
			t.Errorf("%s: cost optimizer sent MORE messages (%d > %d):\n%s",
				bq.ID, costMsgs, greedyMsgs, plan.Explain())
		}
		if costMsgs < greedyMsgs {
			strictlyFewer++
		}
	}
	if strictlyFewer < 2 {
		t.Errorf("cost optimizer strictly reduced messages on only %d queries, want >= 2", strictlyFewer)
	}
}

// TestCostOptimizerExplainEstimates: cost plans carry estimates in EXPLAIN.
func TestCostOptimizerExplainEstimates(t *testing.T) {
	lake := testLake(t)
	planner := NewPlanner(lake.Catalog)
	p, err := planner.Plan(lslod.Query("Q5"), AwareOptions(netsim.Gamma2))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"optimizer=cost", "{est card=", "msgs=", "cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Join[block-bind]") {
		t.Errorf("Q5 cost plan lost its dependent joins:\n%s", out)
	}
}

const (
	hubReading = "http://hub/Reading"
	hubSensor  = "http://hub/Sensor"
	hubDay     = "http://hub/Day"
	hubPSensor = "http://hub/sensor"
	hubPDay    = "http://hub/day"
	hubPLabel  = "http://hub/label"
	hubPWeek   = "http://hub/weekday"
)

// hubLake builds a three-source hub: a large Reading extent fanning out to
// few sensors and days. After the first dependent join the intermediate
// result is far larger than the remaining satellite extents, so re-scanning
// a satellite (hash join) beats seeding it — the shape that makes per-join
// operator selection produce MIXED operators in one plan.
func hubLake(t *testing.T, readings, sensors, days int) *catalog.Catalog {
	t.Helper()
	g := rdf.NewGraph()
	for i := 1; i <= sensors; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://hub/s/%d", i))
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(hubSensor)})
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI(hubPLabel), O: rdf.NewLiteral(fmt.Sprintf("sensor-%d", i))})
	}
	dayG := rdf.NewGraph()
	for i := 1; i <= days; i++ {
		d := rdf.NewIRI(fmt.Sprintf("http://hub/d/%d", i))
		dayG.Add(rdf.Triple{S: d, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(hubDay)})
		dayG.Add(rdf.Triple{S: d, P: rdf.NewIRI(hubPWeek), O: rdf.NewLiteral(fmt.Sprintf("wd-%d", i%7))})
	}
	readG := rdf.NewGraph()
	for i := 1; i <= readings; i++ {
		r := rdf.NewIRI(fmt.Sprintf("http://hub/r/%d", i))
		readG.Add(rdf.Triple{S: r, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(hubReading)})
		readG.Add(rdf.Triple{S: r, P: rdf.NewIRI(hubPSensor), O: rdf.NewIRI(fmt.Sprintf("http://hub/s/%d", 1+i%sensors))})
		readG.Add(rdf.Triple{S: r, P: rdf.NewIRI(hubPDay), O: rdf.NewIRI(fmt.Sprintf("http://hub/d/%d", 1+i%days))})
	}
	cat := catalog.New()
	for id, graph := range map[string]*rdf.Graph{"sensors": g, "days": dayG, "readings": readG} {
		if err := cat.AddSource(&catalog.Source{ID: id, Model: catalog.ModelRDF, Graph: graph}); err != nil {
			t.Fatal(err)
		}
	}
	cat.AddMT(&catalog.RDFMT{Class: hubReading, Sources: []string{"readings"}, Predicates: []catalog.PredicateDesc{
		{Predicate: rdf.RDFType}, {Predicate: hubPSensor, LinkedClass: hubSensor}, {Predicate: hubPDay, LinkedClass: hubDay},
	}})
	cat.AddMT(&catalog.RDFMT{Class: hubSensor, Sources: []string{"sensors"}, Predicates: []catalog.PredicateDesc{
		{Predicate: rdf.RDFType}, {Predicate: hubPLabel},
	}})
	cat.AddMT(&catalog.RDFMT{Class: hubDay, Sources: []string{"days"}, Predicates: []catalog.PredicateDesc{
		{Predicate: rdf.RDFType}, {Predicate: hubPWeek},
	}})
	return cat
}

// TestCostOptimizerMixedOperators: on the hub shape the cost optimizer must
// combine a dependent join (seeding the big hub from a small satellite)
// with a hash join (re-scanning the other small satellite against the now
// large intermediate result) — and still answer correctly.
func TestCostOptimizerMixedOperators(t *testing.T) {
	cat := hubLake(t, 600, 30, 10)
	q := sparql.MustParse(fmt.Sprintf(`SELECT ?r ?sl ?w WHERE {
		?r <%s> <%s> . ?r <%s> ?s . ?r <%s> ?d .
		?s <%s> <%s> . ?s <%s> ?sl .
		?d <%s> <%s> . ?d <%s> ?w .
	}`, rdf.RDFType, hubReading, hubPSensor, hubPDay,
		rdf.RDFType, hubSensor, hubPLabel,
		rdf.RDFType, hubDay, hubPWeek))

	opts := Options{Network: netsim.NoDelay, Optimizer: OptimizerCost}
	want, hashMsgs, _ := runWithMessages(t, cat, q, Options{Network: netsim.NoDelay})
	got, costMsgs, plan := runWithMessages(t, cat, q, opts)
	assertSameBindings(t, "hub/mixed", got, want, q.ProjectedVars())

	explain := plan.Explain()
	if !strings.Contains(explain, "Join[symmetric-hash]") {
		t.Errorf("mixed plan has no hash join:\n%s", explain)
	}
	if !strings.Contains(explain, "Join[block-bind]") && !strings.Contains(explain, "Join[bind]") {
		t.Errorf("mixed plan has no dependent join:\n%s", explain)
	}
	if costMsgs > hashMsgs {
		t.Errorf("mixed plan sent more messages than all-hash (%d > %d):\n%s", costMsgs, hashMsgs, explain)
	}
}

// TestCostOptimizerManyLeaves drives the cost-greedy fallback above the DP
// limit: a 10-star chain must still plan (one service per star) and answer
// correctly.
func TestCostOptimizerManyLeaves(t *testing.T) {
	const n = 10
	g := rdf.NewGraph()
	cat := catalog.New()
	class := func(i int) string { return fmt.Sprintf("http://chain/C%d", i) }
	pred := func(i int) string { return fmt.Sprintf("http://chain/p%d", i) }
	ent := func(i, k int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://chain/e%d/%d", i, k)) }
	const per = 5
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			g.Add(rdf.Triple{S: ent(i, k), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(class(i))})
			if i+1 < n {
				g.Add(rdf.Triple{S: ent(i, k), P: rdf.NewIRI(pred(i)), O: ent(i+1, k)})
			}
		}
	}
	if err := cat.AddSource(&catalog.Source{ID: "chain", Model: catalog.ModelRDF, Graph: g}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		preds := []catalog.PredicateDesc{{Predicate: rdf.RDFType}}
		if i+1 < n {
			preds = append(preds, catalog.PredicateDesc{Predicate: pred(i), LinkedClass: class(i + 1)})
		}
		cat.AddMT(&catalog.RDFMT{Class: class(i), Sources: []string{"chain"}, Predicates: preds})
	}
	var b strings.Builder
	b.WriteString("SELECT ?x0 WHERE {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "?x%d <%s> <%s> .\n", i, rdf.RDFType, class(i))
		if i+1 < n {
			fmt.Fprintf(&b, "?x%d <%s> ?x%d .\n", i, pred(i), i+1)
		}
	}
	b.WriteString("}")
	q := sparql.MustParse(b.String())

	want, _, _ := runWithMessages(t, cat, q, Options{Network: netsim.NoDelay})
	got, _, plan := runWithMessages(t, cat, q, Options{Network: netsim.NoDelay, Optimizer: OptimizerCost})
	if len(want) != per {
		t.Fatalf("reference chain answered %d, want %d", len(want), per)
	}
	assertSameBindings(t, "chain/cost-greedy", got, want, q.ProjectedVars())
	if n := CountServices(plan.Root); n != 10 {
		t.Errorf("chain plan has %d services, want 10:\n%s", n, plan.Explain())
	}
}
