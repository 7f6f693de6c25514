package ontario_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ontario"
)

// diseaseNames is a linear plan: one service over Diseasome, 60 answers on
// the small lake, each one a Gamma 2 latency sample apart when the
// simulation really sleeps.
const diseaseNames = `SELECT ?n WHERE {
  ?d <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lake.tib.eu/diseasome/vocab#Disease> .
  ?d <http://lake.tib.eu/diseasome/vocab#name> ?n .
  FILTER (STRLEN(?n) > 0)
}`

var sleepingSource = []ontario.Option{
	ontario.WithAwarePlan(),
	ontario.WithNetwork(ontario.Gamma2),
	ontario.WithNetworkScale(1),
	ontario.WithSeed(1),
}

// TestLimitEndsQuery: a satisfied LIMIT ends the answer stream for the
// cursor at once — it does not wait for the source to finish — and Close
// then stops the producers, so the goroutines settle back to where they
// were before the query.
func TestLimitEndsQuery(t *testing.T) {
	eng := ontario.New(facadeLake(t).Lake)
	ctx := context.Background()
	run := func(text string) (time.Duration, int) {
		t.Helper()
		start := time.Now()
		res, err := eng.Query(ctx, text, sleepingSource...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), len(answers)
	}
	full, n := run(diseaseNames)
	if n < 20 {
		t.Fatalf("the unlimited run returned %d answers, want a stream long enough to time", n)
	}
	baseline := runtime.NumGoroutine()
	limited, n := run(diseaseNames + " LIMIT 1")
	if n != 1 {
		t.Fatalf("LIMIT 1 returned %d answers", n)
	}
	if limited > full/3 {
		t.Errorf("LIMIT 1 took %v, the unlimited run %v: the limit did not end the query", limited, full)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("%d goroutines after Close, %d before the query", g, baseline)
	}
}

// TestBlockedTimeCountedOnce: a wait is charged once, to the operator that
// receives, so on a linear plan the operators' summed blocked-receive time
// cannot exceed the query's wall time.
func TestBlockedTimeCountedOnce(t *testing.T) {
	eng := ontario.New(facadeLake(t).Lake)
	res, err := eng.Query(context.Background(), diseaseNames, sleepingSource...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	a := res.Analyze()
	var blocked time.Duration
	for _, n := range walkSummaries(a.Plan) {
		if n.Actual == nil {
			t.Fatalf("node %s lacks actuals", n.Operator)
		}
		blocked += n.Actual.BlockedRecv
	}
	for _, m := range a.Modifiers {
		blocked += m.BlockedRecv
	}
	if wall := res.Stats().Duration; blocked > wall {
		t.Errorf("operators blocked %v receiving in a query of %v: a wait was charged more than once", blocked, wall)
	}
}
