package ontario_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ontario"
	"ontario/internal/lslod"
)

func facadeLake(t *testing.T) *lslod.Lake {
	t.Helper()
	lake, err := lslod.BuildLake(lslod.SmallScale(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return lake
}

func TestFacadeQuery(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	res, err := eng.Query(context.Background(), lslod.Queries()[0].Text,
		ontario.WithAwarePlan(), ontario.WithNetworkScale(0))
	if err != nil {
		t.Fatal(err)
	}
	answers, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	if len(res.Vars()) != 3 {
		t.Errorf("variables = %v", res.Vars())
	}
	st := res.Stats()
	if st.Answers != len(answers) {
		t.Errorf("stats report %d answers, collected %d", st.Answers, len(answers))
	}
	if st.Messages == 0 {
		t.Error("no messages recorded")
	}
	if st.Duration <= 0 || st.TimeToFirstAnswer <= 0 {
		t.Error("timings missing")
	}
	if res.Plan() == nil || res.Plan().Operator == "" {
		t.Error("plan summary missing")
	}
}

func TestFacadeModesAgree(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	ctx := context.Background()
	var counts []int
	for _, opts := range [][]ontario.Option{
		{ontario.WithUnawarePlan()},
		{ontario.WithAwarePlan()},
		{ontario.WithAwarePlan(), ontario.WithNaiveTranslation()},
		{ontario.WithHeuristic2(), ontario.WithNetwork(ontario.Gamma3)},
		{ontario.WithAwarePlan(), ontario.WithJoinOperator(ontario.JoinBlockBind)},
		{ontario.WithAwarePlan(), ontario.WithJoinOperator(ontario.JoinBind)},
	} {
		opts = append(opts, ontario.WithNetworkScale(0), ontario.WithSeed(5))
		res, err := eng.Query(ctx, lslod.Queries()[4].Text, opts...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(answers))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("mode %d returned %d answers, mode 0 returned %d", i, counts[i], counts[0])
		}
	}
}

func TestFacadeExplain(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	out, err := eng.Explain(lslod.Queries()[1].Text, ontario.WithAwarePlan())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MergedService") {
		t.Errorf("Q2 aware explain missing merged service:\n%s", out)
	}
	if _, err := eng.Explain("not sparql"); err == nil {
		t.Error("bad query accepted by Explain")
	}
	prep, err := eng.Prepare(lslod.Queries()[1].Text, ontario.WithAwarePlan())
	if err != nil {
		t.Fatal(err)
	}
	sum := prep.Summary()
	if sum.Operator != "merged-service" || sum.Source != lslod.DSDiseasome {
		t.Errorf("plan summary = %+v", sum)
	}
	if sum.Estimate == nil || sum.Estimate.Cardinality <= 0 {
		t.Errorf("cost estimate missing from summary: %+v", sum.Estimate)
	}
}

func TestFacadeErrors(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	ctx := context.Background()
	if _, err := eng.Query(ctx, "SELECT nothing"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := eng.Query(ctx, `SELECT ?s WHERE { ?s <http://unknown/pred> ?o . }`); err == nil {
		t.Error("source-selection error not surfaced")
	}
}

func TestFacadeSimulatedDelayAccounting(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	res, err := eng.Query(context.Background(), lslod.Queries()[2].Text,
		ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma2), ontario.WithNetworkScale(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.SimulatedDelay == 0 {
		t.Error("Gamma2 run recorded no simulated delay")
	}
	if st.Messages == 0 {
		t.Error("no messages")
	}
	if len(st.SourceMessages) == 0 || len(st.SourceDelays) == 0 {
		t.Error("no per-source accounting")
	}
}

// TestFacadeConcurrentQueries drives many simultaneous Query calls with
// mixed configurations over one shared engine; run under -race it is the
// audit that concurrent executions share no mutable state. Every run must
// also report its own (per-execution) message accounting.
func TestFacadeConcurrentQueries(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake, ontario.WithSourceLimit(4))
	ctx := context.Background()

	// Reference counts per query, computed sequentially.
	want := make(map[string]int)
	for _, q := range lslod.Queries() {
		res, err := eng.Query(ctx, q.Text, ontario.WithAwarePlan(), ontario.WithNetworkScale(0))
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want[q.ID] = len(answers)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := lslod.Queries()[i%len(lslod.Queries())]
			opts := []ontario.Option{ontario.WithNetworkScale(0), ontario.WithNetwork(ontario.Gamma1)}
			switch i % 3 {
			case 0:
				opts = append(opts, ontario.WithAwarePlan())
			case 1:
				opts = append(opts, ontario.WithUnawarePlan())
			default:
				opts = append(opts, ontario.WithAwarePlan(),
					ontario.WithJoinOperator(ontario.JoinBlockBind), ontario.WithBindBlockSize(8))
			}
			res, err := eng.Query(ctx, q.Text, opts...)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", q.ID, err)
				return
			}
			answers, err := res.Collect()
			if err != nil {
				errs <- fmt.Errorf("%s: %w", q.ID, err)
				return
			}
			if len(answers) != want[q.ID] {
				errs <- fmt.Errorf("%s: got %d answers, want %d", q.ID, len(answers), want[q.ID])
			}
			if res.Stats().Messages == 0 {
				errs <- fmt.Errorf("%s: no per-execution messages recorded", q.ID)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lim := eng.SourceLimits(); lim != nil {
		for _, src := range lim.Sources() {
			if p := lim.Peak(src); p > lim.Limit() {
				t.Errorf("source %s peak in-flight %d exceeds limit %d", src, p, lim.Limit())
			}
		}
	}
}

// TestFacadeSourceLimitBindJoinSameSource is the deadlock regression for
// the per-source limiter: with a limit of 1 and a bind join whose left and
// right services hit the SAME source, the left request's slot must not be
// held hostage to the consumer's read pace (the bind join blocks on the
// right service before draining the left stream). The query must complete
// with the same answers as the unlimited engine.
func TestFacadeSourceLimitBindJoinSameSource(t *testing.T) {
	lake := facadeLake(t)
	q := lslod.Queries()[1].Text // Q2: two stars over the same source (diseasome)
	opts := []ontario.Option{
		ontario.WithUnawarePlan(), // keep the stars separate so the join runs at the engine
		ontario.WithJoinOperator(ontario.JoinBind),
		ontario.WithNetworkScale(0),
	}

	refRes, err := ontario.New(lake.Lake).Query(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refRes.Collect()
	if err != nil {
		t.Fatal(err)
	}

	eng := ontario.New(lake.Lake, ontario.WithSourceLimit(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := eng.Query(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := res.Collect()
	if err != nil {
		t.Fatalf("limited engine failed (deadlock would surface as deadline exceeded): %v", err)
	}
	if len(answers) != len(ref) {
		t.Errorf("limited engine returned %d answers, want %d", len(answers), len(ref))
	}
}

// TestFacadeCursor checks the streaming cursor: answers must be consumable
// incrementally, and cancelling the context must terminate iteration with
// the context's error without draining the query.
func TestFacadeCursor(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)

	res, err := eng.Query(context.Background(), lslod.Queries()[0].Text,
		ontario.WithAwarePlan(), ontario.WithNetworkScale(0))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for res.Next() {
		if len(res.Binding()) == 0 {
			t.Fatal("empty binding")
		}
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no streamed answers")
	}
	st := res.Stats()
	if st.Messages == 0 || len(st.SourceMessages) == 0 {
		t.Error("no per-source message accounting")
	}

	ctx, cancel := context.WithCancel(context.Background())
	res, err = eng.Query(ctx, lslod.Queries()[2].Text,
		ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma3), ontario.WithNetworkScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatalf("no first answer: %v", res.Err())
	}
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res.Next() {
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cursor still delivering 5s after cancellation")
	}
	if res.Err() != context.Canceled {
		t.Errorf("Err after cancellation = %v, want context.Canceled", res.Err())
	}
}

// TestFacadeCloseEarly checks that closing a cursor mid-iteration tears
// the execution down without reporting an error.
func TestFacadeCloseEarly(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	res, err := eng.Query(context.Background(), lslod.Queries()[2].Text,
		ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma3), ontario.WithNetworkScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatalf("no first answer: %v", res.Err())
	}
	if err := res.Close(); err != nil {
		t.Fatalf("Close returned %v", err)
	}
	if res.Next() {
		t.Error("Next returned true after Close")
	}
	if res.Err() != nil {
		t.Errorf("Err after Close = %v, want nil", res.Err())
	}
}

func TestFacadeBlockBindJoinOptions(t *testing.T) {
	lake := facadeLake(t)
	eng := ontario.New(lake.Lake)
	ctx := context.Background()
	q := lslod.Queries()[2].Text // Q3 has an engine-level join

	collect := func(opts ...ontario.Option) ([]ontario.Binding, *ontario.Results) {
		res, err := eng.Query(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return answers, res
	}
	ref, _ := collect(ontario.WithAwarePlan(), ontario.WithNetworkScale(0))
	seq, seqRes := collect(ontario.WithAwarePlan(), ontario.WithNetworkScale(0),
		ontario.WithJoinOperator(ontario.JoinBind))
	blk, blkRes := collect(ontario.WithAwarePlan(), ontario.WithNetworkScale(0),
		ontario.WithJoinOperator(ontario.JoinBlockBind),
		ontario.WithBindBlockSize(16), ontario.WithBindConcurrency(4))
	if len(blk) != len(ref) || len(seq) != len(ref) {
		t.Fatalf("answer counts differ: ref %d, bind %d, block-bind %d",
			len(ref), len(seq), len(blk))
	}
	if !strings.Contains(blkRes.Plan().String(), "block-bind") {
		t.Errorf("block-bind plan not selected:\n%s", blkRes.Plan())
	}
	if blkRes.Stats().Messages >= seqRes.Stats().Messages {
		t.Errorf("block bind join should use fewer messages: block %d vs sequential %d",
			blkRes.Stats().Messages, seqRes.Stats().Messages)
	}
}

// TestFacadeBlockBindLimitUnordered: the order of a block request's answers
// is unspecified, so a LIMIT without ORDER BY over a block bind join — on
// RDF sources, behind the per-source limiter — owes only its count and that
// every answer belongs to the unlimited result.
func TestFacadeBlockBindLimitUnordered(t *testing.T) {
	rdfLake, err := lslod.BuildMixedLake(lslod.SmallScale(), 11, lslod.Datasets())
	if err != nil {
		t.Fatal(err)
	}
	eng := ontario.New(rdfLake.Lake, ontario.WithSourceLimit(2))
	opts := []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0),
		ontario.WithJoinOperator(ontario.JoinBlockBind), ontario.WithBindBlockSize(8)}
	run := func(q string) []string {
		res, err := eng.Query(context.Background(), q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return canonAnswers(t, answers)
	}
	q := lslod.Queries()[2].Text
	full := map[string]int{}
	for _, a := range run(q) {
		full[a]++
	}
	limited := run(q + " LIMIT 5")
	if len(limited) != 5 {
		t.Fatalf("LIMIT 5 returned %d answers", len(limited))
	}
	for _, a := range limited {
		if full[a]--; full[a] < 0 {
			t.Errorf("limited answer not in the unlimited result: %s", a)
		}
	}
}

// TestResponsesSurvivePlanEviction: responses are remembered by what a
// request asks, not by which plan object asked, so a plan that fell out of
// the prepared-plan cache and was prepared again replays everything its
// predecessor stored — across a mixed lake (rdb and rdf leaves) and a block
// bind join (seeded requests), with no source evaluated on the second run.
func TestResponsesSurvivePlanEviction(t *testing.T) {
	mixed, err := lslod.BuildMixedLake(lslod.SmallScale(), 11, []string{lslod.DSDrugBank, lslod.DSLinkedCT})
	if err != nil {
		t.Fatal(err)
	}
	eng := ontario.New(mixed.Lake)
	opts := []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0),
		ontario.WithJoinOperator(ontario.JoinBlockBind), ontario.WithBindConcurrency(1)}
	run := func(q string) []string {
		res, err := eng.Query(context.Background(), q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return canonAnswers(t, answers)
	}
	for _, bq := range lslod.Queries() {
		first, err := eng.Prepare(bq.Text, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := run(bq.Text)
		if len(want) == 0 {
			t.Fatalf("%s: no answers", bq.ID)
		}
		// Churn the plan cache past its cap: the LRU evicts this plan.
		for i := 0; i < 600; i++ {
			churn := fmt.Sprintf("SELECT ?d WHERE { ?d <http://lake.tib.eu/diseasome/vocab#name> ?n } LIMIT %d", i+1)
			if _, err := eng.Prepare(churn, opts...); err != nil {
				t.Fatal(err)
			}
		}
		again, err := eng.Prepare(bq.Text, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if again == first {
			t.Fatalf("%s: the plan was not evicted, the test proves nothing", bq.ID)
		}
		before := eng.ResponseCacheStats()
		got := run(bq.Text)
		after := eng.ResponseCacheStats()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: the re-prepared plan answers differently", bq.ID)
		}
		if after.Misses != before.Misses {
			t.Errorf("%s: the re-prepared plan evaluated its sources %d times", bq.ID, after.Misses-before.Misses)
		}
		if after.Hits == before.Hits {
			t.Errorf("%s: the re-prepared plan hit no remembered response", bq.ID)
		}
	}
}

// TestWarmReplayBlockBindMissesNothing: the aware plan of Q4 on the small
// relational lake is a block bind join whose left is one leaf (the merged
// Diseasome service). Run twice through one engine, the second run answers
// every request from the response cache — its blocks carry the seeds the
// first run's did — with the same answers and the same messages.
func TestWarmReplayBlockBindMissesNothing(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := ontario.New(lk.Lake)
	run := func() ([]string, int) {
		res, err := eng.Query(context.Background(), lslod.QueryText("Q4"),
			ontario.WithAwarePlan(), ontario.WithNetwork(ontario.Gamma2), ontario.WithNetworkScale(0))
		if err != nil {
			t.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan().String(), "block-bind") {
			t.Fatalf("Q4's aware plan has no block bind join:\n%s", res.Plan())
		}
		return canonAnswers(t, answers), res.Stats().Messages
	}
	want, wantMsgs := run()
	if len(want) == 0 {
		t.Fatal("Q4 answered nothing")
	}
	before := eng.ResponseCacheStats()
	got, msgs := run()
	after := eng.ResponseCacheStats()
	if after.Misses != before.Misses {
		t.Errorf("the replay evaluated its sources %d times", after.Misses-before.Misses)
	}
	if after.Hits == before.Hits {
		t.Error("the replay hit no remembered response")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("the replay answered %d rows, the first run %d", len(got), len(want))
	}
	if msgs != wantMsgs {
		t.Errorf("the replay sent %d messages, the first run %d", msgs, wantMsgs)
	}
}
