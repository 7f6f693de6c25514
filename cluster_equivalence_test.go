package ontario_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/cluster"
	"ontario/internal/lslod"
	"ontario/internal/wrapper"
)

// Distributed execution must be answer-equivalent to single-node
// execution: the coordinator plans exactly as a single node does, but
// scans fan out over hash-partitioned workers and symmetric-hash joins
// run as distributed shuffles over the columnar wire protocol, so the
// multiset of solutions — unbound OPTIONAL columns, typed literals and
// all — must survive partitioning, the dictionary-delta remap, and
// reassembly.

// testCluster is a booted worker pool plus the coordinator-side client:
// tests that only need the query option use .opt; the restart and
// pushdown tests also reach the client (Probe counters) and individual
// workers (Shutdown / restart on the same port).
type testCluster struct {
	t       *testing.T
	n       int
	opt     ontario.Option
	client  *cluster.Client
	addrs   []string
	workers []*cluster.Worker
}

// bootCluster partitions the small LSLOD lake over n in-process workers
// on loopback listeners and returns the pool handle whose opt
// distributes executions over them.
func bootCluster(t *testing.T, n int, cfg cluster.ClientConfig) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, n: n, addrs: make([]string, n), workers: make([]*cluster.Worker, n)}
	for i := 0; i < n; i++ {
		tc.startWorker(i, "127.0.0.1:0")
	}
	client, err := cluster.NewClient(tc.addrs, cfg)
	if err != nil {
		t.Fatalf("cluster client: %v", err)
	}
	t.Cleanup(client.Close)
	opt, ok := bridge.ClusterOption(client).(ontario.Option)
	if !ok {
		t.Fatal("bridge.ClusterOption is not wired")
	}
	tc.client = client
	tc.opt = opt
	return tc
}

// startWorker builds partition i's lake and serves a worker for it on
// addr ("127.0.0.1:0" picks a port; a concrete addr rebinds it, which is
// how restartWorker keeps the pool's addresses stable).
func (tc *testCluster) startWorker(i int, addr string) {
	tc.t.Helper()
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		tc.t.Fatalf("building worker %d lake: %v", i, err)
	}
	if err := cluster.PartitionLake(lk.Lake, i, tc.n); err != nil {
		tc.t.Fatalf("partitioning worker %d: %v", i, err)
	}
	w, err := cluster.NewWorker(lk.Lake, cluster.WorkerConfig{Partition: i, Of: tc.n})
	if err != nil {
		tc.t.Fatalf("worker %d: %v", i, err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		tc.t.Fatalf("worker %d listener on %s: %v", i, addr, err)
	}
	go w.Serve(lis)
	tc.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Shutdown(ctx)
	})
	tc.addrs[i] = lis.Addr().String()
	tc.workers[i] = w
}

// stopWorker shuts worker i down; its port stays recorded so
// restartWorker can bring a fresh process-equivalent worker back up on
// the same address.
func (tc *testCluster) stopWorker(i int) {
	tc.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.workers[i].Shutdown(ctx); err != nil {
		tc.t.Fatalf("worker %d shutdown: %v", i, err)
	}
}

func (tc *testCluster) restartWorker(i int) {
	tc.t.Helper()
	tc.startWorker(i, tc.addrs[i])
}

// TestClusterEquivalenceLSLOD runs the five LSLOD benchmark queries on a
// two-worker cluster under both plan modes and requires the distributed
// multiset to match the single-node columnar run on the same engine —
// including a repeat per cell, so cached plans shared between clustered
// and local executions stay correct.
func TestClusterEquivalenceLSLOD(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 2, cluster.ClientConfig{}).opt

	modes := []struct {
		name string
		opt  ontario.Option
	}{
		{"aware", ontario.WithAwarePlan()},
		{"unaware", ontario.WithUnawarePlan()},
	}
	for _, q := range lslod.Queries() {
		for _, mode := range modes {
			base := []ontario.Option{
				mode.opt,
				ontario.WithNetwork(ontario.NoDelay),
				ontario.WithNetworkScale(0),
				ontario.WithSeed(1),
			}
			label := fmt.Sprintf("%s/%s", q.ID, mode.name)
			_, want := runCanon(t, eng, q.Text, base...)
			if len(want) == 0 {
				t.Fatalf("%s: single-node run returned no solutions", label)
			}
			_, got := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
			diffMultisets(t, label, want, got)
			_, again := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
			diffMultisets(t, label+"/repeat", want, again)
		}
	}
}

// TestClusterEquivalenceShuffleTinyBatches runs the LSLOD queries under
// the unaware plan, whose symmetric hash joins shuffle, with batches of 1
// and 3 rows: the shuffle's per-worker partition builders are then sent
// and refilled on nearly every row, and the distributed multiset must
// still equal the single-node one.
func TestClusterEquivalenceShuffleTinyBatches(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	tc := bootCluster(t, 2, cluster.ClientConfig{})
	base := []ontario.Option{
		ontario.WithUnawarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	shuffled := func() int64 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var n int64
		for _, ws := range tc.client.Probe(ctx) {
			n += ws.ShuffledBatches
		}
		return n
	}
	for _, batch := range []int{1, 3} {
		before := shuffled()
		for _, q := range lslod.Queries() {
			label := fmt.Sprintf("%s/unaware/batch=%d", q.ID, batch)
			_, want := runCanon(t, eng, q.Text, base...)
			if len(want) == 0 {
				t.Fatalf("%s: single-node run returned no solutions", label)
			}
			_, got := runCanon(t, eng, q.Text, append([]ontario.Option{tc.opt, ontario.WithBatchSize(batch)}, base...)...)
			diffMultisets(t, label, want, got)
		}
		if shuffled() == before {
			t.Fatalf("batch=%d: the unaware plans shuffled no batches; the test is not reaching the shuffle", batch)
		}
	}
}

// TestClusterEquivalenceOptional shuffles OPTIONAL-unbound rows across
// the wire: the absent ?drug cells, Unbound in memory and clear bits in
// the wire-only presence bitmap, must survive the worker hop in both
// directions.
func TestClusterEquivalenceOptional(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 2, cluster.ClientConfig{}).opt

	query := fmt.Sprintf(`
SELECT ?disease ?name ?drug WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
  OPTIONAL { ?disease <%s> ?drug }
}`, rdfTypeIRI, lslod.ClassDisease, lslod.PredDiseaseName, lslod.PredPossibleDrug)

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	_, want := runCanon(t, eng, query, base...)
	bound, unbound := 0, 0
	for _, row := range want {
		if strings.Contains(row, "drug=") {
			bound++
		} else {
			unbound++
		}
	}
	if bound == 0 || unbound == 0 {
		t.Fatalf("OPTIONAL coverage needs both bound and unbound ?drug rows, got bound=%d unbound=%d", bound, unbound)
	}
	_, got := runCanon(t, eng, query, append([]ontario.Option{clusterOpt}, base...)...)
	diffMultisets(t, "cluster/optional", want, got)
}

// TestClusterSingleWorkerDegenerate checks the N=1 edge: one worker
// owning the whole lake behind the wire protocol is still
// answer-identical (the scaling experiment's baseline cell).
func TestClusterSingleWorkerDegenerate(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	clusterOpt := bootCluster(t, 1, cluster.ClientConfig{}).opt

	q := lslod.Queries()[0]
	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	_, want := runCanon(t, eng, q.Text, base...)
	_, got := runCanon(t, eng, q.Text, append([]ontario.Option{clusterOpt}, base...)...)
	diffMultisets(t, "cluster/one-worker", want, got)
}

// TestClusterWorkerRestart kills a worker mid-pool and brings a fresh one
// up on the same port: queries against the dead worker must fail cleanly
// (not hang), and after the restart the persistent link must re-dial,
// reset its dictionary-remap state against the worker's new epoch, and
// answer the full LSLOD suite exactly.
func TestClusterWorkerRestart(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	// No retries and no breaker: a dead worker should surface immediately
	// as an error, and the restarted worker should be usable on the very
	// next query rather than after a cooldown.
	tc := bootCluster(t, 2, cluster.ClientConfig{
		Resilience: wrapper.ResilienceConfig{MaxRetries: -1, BreakerThreshold: -1},
	})

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}
	q := lslod.Queries()[0]
	_, want := runCanon(t, eng, q.Text, base...)
	_, got := runCanon(t, eng, q.Text, append([]ontario.Option{tc.opt}, base...)...)
	diffMultisets(t, "restart/before", want, got)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	before := tc.client.Probe(ctx)
	if !before[0].Up || before[0].Info == nil {
		t.Fatalf("worker 0 not up before restart: %+v", before[0])
	}
	epochBefore := before[0].Info.Epoch

	tc.stopWorker(0)
	res, err := eng.Query(context.Background(), q.Text, append([]ontario.Option{tc.opt}, base...)...)
	if err == nil {
		_, err = res.Collect()
		res.Close()
	}
	if err == nil {
		t.Fatal("query with worker 0 down succeeded; want a clean failure")
	}

	tc.restartWorker(0)
	for _, lq := range lslod.Queries() {
		_, want := runCanon(t, eng, lq.Text, base...)
		_, got := runCanon(t, eng, lq.Text, append([]ontario.Option{tc.opt}, base...)...)
		diffMultisets(t, "restart/after/"+lq.ID, want, got)
	}

	after := tc.client.Probe(ctx)
	if !after[0].Up || after[0].Info == nil {
		t.Fatalf("worker 0 not up after restart: %+v", after[0])
	}
	if after[0].Info.Epoch == epochBefore {
		t.Fatalf("worker 0 epoch unchanged across restart: %d", epochBefore)
	}
	if after[0].Reconnects < 1 {
		t.Fatalf("link 0 reconnects = %d after restart, want >= 1", after[0].Reconnects)
	}
}

// TestClusterCoPartitionedPushdown plans, under greedy ordering, a
// subject-subject symmetric-hash join of a scan and a union of two scans,
// all three partitioned by the join variable: the coordinator must push
// the join subtree down to the co-partitioned workers — the executed
// operator is "co-join" and zero batches cross the wire as shuffle
// traffic — while the answer multiset stays identical to the single-node
// run. A subject-object join over the same pool is the control: not
// co-partitioned, so it must shuffle.
func TestClusterCoPartitionedPushdown(t *testing.T) {
	lk := buildEquivLake(t)
	eng := ontario.New(lk.Lake)
	tc := bootCluster(t, 2, cluster.ClientConfig{})

	base := []ontario.Option{
		ontario.WithAwarePlan(),
		ontario.WithOptimizer(ontario.OptimizerGreedy),
		ontario.WithNetwork(ontario.NoDelay),
		ontario.WithNetworkScale(0),
		ontario.WithSeed(1),
	}

	// Every pattern has the subject ?disease, so both sides of the join
	// are partitioned by the join variable; the union keeps the name star
	// and the drug or gene stars apart.
	coQuery := fmt.Sprintf(`SELECT ?disease ?name ?x WHERE {
  ?disease <%s> ?name .
  { ?disease <%s> ?x } UNION { ?disease <%s> ?x }
}`, lslod.PredDiseaseName, lslod.PredPossibleDrug, lslod.PredAssociatedGene)
	_, want := runCanon(t, eng, coQuery, base...)
	if len(want) == 0 {
		t.Fatal("co-partitioned query returned no solutions single-node")
	}
	res, err := eng.Query(context.Background(), coQuery,
		append([]ontario.Option{tc.opt}, base...)...)
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatalf("cluster collect: %v", err)
	}
	// The executed operator kinds: EXPLAIN ANALYZE reports each plan
	// node's actuals under the physical operator that ran it.
	kinds := make([]string, 0, 8)
	coJoin := false
	var walk func(*ontario.PlanSummary)
	walk = func(s *ontario.PlanSummary) {
		if s.Actual != nil {
			kinds = append(kinds, s.Actual.Kind)
			coJoin = coJoin || s.Actual.Kind == "co-join"
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(res.Analyze().Plan)
	res.Close()
	got := make([]string, len(rows))
	for i, b := range rows {
		got[i] = canonRow(b)
	}
	sort.Strings(got)
	diffMultisets(t, "co-partitioned", want, got)
	if !coJoin {
		t.Fatalf("co-partitioned join did not execute as co-join; executed operators: %v", kinds)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, ws := range tc.client.Probe(ctx) {
		if !ws.Up {
			t.Fatalf("worker %s down: %s", ws.Addr, ws.Err)
		}
		if ws.ShuffledBatches != 0 {
			t.Fatalf("worker %s shuffled %d batches; co-partitioned pushdown must shuffle none", ws.Addr, ws.ShuffledBatches)
		}
	}

	// Control: ?drug is the first pattern's object, so the sides are
	// partitioned by different variables and the join must shuffle.
	ctrlQuery := fmt.Sprintf(`SELECT ?disease ?drug ?gname WHERE {
  ?disease <%s> ?drug .
  ?drug <%s> ?gname .
}`, lslod.PredPossibleDrug, lslod.PredGenericName)
	_, wantCtrl := runCanon(t, eng, ctrlQuery, base...)
	if len(wantCtrl) == 0 {
		t.Fatal("control query returned no solutions single-node")
	}
	_, gotCtrl := runCanon(t, eng, ctrlQuery, append([]ontario.Option{tc.opt}, base...)...)
	diffMultisets(t, "control", wantCtrl, gotCtrl)
	var shuffled int64
	for _, ws := range tc.client.Probe(ctx) {
		shuffled += ws.ShuffledBatches
	}
	if shuffled == 0 {
		t.Fatal("subject-object control join shuffled no batches; the shuffle counter is not measuring")
	}
}
