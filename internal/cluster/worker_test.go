package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ontario/internal/bridge"
	"ontario/internal/catalog"
	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/wirefmt"
	"ontario/internal/wrapper"
)

// testWorker is one worker over the whole (1-of-1 partitioned) mixed
// small lake — DrugBank and LinkedCT as RDF graphs beside the relational
// sources, so both rdb and rdf sit behind its response cache — plus the
// catalog the tests plan against.
type testWorker struct {
	w    *Worker
	addr string
	cat  *catalog.Catalog
}

func bootWorker(t *testing.T) *testWorker {
	t.Helper()
	lk, err := lslod.BuildMixedLake(lslod.SmallScale(), 1, []string{lslod.DSDrugBank, lslod.DSLinkedCT})
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionLake(lk.Lake, 0, 1); err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(lk.Lake, WorkerConfig{Partition: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Shutdown(ctx)
	})
	return &testWorker{w: w, addr: lis.Addr().String(), cat: bridge.LakeCatalog(lk.Lake)}
}

// lslodPlans plans the five LSLOD texts against cat.
func lslodPlans(t testing.TB, cat *catalog.Catalog, opts core.Options) []*core.Plan {
	t.Helper()
	var plans []*core.Plan
	for _, bq := range lslod.Queries() {
		q, err := sparql.Parse(bq.Text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPlanner(cat).Plan(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", bq.ID, err)
		}
		plans = append(plans, p)
	}
	return plans
}

// services collects the plan's service leaves.
func services(n core.PlanNode) []*core.ServiceNode {
	switch v := n.(type) {
	case *core.ServiceNode:
		return []*core.ServiceNode{v}
	case *core.JoinNode:
		return append(services(v.L), services(v.R)...)
	case *core.LeftJoinNode:
		return append(services(v.L), services(v.R)...)
	case *core.FilterNode:
		return services(v.Child)
	case *core.UnionNode:
		var out []*core.ServiceNode
		for _, c := range v.Children {
			out = append(out, services(c)...)
		}
		return out
	}
	return nil
}

func testEnv(t *testing.T) core.FragmentEnv {
	return core.FragmentEnv{
		Opts: core.Options{Network: netsim.NoDelay},
		Seed: 1,
		Fail: func(err error) { t.Errorf("fragment failed: %v", err) },
	}
}

// rows drains a result stream into its rows, rendered, in arrival order.
func rows(s *engine.CStream, d *dict.Dict) []string {
	var out []string
	for b, ok := s.Recv(nil); ok; b, ok = s.Recv(nil) {
		for _, sol := range engine.DecodeBatch(b, d) {
			out = append(out, fmt.Sprint(sol))
		}
	}
	return out
}

// TestWorkerReplaysScan: the same one-leaf fragment — unseeded, and a seed
// block cut from its own answers — run twice against one worker returns
// the same rows in the same order, and the second run evaluates no
// source: every request of it is a response-cache hit.
func TestWorkerReplaysScan(t *testing.T) {
	tw := bootWorker(t)
	client, err := NewClient([]string{tw.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := dict.New()
	env := testEnv(t)
	ctx := context.Background()

	run := func(svc *core.ServiceNode, req *wrapper.Request) (*engine.CStream, error) {
		leaf := &core.ServiceNode{SourceID: svc.SourceID, Req: req}
		return client.RunFragment(ctx, leaf, engine.NewSchema(svc.Vars()), d, env)
	}
	scan := func(svc *core.ServiceNode, req *wrapper.Request) []string {
		s, err := run(svc, req)
		if err != nil {
			t.Fatalf("source %s: %v", svc.SourceID, err)
		}
		return rows(s, d)
	}
	models := map[catalog.DataModel]bool{}
	for _, plan := range lslodPlans(t, tw.cat, core.Options{}) {
		for _, svc := range services(plan.Root) {
			models[tw.cat.Source(svc.SourceID).Model] = true
			first := scan(svc, svc.Req)
			if len(first) == 0 {
				t.Fatalf("source %s: no answers", svc.SourceID)
			}
			// A block of the first answers' subjects, as a block bind join
			// would send it.
			s, err := run(svc, svc.Req)
			if err != nil {
				t.Fatal(err)
			}
			subject := svc.Req.Stars[0].SubjectVar
			seeds := engine.Seeds{Vars: []string{subject}}
			for b := range s.Batches() {
				for r := 0; r < b.Len && seeds.Rows < 3; r++ {
					seeds.IDs = append(seeds.IDs, b.Cols[b.Schema.Pos(subject)][r])
					seeds.Rows++
				}
			}
			block := svc.Req.WithSeeds(seeds, true)
			firstBlock := scan(svc, block)
			if len(firstBlock) == 0 {
				t.Fatalf("source %s: seed block of its own subjects has no answers", svc.SourceID)
			}

			before := tw.w.Info()
			if again := scan(svc, svc.Req); !equalStrings(again, first) {
				t.Fatalf("source %s: replayed scan differs:\n%v\nwant\n%v", svc.SourceID, again, first)
			}
			// An equal block built from scratch, not the same value.
			fresh := engine.Seeds{Vars: []string{subject}, IDs: slices.Clone(seeds.IDs), Rows: seeds.Rows}
			if again := scan(svc, svc.Req.WithSeeds(fresh, true)); !equalStrings(again, firstBlock) {
				t.Fatalf("source %s: replayed block differs", svc.SourceID)
			}
			after := tw.w.Info()
			if after.CacheMisses != before.CacheMisses {
				t.Fatalf("source %s: the repeated tasks evaluated the source %d times", svc.SourceID, after.CacheMisses-before.CacheMisses)
			}
			if after.CacheHits-before.CacheHits != 2 {
				t.Fatalf("source %s: %d response-cache hits for two repeated tasks", svc.SourceID, after.CacheHits-before.CacheHits)
			}
		}
	}
	if !models[catalog.ModelRDF] || !models[catalog.ModelRelational] {
		t.Fatalf("the plans reached models %v, want both rdf and relational", models)
	}
	if info := tw.w.Info(); info.Shapes == 0 || info.CacheEntries == 0 {
		t.Fatalf("worker info reports no shapes or entries: %+v", info)
	}
}

// TestWorkerReplaysFrag: a whole plan subtree — joins, engine-level
// filters, leaf scans — shipped as one fragment task twice returns the
// same answers, and the second run's leaves are all replays.
func TestWorkerReplaysFrag(t *testing.T) {
	tw := bootWorker(t)
	client, err := NewClient([]string{tw.addr}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	d := dict.New()
	env := testEnv(t)

	frag := func(root core.PlanNode) []string {
		s, err := client.RunFragment(context.Background(), root, engine.NewSchema(root.Vars()), d, env)
		if err != nil {
			t.Fatal(err)
		}
		out := rows(s, d)
		sort.Strings(out) // a symmetric hash join emits in arrival order
		return out
	}
	filters := 0
	// Unaware plans: single-star leaves, symmetric hash joins and filters at
	// the engine — exactly the fragment subset.
	for i, plan := range lslodPlans(t, tw.cat, core.Options{JoinOperator: core.JoinSymmetricHash}) {
		leaves := len(services(plan.Root))
		if _, ok := plan.Root.(*core.FilterNode); ok {
			filters++
		}
		first := frag(plan.Root)
		if len(first) == 0 {
			t.Fatalf("Q%d: fragment has no answers", i+1)
		}
		before := tw.w.Info()
		if again := frag(plan.Root); !equalStrings(again, first) {
			t.Fatalf("Q%d: replayed fragment differs: %d rows, want %d", i+1, len(again), len(first))
		}
		after := tw.w.Info()
		if after.CacheMisses != before.CacheMisses {
			t.Fatalf("Q%d: the repeated fragment evaluated a source %d times", i+1, after.CacheMisses-before.CacheMisses)
		}
		if int(after.CacheHits-before.CacheHits) != leaves {
			t.Fatalf("Q%d: %d response-cache hits for %d leaves", i+1, after.CacheHits-before.CacheHits, leaves)
		}
	}
	if filters == 0 {
		t.Fatal("no plan carried an engine-level filter into its fragment")
	}
}

// TestRunReleasesStartedChildren: a fragment join whose right leaf names
// a source the worker does not have fails to build after its left leaf's
// scan has started. The error comes back, and once the context is
// cancelled — as the connection handler does when the task returns — the
// left scan, far more batches than its stream buffers, unwinds rather
// than staying blocked on a send nobody will receive.
func TestRunReleasesStartedChildren(t *testing.T) {
	tw := bootWorker(t)
	// The largest scan of the unaware plans.
	var svc *core.ServiceNode
	most := 0
	for _, plan := range lslodPlans(t, tw.cat, core.Options{JoinOperator: core.JoinSymmetricHash}) {
		for _, s := range services(plan.Root) {
			out, err := tw.w.exec.NewExecution(0, 1).Run(context.Background(), s, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(rows(out, tw.w.d)); n > most {
				svc, most = s, n
			}
		}
	}
	if most < 100 {
		t.Fatalf("the largest scan has %d rows, too few to fill a stream's buffer", most)
	}
	root := &core.JoinNode{
		L:        svc,
		R:        &core.ServiceNode{SourceID: "no-such-source", Req: svc.Req},
		JoinVars: svc.Vars()[:1],
		Op:       core.JoinSymmetricHash,
	}
	settle := func() int {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	before := settle()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		s, err := tw.w.exec.NewExecution(0, 1).Run(ctx, root, core.Options{BatchSize: 1})
		cancel()
		if err == nil || !strings.Contains(err.Error(), "no-such-source") {
			t.Fatalf("build %d: stream %v, error %v, want the unknown source's error", i, s, err)
		}
	}
	if after := settle(); after > before {
		t.Fatalf("%d goroutines before, %d after three failed builds: the started left scans leaked", before, after)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// badTaskFrames returns task payloads a worker must reject, built around
// one valid one-leaf fragment.
func badTaskFrames(t testing.TB, svc *core.ServiceNode, env core.FragmentEnv) map[string][]byte {
	t.Helper()
	valid, err := appendFragTask(nil, svc, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	frag := func(node ...byte) []byte { return append(appendEnv([]byte{taskFrag}, env), node...) }
	leaf := func(shape string) []byte {
		buf := wirefmt.AppendString(wirefmt.AppendString([]byte{fragScan}, svc.SourceID), shape)
		return append(buf, seedsNone)
	}
	// A union whose first leaf carries a valid seed section, naming a term
	// no lake holds, and whose second leaf does not decode: the seed must
	// not be interned.
	d := dict.New()
	late := d.Intern(rdf.NewIRI("http://example.org/late-bound-seed"))
	seeds := engine.Seeds{Vars: []string{svc.Req.Stars[0].SubjectVar}, IDs: []dict.ID{late}, Rows: 1}
	lateUnion, err := appendFrag([]byte{fragUnion, 2}, &core.ServiceNode{SourceID: svc.SourceID, Req: svc.Req.WithSeeds(seeds, false)}, d)
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := svc.Req.Shape()
	badTag := shape[:len(shape)-1] + "\x01\x55" // one filter, tag 0x55
	return map[string][]byte{
		"unknown task kind":          {0x7e},
		"empty":                      {},
		"truncated header":           valid[:len(valid)/2],
		"trailing bytes":             append(append([]byte(nil), valid...), 0),
		"truncated shape":            frag(leaf(shape[:len(shape)/2])...),
		"unknown shape version":      frag(leaf("\x09" + shape[1:])...),
		"unknown shape tag":          frag(leaf(badTag)...),
		"unknown seed form":          append(append([]byte(nil), valid[:len(valid)-1]...), 9),
		"seed block over payload":    append(append([]byte(nil), valid[:len(valid)-1]...), seedsBlock, 1, 1, 'x', 0xff, 0xff, 0x03),
		"seeds repeat a var":         append(append([]byte(nil), valid[:len(valid)-1]...), seedsOne, 2, 1, 'x', 1, 'x', 1, seedAbsent, seedAbsent),
		"unknown fragment kind":      frag('z'),
		"frag union of nothing":      frag(fragUnion, 0),
		"seeded leaf, then bad leaf": frag(append(lateUnion, leaf(badTag)...)...),
	}
}

// TestWorkerRejectsBadTaskHeader: a task header that is unknown,
// truncated, or carries shape or seed bytes that do not decode is
// answered with an error frame; nothing of it is remembered, no seed of it
// is interned, and the link keeps serving.
func TestWorkerRejectsBadTaskHeader(t *testing.T) {
	tw := bootWorker(t)
	env := testEnv(t)
	svc := services(lslodPlans(t, tw.cat, core.Options{})[0].Root)[0]

	conn, err := net.Dial("tcp", tw.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	d := dict.New()
	enc, dec := NewEncoder(conn, d), NewDecoder(conn, d)
	schema := engine.NewSchema(svc.Vars())
	dec.SetLookup(func(uint64, byte) *engine.Schema { return schema })
	if f, err := dec.Next(); err != nil || f.Type != frameHello {
		t.Fatalf("handshake: frame %#x, %v", f.Type, err)
	}

	terms := tw.w.Info().Terms
	stream := uint64(0)
	for name, payload := range badTaskFrames(t, svc, env) {
		stream++
		if err := enc.Task(stream, payload); err != nil {
			t.Fatal(err)
		}
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Type != frameError || f.Stream != stream || !strings.Contains(string(f.Payload), "bad task header") {
			t.Fatalf("%s: got frame type %#x on stream %d (%q), want a bad-task-header error", name, f.Type, f.Stream, f.Payload)
		}
	}
	if info := tw.w.Info(); info.CacheEntries != 0 || info.CacheMisses != 0 {
		t.Fatalf("a rejected task reached a source: %+v", info)
	}
	// Only the seed cases carried a shape that decodes; that shape is
	// well-formed and may be remembered, the others never are.
	info := tw.w.Info()
	if info.Shapes > 1 {
		t.Fatalf("%d shapes remembered from rejected headers", info.Shapes)
	}
	if info.Terms != terms {
		t.Fatalf("rejected headers interned %d terms", info.Terms-terms)
	}

	// The link is not wedged: the valid task still answers.
	valid, _ := appendFragTask(nil, svc, nil, env)
	stream++
	if err := enc.Task(stream, valid); err != nil {
		t.Fatal(err)
	}
	answers := 0
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == frameError {
			t.Fatalf("valid task failed: %s", f.Payload)
		}
		if f.Type == frameDone {
			break
		}
		if f.Batch != nil {
			answers += f.Batch.Len
		}
	}
	if answers == 0 {
		t.Fatal("valid task returned nothing")
	}
}

// corpusFrame is a well-formed task frame and, for a fragment, the plan
// node the coordinator encoded into it.
type corpusFrame struct {
	frame []byte
	root  core.PlanNode
}

// taskCorpus builds well-formed task frames from the five LSLOD texts:
// every leaf as an unseeded, a per-answer and a block one-leaf fragment,
// every unaware plan as a fragment, a union of two seeded leaves, and a
// join task.
func taskCorpus(t testing.TB) []corpusFrame {
	t.Helper()
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := bridge.LakeCatalog(lk.Lake)
	env := core.FragmentEnv{Opts: core.Options{Network: netsim.Gamma2, BatchSize: 64}, Scale: 0.5, Seed: -3}
	corpus := []corpusFrame{{frame: []byte{taskHello}}}
	d := dict.New()
	term := func(t rdf.Term) dict.ID { return d.Intern(t) }
	frag := func(root core.PlanNode) {
		b, err := appendFragTask(nil, root, d, env)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, corpusFrame{b, root})
	}
	var seeded []core.PlanNode
	for _, plan := range lslodPlans(t, cat, core.Options{Aware: true, FilterPolicy: core.FilterAtSourceIfIndexed}) {
		for _, svc := range services(plan.Root) {
			vars := []string{svc.Req.Stars[0].SubjectVar, "other"}
			x1, x2, seven := term(rdf.NewIRI("http://lake.tib.eu/x/1")), term(rdf.NewIRI("http://lake.tib.eu/x/2")), term(rdf.IntLiteral(7))
			seed := engine.Seeds{Vars: vars, IDs: []dict.ID{x1, seven}, Rows: 1}
			block := engine.Seeds{Vars: vars, IDs: []dict.ID{x1, seven, x2, dict.Unbound, dict.Unbound, dict.Unbound}, Rows: 3}
			seeded = []core.PlanNode{
				&core.ServiceNode{SourceID: svc.SourceID, Req: svc.Req.WithSeeds(seed, false)},
				&core.ServiceNode{SourceID: svc.SourceID, Req: svc.Req.WithSeeds(block, true)},
			}
			frag(svc)
			frag(seeded[0])
			frag(seeded[1])
		}
	}
	for _, plan := range lslodPlans(t, cat, core.Options{JoinOperator: core.JoinSymmetricHash}) {
		frag(plan.Root)
	}
	frag(&core.UnionNode{Children: seeded})
	join := appendJoinTask(nil, []string{"d"}, []string{"d", "n"}, []string{"d", "g"}, []string{"d", "n", "g"}, env)
	return append(corpus, corpusFrame{frame: join})
}

// children returns a fragment node's inputs.
func children(n core.PlanNode) []core.PlanNode {
	switch v := n.(type) {
	case *core.JoinNode:
		return []core.PlanNode{v.L, v.R}
	case *core.FilterNode:
		return []core.PlanNode{v.Child}
	case *core.UnionNode:
		return v.Children
	}
	return nil
}

// sameVars checks that every decoded node's output schema — derived, since
// no schema crosses the wire — is the coordinator node's, in order.
func sameVars(t *testing.T, got, want core.PlanNode) {
	t.Helper()
	gc, wc := children(got), children(want)
	if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) || !slices.Equal(got.Vars(), want.Vars()) || len(gc) != len(wc) {
		t.Fatalf("decoded %T binds %v, the coordinator's %T binds %v", got, got.Vars(), want, want.Vars())
	}
	for i := range gc {
		sameVars(t, gc[i], wc[i])
	}
}

// TestTaskHeaderRoundTrip: what the coordinator encodes, the worker
// decodes — env, request shapes, filters, seeds, and every node's output
// schema — and a second header naming the same shape resolves to the same
// decoded request.
func TestTaskHeaderRoundTrip(t *testing.T) {
	shapes := wrapper.NewShapeTable()
	d := dict.New()
	kinds := map[byte]int{}
	forms := map[string]int{} // leaves by seed form
	trees := 0                // fragments larger than one leaf
	for _, cf := range taskCorpus(t) {
		tk, err := parseTask(cf.frame, shapes, d)
		if err != nil {
			t.Fatalf("frame %q: %v", cf.frame, err)
		}
		kinds[tk.kind]++
		if tk.kind == taskHello {
			continue
		}
		if tk.env.Network != netsim.Gamma2.Name || tk.env.Batch != 64 || tk.env.Scale != 0.5 || tk.env.Seed != -3 {
			t.Fatalf("env %+v did not survive", tk.env)
		}
		if tk.kind != taskFrag {
			continue
		}
		sameVars(t, tk.root, cf.root)
		if _, ok := cf.root.(*core.ServiceNode); !ok {
			trees++
		}
		again, err := parseTask(cf.frame, shapes, d)
		if err != nil {
			t.Fatal(err)
		}
		againLeaves := services(again.root)
		for i, leaf := range services(tk.root) {
			req, re := leaf.Req, againLeaves[i].Req
			if re.Stars[0] != req.Stars[0] {
				t.Fatal("a known shape was decoded again")
			}
			if re.Block != req.Block || !slices.Equal(re.Seeds.IDs, req.Seeds.IDs) {
				t.Fatal("seed section decoded differently")
			}
			seeds := req.Seeds
			switch {
			case seeds.Rows == 0:
				forms["none"]++
				continue
			case req.Block:
				forms["block"]++
			default:
				forms["per-answer"]++
			}
			bound := func(row int) (n int) {
				for _, id := range seeds.Row(row) {
					if id != dict.Unbound {
						n++
					}
				}
				return n
			}
			if req.Block && (seeds.Rows != 3 || bound(0) != 2 || bound(1) != 1 || bound(2) != 0) {
				t.Fatalf("seed block %+v lost its shape", seeds)
			}
			if other := seeds.Row(0)[1]; len(seeds.Vars) != 2 || seeds.Vars[1] != "other" || d.MustLookup(other) != rdf.IntLiteral(7) {
				t.Fatalf("seed %+v lost a term", seeds)
			}
		}
	}
	if forms["none"] == 0 || forms["per-answer"] == 0 || forms["block"] == 0 || trees != 6 || kinds[taskJoin] != 1 {
		t.Fatalf("corpus kinds %v, leaves by seed form %v, %d fragment trees", kinds, forms, trees)
	}
}

// FuzzTaskHeader feeds arbitrary bytes to the task-frame parser — header,
// request shape, filter expressions, fragment tree, seed section: it must
// reject or decode, never crash, and whatever decodes must be servable
// (canonical shapes, and a schema every node derives).
func FuzzTaskHeader(f *testing.F) {
	for _, cf := range taskCorpus(f) {
		f.Add(cf.frame)
	}
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		f.Fatal(err)
	}
	svc := services(lslodPlans(f, bridge.LakeCatalog(lk.Lake), core.Options{})[0].Root)[0]
	for _, frame := range badTaskFrames(f, svc, core.FragmentEnv{}) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shapes := wrapper.NewShapeTable()
		d := dict.New()
		tk, err := parseTask(data, shapes, d)
		if err != nil {
			var ce errCorrupt
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is not tagged corrupt: %v", err)
			}
			if d.Len() != 0 {
				t.Fatalf("a rejected header interned %d terms", d.Len())
			}
			return
		}
		var check func(n core.PlanNode)
		check = func(n core.PlanNode) {
			_ = n.Vars()
			switch v := n.(type) {
			case *core.ServiceNode:
				if _, err := v.Req.Shape(); err != nil {
					t.Fatalf("decoded request does not serialize: %v", err)
				}
			case *core.FilterNode:
				for _, e := range v.Exprs {
					_ = e.String()
				}
			}
			for _, c := range children(n) {
				check(c)
			}
		}
		if tk.kind == taskFrag {
			check(tk.root)
		}
	})
}
