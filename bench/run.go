package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"ontario/internal/dict"
	"ontario/internal/lslod"
	"ontario/internal/server"
)

// metricDef names one metric of the benchmark; BENCHMARK.json lists the
// same names, units, directions and bounds (bench_test.go holds them equal).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // allowed worsening as a share of the parent's median; 0 for per-layer metrics
}

// endToEnd is what a client of the endpoint sees. No metric is an overall
// median across classes: latency aggregates are geometric means of class
// medians, and the one percentile is taken where ten samples lie beyond it.
//
// The bounds follow the noise measured on the 2-core reference box (README,
// "Measured noise"): ten runs of one commit spread wall-clock metrics by up
// to 13 % in a calm period and 25 % through a host-contention episode, so
// they carry the widest bound the contract allows; counts repeat within 1.3 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"query_ms_geomean", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"ttfa_ms_geomean", "ms", "lower", 0.25},
	{"messages_per_query", "count", "lower", 0.05},
	{"alloc_mb_per_query", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{"lslod.build_ms", "ms", "lower", 0},
	{"lslod.rows", "count", "lower", 0},
	{"lslod.triples", "count", "lower", 0},
	{"stats.prime_ms", "ms", "lower", 0},
	{"sparql.parse_us_per_query", "us", "lower", 0},
	{"core.plan_us_per_query", "us", "lower", 0},
	{"core.services_per_query", "count", "lower", 0},
	{"server.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"core.aware_speedup_geomean", "ratio", "higher", 0},
	{"core.messages_aware", "count", "lower", 0},
	{"core.messages_unaware", "count", "lower", 0},
	{"core.card_error_log10", "log10", "lower", 0},
	{"wrapper.request_ms_per_query", "ms", "lower", 0},
	{"wrapper.requests_per_query", "count", "lower", 0},
	{"wrapper.self_ms_per_query", "ms", "lower", 0},
	{"wrapper.miss_us_per_row", "us", "lower", 0},
	{"wrapper.replay_us_per_row", "us", "lower", 0},
	{"sql.parse_us_per_statement", "us", "lower", 0},
	{"rdb.query_ms_per_query", "ms", "lower", 0},
	{"rdb.statements_per_query", "count", "lower", 0},
	{"rdb.rows_returned_per_query", "count", "lower", 0},
	{"rdf.match_ms_per_query", "ms", "lower", 0},
	{"rdf.solutions_per_query", "count", "lower", 0},
	{"netsim.simulated_ms_per_query", "ms", "lower", 0},
	{"netsim.delay_over_wall", "ratio", "lower", 0},
	{"netsim.oversleep_ratio", "ratio", "lower", 0},
	{"engine.hashjoin_ms_per_query", "ms", "lower", 0},
	{"engine.blockbind_ms_per_query", "ms", "lower", 0},
	{"engine.filter_ms_per_query", "ms", "lower", 0},
	{"engine.project_ms_per_query", "ms", "lower", 0},
	{"engine.blocked_send_ms_per_query", "ms", "lower", 0},
	{"engine.blocked_recv_ms_per_query", "ms", "lower", 0},
	{"engine.batches_per_query", "count", "lower", 0},
	{"engine.rows_per_batch", "count", "higher", 0},
	{"dict.intern_ns_per_term", "ns", "lower", 0},
	{"dict.lookup_ns_per_term", "ns", "lower", 0},
	{"dict.terms", "count", "lower", 0},
	{"ontario.inproc_ms_geomean", "ms", "lower", 0},
	{"ontario.materialize_us_per_answer", "us", "lower", 0},
	{"ontario.json_bytes_per_answer", "B", "lower", 0},
	{"server.http_overhead_ms_geomean", "ms", "lower", 0},
	{"server.peak_executing", "count", "lower", 0},
	{"server.rejected_503", "count", "lower", 0},
	{"cluster.wire_bytes_per_answer", "B", "lower", 0},
	{"cluster.shuffled_batches_per_query", "count", "lower", 0},
	{"cluster.dict_delta_bytes", "B", "lower", 0},
	{"cluster.reconnects", "count", "lower", 0},
	{"cluster.encode_mb_per_s", "MB/s", "higher", 0},
	{"cluster.decode_mb_per_s", "MB/s", "higher", 0},
	{"cluster.vs_single_slowdown", "ratio", "lower", 0},
	{"runtime.cpu_ms_per_query", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.mallocs_per_query", "count", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"runtime.pass_spread_pct", "%", "lower", 0},
	{"runtime.calib_spin_ms", "ms", "lower", 0},
	{"runtime.disturbed", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Env       envStamp               `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the number of observations behind each metric: pooled ops
	// for latencies, passes for throughput, set-ups for setup_s.
	Samples      map[string]int     `json:"samples"`
	Passes       int                `json:"passes"`
	PassQPS      []float64          `json:"pass_qps"`
	ClassMedians map[string]float64 `json:"class_median_ms"`
	ClassCounts  map[string]int     `json:"class_samples"`
	CalibSpinMS  []float64          `json:"calib_spin_ms"`
	Disturbed    bool               `json:"disturbed"`
	Failures     []string           `json:"failures,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
	WallS        float64            `json:"wall_s"`
}

func (r *report) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			r.Samples[name] = n
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// runner carries one run's state through set-up, passes and verification.
type runner struct {
	w       *workload
	sz      sizes
	seed    int64
	warm    []op
	timed   []op
	inst    *instance
	setupsS []float64
	calib   []float64
	samples []sample
	passQPS []float64
	timedS  float64
	d       delta
	rep     *report
}

// setUp builds a cold instance and runs the workload's warm-up through it:
// everything up to the first timed op.
func (r *runner) setUp() error {
	if r.inst != nil {
		r.inst.close()
		r.inst = nil
	}
	start := time.Now()
	in, err := r.w.build(r.sz)
	if err != nil {
		return fmt.Errorf("%s: build: %w", r.w.name, err)
	}
	for _, s := range in.runPass(r.warm, nil).samples {
		if s.err != "" {
			in.close()
			return fmt.Errorf("%s: warm-up op %s: %s", r.w.name, s.class, s.err)
		}
	}
	r.inst = in
	r.setupsS = append(r.setupsS, time.Since(start).Seconds())
	return nil
}

// timedPass runs one untraced pass and books its counters.
func (r *runner) timedPass() error {
	if r.w.fresh {
		if err := r.setUp(); err != nil {
			return err
		}
	}
	before := r.inst.snapshot()
	res := r.inst.runPass(r.timed, nil)
	r.d.add(before, r.inst.snapshot(), len(r.timed))
	r.samples = append(r.samples, res.samples...)
	r.passQPS = append(r.passQPS, float64(len(r.timed))/res.wallS)
	r.timedS += res.wallS
	return nil
}

// passesToPool is the number of passes after which every class of the op
// list has pooled at least n samples.
func passesToPool(ops []op, n int) int {
	perPass := map[string]int{}
	for _, o := range ops {
		perPass[o.class]++
	}
	passes := 1
	for _, c := range perPass {
		passes = max(passes, (n+c-1)/c)
	}
	return passes
}

// maxPasses bounds a run on a machine much faster than the reference box.
const maxPasses = 40

func runWorkload(w *workload, sz sizes, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	started := time.Now()
	r := &runner{w: w, sz: sz, seed: seed}
	r.rep = &report{
		Workload: w.name, Seed: seed, Traced: traced, Env: stampEnv(),
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
		ClassMedians: map[string]float64{}, ClassCounts: map[string]int{},
	}
	r.warm, r.timed = w.ops(sz, seed)
	r.calib = append(r.calib, calibSpinMS())
	defer func() {
		if r.inst != nil {
			r.inst.close()
		}
	}()

	if !w.fresh {
		n := sz.setups
		if traced {
			n = 1
		}
		for i := 0; i < n; i++ {
			if err := r.setUp(); err != nil {
				return nil, err
			}
		}
	}
	r.calib = append(r.calib, calibSpinMS())
	minPasses := sz.minPasses
	if !traced { // a traced run's untraced passes only anchor trace.overhead_pct
		minPasses = max(minPasses, passesToPool(r.timed, sz.classPool))
	}
	for p := 0; p < maxPasses; p++ {
		if p >= minPasses && (traced || r.timedS >= seconds) {
			break
		}
		if err := r.timedPass(); err != nil {
			return nil, err
		}
	}
	r.calib = append(r.calib, calibSpinMS())

	var err error
	if traced {
		err = r.tracedRun(outDir)
	} else {
		r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	r.verify()
	r.rep.Passes, r.rep.PassQPS = len(r.passQPS), r.passQPS
	classes, meds, counts := classMedians(r.samples, latencyMS)
	for i, c := range classes {
		r.rep.ClassMedians[c], r.rep.ClassCounts[c] = meds[i], counts[i]
	}
	r.rep.CalibSpinMS = r.calib
	r.rep.Disturbed = disturbed(r.calib)
	r.rep.WallS = time.Since(started).Seconds()
	return r.rep, nil
}

// disturbed reports a probe more than a quarter slower than the fastest
// probe of the process: the host took CPU away while the workload ran.
func disturbed(probes []float64) bool {
	fastest, slowest := math.Inf(1), 0.0
	for _, p := range probes {
		fastest, slowest = math.Min(fastest, p), math.Max(slowest, p)
	}
	return slowest > 1.25*fastest
}

func (r *runner) endToEnd() {
	rep, n := r.rep, len(r.samples)
	rep.set(endToEnd, "setup_s", median(r.setupsS), len(r.setupsS))
	rep.set(endToEnd, "throughput_qps", median(r.passQPS), len(r.passQPS))
	rep.set(endToEnd, "query_ms_geomean", classGeomean(r.samples, latencyMS), n)
	rep.set(endToEnd, "ttfa_ms_geomean", classGeomean(r.samples, ttfaMS), n)
	var lat []float64
	// Transferred intermediate results: the simulated source messages the
	// answering process retrieved, plus, under cluster execution, the batches
	// crossing its worker links (there the sources sit behind the workers and
	// the coordinator's own count reads 0).
	messages := int(r.d.linkFrames)
	for _, s := range r.samples {
		if s.err == "" {
			lat = append(lat, s.ms)
			messages += s.messages
		}
	}
	rep.set(endToEnd, "query_p90_ms", quantile(lat, 0.9), len(lat))
	rep.set(endToEnd, "messages_per_query", float64(messages)/float64(max(len(lat), 1)), len(lat))
	rep.set(endToEnd, "alloc_mb_per_query", float64(r.d.allocBytes)/(1<<20)/float64(r.d.ops), r.d.ops)
	rep.set(endToEnd, "peak_rss_mb", peakRSSMB(), 1)
}

// verify counts failures: ops that failed in a timed pass, ops whose answer
// count differs from the oracle-verified count, and oracle mismatches. It
// runs after the timed window, on the last instance.
func (r *runner) verify() {
	var check []op
	seen := map[string]bool{}
	for i, o := range r.timed {
		if r.w.fresh && i%r.sz.oracleEvery != 0 {
			continue
		}
		if !seen[o.key()] {
			seen[o.key()] = true
			check = append(check, o)
		}
	}
	want, failures := r.inst.verify(check)
	rep := r.rep
	rep.Attempted = len(r.samples) + len(check)
	rep.Failed = len(failures)
	rep.Failures = failures
	for _, s := range r.samples {
		o := r.timed[s.op]
		n, verified := want[o.key()]
		switch {
		case s.err != "":
			rep.Failed++
			rep.Failures = append(rep.Failures, o.class+": "+s.err)
		case verified && s.answers != n:
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %d answers in a timed pass, oracle %d", o.class, s.answers, n))
		}
	}
	if len(rep.Failures) > 20 {
		rep.Failures = rep.Failures[:20]
	}
	rep.Correct = rep.Failed == 0
}

// tracedRun follows the untraced passes with one traced pass, one
// in-process pass and the direct layer calls, and fills every per-layer
// metric. Fresh workloads set up a cold instance for each.
func (r *runner) tracedRun(outDir string) error {
	for _, d := range perLayer { // a metric that does not apply to the workload reads 0
		r.layer(d.name, 0, 0)
	}
	rec := newRecorder()
	httpSamples := r.samples // the untraced passes: the HTTP side of every comparison below
	for _, phase := range []func(*recorder, []sample) error{r.tracedPass, r.inprocPass, r.directCalls} {
		if err := phase(rec, httpSamples); err != nil {
			return err
		}
	}
	r.calib = append(r.calib, calibSpinMS())
	r.layer("runtime.pass_spread_pct", 100*spread(r.passQPS), len(r.passQPS))
	r.layer("runtime.calib_spin_ms", median(r.calib), len(r.calib))
	if disturbed(r.calib) {
		r.layer("runtime.disturbed", 1, len(r.calib))
	}
	r.layer("trace.spans", float64(rec.count()), 1)
	r.rep.TraceFile = filepath.Join(outDir, "trace-"+r.w.name+".json")
	return rec.write(r.rep.TraceFile, r.w.name, r.seed)
}

// layer sets one per-layer metric of the report.
func (r *runner) layer(name string, v float64, n int) { r.rep.set(perLayer, name, v, n) }

// per divides a total by a count, reading 0 for an empty count.
func per(total float64, n int) float64 { return total / float64(max(n, 1)) }

// tracedPass clocks client.op -> server.http spans and folds the engine's
// operator actuals out of each reply's EXPLAIN ANALYZE member.
func (r *runner) tracedPass(rec *recorder, httpSamples []sample) error {
	w, sz := r.w, r.sz
	untracedQPS := median(r.passQPS)
	if w.fresh {
		if err := r.setUp(); err != nil {
			return err
		}
	}
	before := r.inst.snapshot()
	tp := r.inst.runPass(r.timed, rec)
	after := r.inst.snapshot()
	var td delta
	td.add(before, after, len(r.timed))
	starts := rec.starts("server.http")
	agg := newAnalysisAgg()
	ops := 0
	var msgAware, msgUnaware, nAware, nUnaware int
	for i, s := range tp.samples {
		if s.err != "" {
			return fmt.Errorf("%s: traced op %s: %s", w.name, s.class, s.err)
		}
		ex := tp.extras[i]
		if err := agg.fold(ex.analysis, rec, ex.serverSpan, starts[ex.serverSpan], queryID(r.timed[i], i)); err != nil {
			return err
		}
		ops++
		if r.timed[i].mode == "unaware" {
			msgUnaware, nUnaware = msgUnaware+s.messages, nUnaware+1
		} else {
			msgAware, nAware = msgAware+s.messages, nAware+1
		}
	}
	r.samples = append(r.samples, tp.samples...) // the oracle checks the traced pass's answers too
	tracedQPS := float64(len(r.timed)) / tp.wallS
	r.layer("trace.overhead_pct", 100*(untracedQPS-tracedQPS)/untracedQPS, len(r.passQPS))
	tot := agg.total()
	r.layer("engine.hashjoin_ms_per_query", per(agg.kind("hash-join").wallMS, ops), ops)
	r.layer("engine.blockbind_ms_per_query", per(agg.kind("block-bind-join").wallMS, ops), ops)
	r.layer("engine.filter_ms_per_query", per(agg.kind("filter").wallMS, ops), ops)
	r.layer("engine.project_ms_per_query", per(agg.kind("project").wallMS, ops), ops)
	r.layer("engine.blocked_send_ms_per_query", per(tot.sendMS, ops), ops)
	r.layer("engine.blocked_recv_ms_per_query", per(tot.recvMS, ops), ops)
	r.layer("engine.batches_per_query", per(float64(tot.batches), ops), ops)
	r.layer("engine.rows_per_batch", per(float64(tot.rows), int(tot.batches)), int(tot.batches))
	r.layer("core.card_error_log10", per(agg.cardErr, agg.cardN), agg.cardN)
	r.layer("core.messages_aware", per(float64(msgAware), nAware), nAware)
	r.layer("core.messages_unaware", per(float64(msgUnaware), nUnaware), nUnaware)
	r.layer("wrapper.requests_per_query", per(float64(agg.requests), ops), ops)
	r.layer("runtime.cpu_ms_per_query", per(td.cpuS*1e3, ops), ops)
	r.layer("runtime.mallocs_per_query", per(float64(td.mallocs), ops), ops)
	if td.cpuS > 0 {
		r.layer("runtime.gc_cpu_share", td.gcS/td.cpuS, ops)
	}
	r.layer("server.plan_cache_hit_ratio", r.d.hitRatio(), r.d.ops)
	r.layer("server.peak_executing", float64(r.inst.srv.Stats().PeakExecuting), 1)
	r.layer("server.rejected_503", float64(r.inst.srv.Metrics().Counter(server.MetricRejected)), 1)
	if nUnaware > 0 { // grid cells pair up as <query>-aware / <query>-unaware
		classes, meds, _ := classMedians(httpSamples, latencyMS)
		byClass := map[string]float64{}
		for i, c := range classes {
			byClass[c] = meds[i]
		}
		var ratios []float64
		for _, q := range lslod.Queries() {
			if a, u := byClass[q.ID+"-aware"], byClass[q.ID+"-unaware"]; a > 0 && u > 0 {
				ratios = append(ratios, u/a)
			}
		}
		r.layer("core.aware_speedup_geomean", geomean(ratios, 1e-6), len(ratios))
	}
	if r.inst.pool != nil {
		var wire, batches, deltaB, reconnects int64
		for _, st := range r.inst.pool.Probe(context.Background()) {
			wire += st.BytesIn + st.BytesOut
			batches += st.ShuffledBatches
			deltaB += st.DictDeltaBytes
			reconnects += st.Reconnects
		}
		answers, queries := 0, 0
		for _, s := range r.samples { // the links carried every pass since set-up, warm-up included
			answers, queries = answers+s.answers, queries+1
		}
		r.layer("cluster.wire_bytes_per_answer", per(float64(wire), answers), answers)
		r.layer("cluster.shuffled_batches_per_query", per(float64(batches), queries+len(r.warm)), queries)
		r.layer("cluster.dict_delta_bytes", float64(deltaB), 1)
		r.layer("cluster.reconnects", float64(reconnects), 1)
		// The COST question: the same ops on one process over the same lake.
		single := &instance{lake: r.inst.lake}
		single.serve(sz, nil)
		single.runPass(r.timed, nil) // fills its caches
		sp := single.runPass(r.timed, nil)
		single.close()
		if base := classGeomean(sp.samples, latencyMS); base > 0 {
			r.layer("cluster.vs_single_slowdown", classGeomean(httpSamples, latencyMS)/base, len(sp.samples))
		}
	}
	dictTerms := r.inst.lake.Catalog.Shared("dict", func() any { return dict.New() }).(*dict.Dict).Len()
	r.layer("dict.terms", float64(dictTerms), 1)
	return nil
}

// inprocPass runs the same ops through the engine without HTTP.
func (r *runner) inprocPass(rec *recorder, httpSamples []sample) error {
	w, sz := r.w, r.sz
	if w.fresh {
		if err := r.setUp(); err != nil {
			return err
		}
	}
	inOps := r.timed
	if len(inOps) > sz.inprocOps {
		inOps = inOps[:sz.inprocOps]
	}
	var inSamples []sample
	var jsonBytes, answers int
	var simMS, wallMS, drainMS float64
	for _, ir := range r.inst.runInproc(inOps, rec) {
		if ir.err != "" {
			return fmt.Errorf("%s: in-process op %s: %s", w.name, ir.class, ir.err)
		}
		inSamples = append(inSamples, ir.sample)
		jsonBytes, answers = jsonBytes+ir.jsonBytes, answers+ir.answers
		simMS, wallMS, drainMS = simMS+ir.simulatedMS, wallMS+ir.ms, drainMS+ir.drainMS
	}
	n := len(inSamples)
	r.layer("ontario.inproc_ms_geomean", classGeomean(inSamples, latencyMS), n)
	r.layer("ontario.materialize_us_per_answer", per(drainMS*1e3, answers), answers)
	r.layer("ontario.json_bytes_per_answer", per(float64(jsonBytes), answers), answers)
	r.layer("netsim.simulated_ms_per_query", per(simMS, n), n)
	r.layer("netsim.delay_over_wall", per(simMS, 1)/math.Max(wallMS, 1e-9), n)
	hc, hm, _ := classMedians(httpSamples, latencyMS)
	ic, im, _ := classMedians(inSamples, latencyMS)
	inproc := map[string]float64{}
	for i, c := range ic {
		inproc[c] = im[i]
	}
	var over []float64
	for i, c := range hc {
		if base, ok := inproc[c]; ok {
			over = append(over, hm[i]-base)
		}
	}
	r.layer("server.http_overhead_ms_geomean", geomean(over, 1e-3), len(over))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer("runtime.heap_live_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	return nil
}

// directCalls times calls into each layer on lakes of the probe's own.
func (r *runner) directCalls(rec *recorder, _ []sample) error {
	w, sz := r.w, r.sz
	mixed := w.name != "grid-delay"
	scale := sz.lake
	if !mixed {
		scale = sz.grid
	}
	delayed := r.timed[0].network != ""
	p, err := probeLayers(func() (*lslod.Lake, error) { return buildLake(scale, mixed) },
		pickProbeOps(r.timed, sz.probeOps), sz, delayed, rec)
	if err != nil {
		return err
	}
	r.layer("lslod.build_ms", p.buildMS, 1)
	r.layer("lslod.rows", float64(p.rows), 1)
	r.layer("lslod.triples", float64(p.triples), 1)
	r.layer("stats.prime_ms", p.primeMS, 1)
	r.layer("sparql.parse_us_per_query", per(p.parseUS, p.queries), p.queries)
	r.layer("core.plan_us_per_query", per(p.planUS, p.queries), p.queries)
	r.layer("core.services_per_query", per(float64(p.services), p.queries), p.queries)
	r.layer("wrapper.request_ms_per_query", per(p.missMS, p.queries), p.requests)
	r.layer("wrapper.self_ms_per_query", per(math.Max(p.sqlMissMS-p.rdbMS, 0), p.queries), p.requests)
	r.layer("wrapper.miss_us_per_row", per(p.missMS*1e3, p.missRows), p.missRows)
	r.layer("wrapper.replay_us_per_row", per(p.replayMS*1e3, p.missRows), p.missRows)
	r.layer("sql.parse_us_per_statement", per(p.sqlParseUS, p.sqlStatements), p.sqlStatements)
	r.layer("rdb.query_ms_per_query", per(p.rdbMS, p.queries), p.sqlStatements)
	r.layer("rdb.statements_per_query", per(float64(p.sqlStatements), p.queries), p.queries)
	r.layer("rdb.rows_returned_per_query", per(float64(p.rdbRows), p.queries), p.sqlStatements)
	r.layer("rdf.match_ms_per_query", per(p.rdfMS, p.queries), p.queries)
	r.layer("rdf.solutions_per_query", per(float64(p.rdfSolutions), p.queries), p.queries)
	r.layer("dict.intern_ns_per_term", p.internNS, 1)
	r.layer("dict.lookup_ns_per_term", p.lookupNS, 1)
	r.layer("cluster.encode_mb_per_s", p.encodeMBs, 1)
	r.layer("cluster.decode_mb_per_s", p.decodeMB, 1)
	r.layer("netsim.oversleep_ratio", p.oversleep, 1)
	return nil
}
