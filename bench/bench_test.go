package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(vs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(vs, 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(vs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(vs); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if quantile(nil, 0.5) != 0 || spread(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestClassGeomean(t *testing.T) {
	var ss []sample
	for _, ms := range []float64{1, 2, 300} { // fast class: median 2, one outlier
		ss = append(ss, sample{class: "fast", ms: ms})
	}
	for _, ms := range []float64{7, 8, 9} {
		ss = append(ss, sample{class: "slow", ms: ms})
	}
	ss = append(ss, sample{class: "slow", ms: 1e6, err: "failed ops carry no latency"})
	classes, meds, counts := classMedians(ss, latencyMS)
	if !reflect.DeepEqual(classes, []string{"fast", "slow"}) || !near(meds[0], 2) || !near(meds[1], 8) ||
		!reflect.DeepEqual(counts, []int{3, 3}) {
		t.Fatalf("classMedians = %v %v %v", classes, meds, counts)
	}
	if got := classGeomean(ss, latencyMS); !near(got, 4) {
		t.Errorf("classGeomean = %v, want sqrt(2*8)", got)
	}
	if got := geomean([]float64{0, 4}, 1); !near(got, 2) {
		t.Errorf("geomean floors non-positive values: got %v, want 2", got)
	}
}

func TestPassMedianIgnoresOneDisturbedPass(t *testing.T) {
	if got := median([]float64{100, 101, 40, 99, 102}); !near(got, 100) {
		t.Errorf("median over passes = %v, want 100", got)
	}
	if n := passesToPool([]op{{class: "a"}, {class: "a"}, {class: "b"}}, 10); n != 10 {
		t.Errorf("passesToPool = %d, want 10 (class b has one op per pass)", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.http", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "engine.project", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "engine.service", Start: 30, End: 70}, // overlaps span 3
		{ID: 5, Parent: 2, Name: "engine.filter", Start: 80, End: 120}, // clipped to its parent
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 20, 2: 10, 3: 40, 4: 40, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := layerSelfMS(spans)["server.http"]; !near(got, 10e-6) {
		t.Errorf("layerSelfMS[server.http] = %v ms, want 10 ns", got)
	}
}

func TestKeepTail(t *testing.T) {
	var tail []byte
	for _, chunk := range []string{"abc", "de", "f", "ghijklmnop", "q]}", "}"} {
		tail = keepTail(tail, []byte(chunk), 4)
		if len(tail) > 8 {
			t.Fatalf("tail grew to %d bytes", len(tail))
		}
	}
	if got := string(tail); len(got) < 4 || got[len(got)-4:] != "q]}}" {
		t.Errorf("tail = %q, want it to end in q]}}", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(1.0), "same"},
		{shift(1.05), "same"}, // worse, but within the bound
		{shift(1.2), "REGRESSED"},
		{shift(0.8), "improved"},
	} {
		if got, _, _ := verdict(base, c.change, lower); got != c.want {
			t.Errorf("verdict(x%.2f) = %s, want %s", c.change[0]/base[0], got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got, _, _ := verdict(noisy, shift(1.0), lower); got != "unresolved" {
		t.Errorf("verdict on a base spread wider than the bound = %s, want unresolved", got)
	}
	higher := metricDef{name: "qps", better: "higher", bound: 0.10}
	if got, _, _ := verdict(base, shift(0.8), higher); got != "REGRESSED" {
		t.Errorf("a throughput drop of 20%% = %s, want REGRESSED", got)
	}
}

func TestOpGeneratorIsDeterministicPerSeed(t *testing.T) {
	for _, sz := range []sizes{smokeSizes(), fullSizes()} {
		for _, w := range workloads {
			warm1, timed1 := w.ops(sz, 7)
			warm2, timed2 := w.ops(sz, 7)
			if !reflect.DeepEqual(warm1, warm2) || !reflect.DeepEqual(timed1, timed2) {
				t.Errorf("%s: the same seed gave different ops", w.name)
			}
			_, timed3 := w.ops(sz, 8)
			if len(timed3) != len(timed1) {
				t.Errorf("%s: op count depends on the seed: %d vs %d", w.name, len(timed1), len(timed3))
			}
			if len(timed1) > 5 && reflect.DeepEqual(timed1, timed3) {
				t.Errorf("%s: seeds 7 and 8 gave the same op order", w.name)
			}
			if w.fresh { // no two ops of a cold pass may share a plan-cache key
				seen := map[string]bool{}
				for _, o := range append(warm1, timed1...) {
					if seen[o.key()] {
						t.Errorf("%s: op text repeats within a pass: %s", w.name, o.class)
					}
					seen[o.key()] = true
				}
			}
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func TestManifestMatchesTheHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound mismatch (harness %v)", kind, g.Name, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" {
		t.Error("setup_s must lead the end-to-end metrics")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a wider bound than setup_s", d.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEmitsEveryMetric runs every workload of BENCHMARK.json at smoke
// size, untraced and traced, and holds the output to the manifest: every
// metric present, finite and well named, every op correct.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	for _, mw := range m.Workloads {
		w := workloadByName(mw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", mw.Name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, smokeSizes(), 1, 0, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d %v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, mm := range want {
				v, ok := rep.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: %s is not emitted", w.name, traced, mm.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%t: %s = %v", w.name, traced, mm.Name, v.Value)
				case v.Unit != mm.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, mm.Name, v.Unit, mm.Unit)
				case !metricName.MatchString(mm.Name):
					t.Errorf("metric name %q is malformed", mm.Name)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, mm.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			ratio := rep.Metrics["server.plan_cache_hit_ratio"].Value
			if w.fresh && ratio > 0.02 || !w.fresh && ratio < 0.98 {
				t.Errorf("%s: plan-cache hit ratio %v contradicts the workload's cache state", w.name, ratio)
			}
			raw, err := os.ReadFile(rep.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("%s: %v", rep.TraceFile, err)
			}
			byID, names := map[int64]span{}, map[string]bool{}
			for _, s := range tf.Spans {
				byID[s.ID], names[s.Name] = s, true
			}
			for _, s := range tf.Spans {
				if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
					t.Errorf("%s: span %d (%s) names a missing parent %d", w.name, s.ID, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Errorf("%s: span %d (%s) ends before it starts", w.name, s.ID, s.Name)
				}
			}
			for _, name := range []string{"client.op", "server.http", "engine.service", "ontario.query", "ontario.prepare",
				"results.first_answer", "sparql.parse", "core.plan", "wrapper.execute", "wrapper.replay", "lslod.build", "stats.prime"} {
				if !names[name] {
					t.Errorf("%s: the trace has no %s span", w.name, name)
				}
			}
		}
	}
}
