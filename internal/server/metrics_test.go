package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"ontario"
	"ontario/lake"
)

// metricsBody scrapes /metrics through the handler.
func metricsBody(t *testing.T, srv *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

// goldenMetrics is the full /metrics exposition of TestMetricsExpositionGolden.
const goldenMetrics = `# TYPE ontario_executing_queries gauge
ontario_executing_queries 0
# TYPE ontario_waiting_queries gauge
ontario_waiting_queries 0
# TYPE ontario_peak_executing_queries gauge
ontario_peak_executing_queries 0
# TYPE ontario_source_inflight gauge
ontario_source_inflight{source="orgs"} 0
# TYPE ontario_source_inflight_peak gauge
ontario_source_inflight_peak{source="orgs"} 1
# TYPE ontario_source_breaker_open gauge
ontario_source_breaker_open{source="orgs",state="closed"} 0
# TYPE ontario_source_requests_total counter
ontario_source_requests_total{source="orgs"} 1
# TYPE ontario_source_failures_total counter
ontario_source_failures_total{source="orgs"} 1
# TYPE ontario_source_retries_total counter
ontario_source_retries_total{source="orgs"} 0
# TYPE ontario_source_failure_rate gauge
ontario_source_failure_rate{source="orgs"} 1
# TYPE ontario_source_latency_ms gauge
ontario_source_latency_ms{source="orgs"} 0.000
# TYPE ontario_response_cache_hits_total counter
ontario_response_cache_hits_total 0
# TYPE ontario_response_cache_misses_total counter
ontario_response_cache_misses_total 0
# TYPE ontario_response_cache_evictions_total counter
ontario_response_cache_evictions_total 0
# TYPE ontario_response_cache_entries gauge
ontario_response_cache_entries 0
# TYPE ontario_cluster_worker_up gauge
ontario_cluster_worker_up{worker="127.0.0.1:9001"} 1
ontario_cluster_worker_up{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_fragment_queue_depth gauge
ontario_cluster_fragment_queue_depth{worker="127.0.0.1:9001"} 1
ontario_cluster_fragment_queue_depth{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_active_fragments gauge
ontario_cluster_active_fragments{worker="127.0.0.1:9001"} 2
ontario_cluster_active_fragments{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_remap_entries gauge
ontario_cluster_remap_entries{worker="127.0.0.1:9001"} 5
ontario_cluster_remap_entries{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_dict_delta_bytes gauge
ontario_cluster_dict_delta_bytes{worker="127.0.0.1:9001"} 64
ontario_cluster_dict_delta_bytes{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_response_cache_hits gauge
ontario_cluster_response_cache_hits{worker="127.0.0.1:9001"} 7
ontario_cluster_response_cache_hits{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_response_cache_misses gauge
ontario_cluster_response_cache_misses{worker="127.0.0.1:9001"} 3
ontario_cluster_response_cache_misses{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_response_cache_evictions gauge
ontario_cluster_response_cache_evictions{worker="127.0.0.1:9001"} 1
ontario_cluster_response_cache_evictions{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_response_cache_entries gauge
ontario_cluster_response_cache_entries{worker="127.0.0.1:9001"} 2
ontario_cluster_response_cache_entries{worker="127.0.0.1:9002"} 0
# TYPE ontario_cluster_link_reconnects_total counter
ontario_cluster_link_reconnects_total{worker="127.0.0.1:9001"} 0
ontario_cluster_link_reconnects_total{worker="127.0.0.1:9002"} 4
# TYPE ontario_cluster_shuffled_batches gauge
ontario_cluster_shuffled_batches{worker="127.0.0.1:9001",direction="in"} 10
ontario_cluster_shuffled_batches{worker="127.0.0.1:9001",direction="out"} 11
ontario_cluster_shuffled_batches{worker="127.0.0.1:9002",direction="in"} 1
ontario_cluster_shuffled_batches{worker="127.0.0.1:9002",direction="out"} 0
# TYPE ontario_cluster_shuffled_bytes gauge
ontario_cluster_shuffled_bytes{worker="127.0.0.1:9001",direction="in"} 1000
ontario_cluster_shuffled_bytes{worker="127.0.0.1:9001",direction="out"} 1100
ontario_cluster_shuffled_bytes{worker="127.0.0.1:9002",direction="in"} 0
ontario_cluster_shuffled_bytes{worker="127.0.0.1:9002",direction="out"} 9
# TYPE ontario_plan_cache_misses_total counter
ontario_plan_cache_misses_total 1
# TYPE ontario_queries_total counter
ontario_queries_total 3
# TYPE ontario_cardinality_error_log10 histogram
ontario_cardinality_error_log10_bucket{le="0.1"} 0
ontario_cardinality_error_log10_bucket{le="0.3"} 1
ontario_cardinality_error_log10_bucket{le="0.5"} 1
ontario_cardinality_error_log10_bucket{le="1"} 1
ontario_cardinality_error_log10_bucket{le="1.5"} 1
ontario_cardinality_error_log10_bucket{le="2"} 1
ontario_cardinality_error_log10_bucket{le="3"} 1
ontario_cardinality_error_log10_bucket{le="4"} 1
ontario_cardinality_error_log10_bucket{le="+Inf"} 1
ontario_cardinality_error_log10_sum 0.25
ontario_cardinality_error_log10_count 1
# TYPE ontario_operator_time_ms histogram
ontario_operator_time_ms_bucket{op="service",le="0.5"} 0
ontario_operator_time_ms_bucket{op="service",le="1"} 0
ontario_operator_time_ms_bucket{op="service",le="2.5"} 0
ontario_operator_time_ms_bucket{op="service",le="5"} 0
ontario_operator_time_ms_bucket{op="service",le="10"} 0
ontario_operator_time_ms_bucket{op="service",le="25"} 0
ontario_operator_time_ms_bucket{op="service",le="50"} 1
ontario_operator_time_ms_bucket{op="service",le="100"} 1
ontario_operator_time_ms_bucket{op="service",le="250"} 1
ontario_operator_time_ms_bucket{op="service",le="500"} 1
ontario_operator_time_ms_bucket{op="service",le="1000"} 1
ontario_operator_time_ms_bucket{op="service",le="2500"} 1
ontario_operator_time_ms_bucket{op="service",le="5000"} 1
ontario_operator_time_ms_bucket{op="service",le="10000"} 1
ontario_operator_time_ms_bucket{op="service",le="+Inf"} 1
ontario_operator_time_ms_sum{op="service"} 30
ontario_operator_time_ms_count{op="service"} 1
# TYPE ontario_query_duration_ms histogram
ontario_query_duration_ms_bucket{le="0.5"} 0
ontario_query_duration_ms_bucket{le="1"} 0
ontario_query_duration_ms_bucket{le="2.5"} 0
ontario_query_duration_ms_bucket{le="5"} 0
ontario_query_duration_ms_bucket{le="10"} 1
ontario_query_duration_ms_bucket{le="25"} 1
ontario_query_duration_ms_bucket{le="50"} 1
ontario_query_duration_ms_bucket{le="100"} 1
ontario_query_duration_ms_bucket{le="250"} 1
ontario_query_duration_ms_bucket{le="500"} 1
ontario_query_duration_ms_bucket{le="1000"} 1
ontario_query_duration_ms_bucket{le="2500"} 1
ontario_query_duration_ms_bucket{le="5000"} 1
ontario_query_duration_ms_bucket{le="10000"} 1
ontario_query_duration_ms_bucket{le="+Inf"} 1
ontario_query_duration_ms_sum 7
ontario_query_duration_ms_count 1
# TYPE ontario_source_delay_ms histogram
ontario_source_delay_ms_bucket{source="orgs",le="0.5"} 0
ontario_source_delay_ms_bucket{source="orgs",le="1"} 0
ontario_source_delay_ms_bucket{source="orgs",le="2.5"} 1
ontario_source_delay_ms_bucket{source="orgs",le="5"} 1
ontario_source_delay_ms_bucket{source="orgs",le="10"} 1
ontario_source_delay_ms_bucket{source="orgs",le="25"} 1
ontario_source_delay_ms_bucket{source="orgs",le="50"} 1
ontario_source_delay_ms_bucket{source="orgs",le="100"} 1
ontario_source_delay_ms_bucket{source="orgs",le="250"} 1
ontario_source_delay_ms_bucket{source="orgs",le="500"} 1
ontario_source_delay_ms_bucket{source="orgs",le="1000"} 1
ontario_source_delay_ms_bucket{source="orgs",le="2500"} 1
ontario_source_delay_ms_bucket{source="orgs",le="5000"} 1
ontario_source_delay_ms_bucket{source="orgs",le="10000"} 1
ontario_source_delay_ms_bucket{source="orgs",le="+Inf"} 1
ontario_source_delay_ms_sum{source="orgs"} 1.5
ontario_source_delay_ms_count{source="orgs"} 1
`

// TestMetricsExpositionGolden pins the whole /metrics document: the
// admission gauges, a source limiter's two families, the six per-source
// health families of one failed remote request, the response-cache
// families, every per-worker cluster family for two workers, and the
// registry's counters and histograms. CI greps this output, so a change to
// a family name, label order or value format must show up here.
func TestMetricsExpositionGolden(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected outage", http.StatusInternalServerError)
	}))
	t.Cleanup(down.Close)
	l, err := lake.NewBuilder().
		AddSPARQLEndpoint("orgs", down.URL+"/sparql", lake.Molecule{
			Class:      fedOrg,
			Predicates: []lake.Predicate{{IRI: fedOrgName}},
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := ontario.New(l, ontario.WithSourceLimit(2), ontario.WithResilience(ontario.Resilience{
		Timeout: 5 * time.Second, MaxRetries: -1,
	}))
	// One request, one failure: the health record's values are exact and
	// its latency (an average of successes only) stays zero.
	if res, err := eng.Query(context.Background(), `SELECT ?o ?n WHERE { ?o <`+fedOrgName+`> ?n }`); err == nil {
		if _, err := res.Collect(); err == nil {
			t.Fatal("query over a failing endpoint succeeded")
		}
	}

	srv := New(eng, Config{ClusterStatus: func() []WorkerStatus {
		return []WorkerStatus{
			{Addr: "127.0.0.1:9001", Up: true, ActiveFragments: 2, QueuedFragments: 1,
				BatchesIn: 10, BatchesOut: 11, BytesIn: 1000, BytesOut: 1100,
				DictDeltaBytes: 64, RemapEntries: 5, Reconnects: 0,
				CacheHits: 7, CacheMisses: 3, CacheEvictions: 1, CacheEntries: 2},
			{Addr: "127.0.0.1:9002", Up: false, Reconnects: 4, BatchesIn: 1, BytesOut: 9},
		}
	}})
	m := srv.Metrics()
	m.Add(MetricQueries, 3)
	m.Inc(MetricPlanCacheMiss)
	m.Observe(MetricQueryDuration, 7*time.Millisecond)
	m.ObserveSource(MetricSourceDelay, "orgs", 1500*time.Microsecond)
	m.ObserveLabeled(MetricOperatorTime, "op", "service", 30*time.Millisecond)
	m.ObserveValue(MetricCardError, "", "", 0.25, cardErrorBuckets)

	if got := metricsBody(t, srv); got != goldenMetrics {
		t.Errorf("/metrics changed:\n%s", got)
	}
}

// promLine is the Prometheus text-format grammar of one exposition line: a
// TYPE comment, or a sample whose label values escape only backslash,
// double quote and newline (as \\, \" and \n) and carry every other UTF-8
// character as is.
var promLine = regexp.MustCompile(`^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})?` +
	` (?:[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN))$`)

// TestMetricsLabelEscaping: a source ID reaches /metrics unvalidated, so
// one holding a tab and a no-break space must still give a well-formed
// exposition: every line matches the text-format grammar, and the in-flight
// series carries the ID's characters unescaped.
func TestMetricsLabelEscaping(t *testing.T) {
	const id = "odd\tsource\u00a0id"
	entered, release := make(chan struct{}), make(chan struct{})
	src := &fnSource{id: id, mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []lake.Binding{{"s": lake.IRI("http://ex/b1"), "n": lake.Literal("one")}}, nil
		}}
	b := lake.NewBuilder()
	b.AddSource(src)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ontario.New(l, ontario.WithSourceLimit(2)), Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query",
			strings.NewReader(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	out := metricsBody(t, srv)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("not a text-format line: %q", line)
		}
	}
	if want := `ontario_source_inflight{source="` + id + `"} 1`; !strings.Contains(out, want+"\n") {
		t.Errorf("/metrics missing %q:\n%s", want, out)
	}
}
