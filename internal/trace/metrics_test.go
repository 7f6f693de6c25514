package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Inc("queries_total")
	m.Add("queries_total", 2)
	m.Add("answers_total", 10)
	if got := m.Counter("queries_total"); got != 3 {
		t.Errorf("queries_total = %d, want 3", got)
	}
	if got := m.Counter("answers_total"); got != 10 {
		t.Errorf("answers_total = %d, want 10", got)
	}
	if got := m.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

// prometheus renders the registry.
func prometheus(t *testing.T, m *Metrics) string {
	t.Helper()
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestMetricsHistogram(t *testing.T) {
	m := NewMetrics()
	for _, ms := range []int{1, 2, 4, 8, 40, 400} {
		m.Observe("query_ms", time.Duration(ms)*time.Millisecond)
	}
	want := `# TYPE query_ms histogram
query_ms_bucket{le="0.5"} 0
query_ms_bucket{le="1"} 1
query_ms_bucket{le="2.5"} 2
query_ms_bucket{le="5"} 3
query_ms_bucket{le="10"} 4
query_ms_bucket{le="25"} 4
query_ms_bucket{le="50"} 5
query_ms_bucket{le="100"} 5
query_ms_bucket{le="250"} 5
query_ms_bucket{le="500"} 6
query_ms_bucket{le="1000"} 6
query_ms_bucket{le="2500"} 6
query_ms_bucket{le="5000"} 6
query_ms_bucket{le="10000"} 6
query_ms_bucket{le="+Inf"} 6
query_ms_sum 455
query_ms_count 6
`
	if got := prometheus(t, m); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsPrometheusOutput(t *testing.T) {
	m := NewMetrics()
	m.Add("ontario_queries_total", 7)
	m.Observe("ontario_query_duration_ms", 3*time.Millisecond)
	m.ObserveSource("ontario_source_delay_ms", "drugbank", 2*time.Millisecond)
	m.ObserveSource("ontario_source_delay_ms", "kegg", 12*time.Millisecond)

	out := prometheus(t, m)
	for _, want := range []string{
		"# TYPE ontario_queries_total counter",
		"ontario_queries_total 7",
		"# TYPE ontario_query_duration_ms histogram",
		`ontario_query_duration_ms_bucket{le="+Inf"} 1`,
		"ontario_query_duration_ms_count 1",
		`ontario_source_delay_ms_bucket{source="drugbank",le="2.5"} 1`,
		`ontario_source_delay_ms_count{source="kegg"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering.
	if prometheus(t, m) != out {
		t.Error("WritePrometheus output not deterministic")
	}
}

func TestMetricsConcurrentUpdates(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Inc("n")
				m.Observe("h", time.Millisecond)
				m.ObserveSource("s", "src", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n"); got != 800 {
		t.Errorf("n = %d, want 800", got)
	}
	out := prometheus(t, m)
	for _, want := range []string{"\nh_count 800\n", `s_count{source="src"} 800`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
