package server

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"ontario"
	"ontario/lake"
)

// cacheTestQuery is used by no other test: the server tests share one
// lake, and with it one plan cache.
const cacheTestQuery = `SELECT ?probe ?gene WHERE {
  ?probe <http://lake.tib.eu/affymetrix/vocab#transcribedFrom> ?gene .
  ?probe <http://lake.tib.eu/affymetrix/vocab#chromosome> "chr11" .
}`

// TestPlanCacheHitSkipsPlanning: the second identical request must be
// served from the engine's plan cache — the hit counter increments and the
// miss counter does not.
func TestPlanCacheHitSkipsPlanning(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0)},
	})

	run := func() {
		resp := postQuery(t, ts.URL, cacheTestQuery, nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
	}

	run()
	if hits := srv.Metrics().Counter(MetricPlanCacheHits); hits != 0 {
		t.Fatalf("hits after first request = %d, want 0", hits)
	}
	if misses := srv.Metrics().Counter(MetricPlanCacheMiss); misses != 1 {
		t.Fatalf("misses after first request = %d, want 1", misses)
	}

	// Same query with different whitespace: normalization must still hit.
	reformatted := strings.Join(strings.Fields(cacheTestQuery), " ")
	resp := postQuery(t, ts.URL, reformatted, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if hits := srv.Metrics().Counter(MetricPlanCacheHits); hits != 1 {
		t.Errorf("hits after second request = %d, want 1", hits)
	}
	if misses := srv.Metrics().Counter(MetricPlanCacheMiss); misses != 1 {
		t.Errorf("misses after second request = %d, want 1", misses)
	}
	// A different plan-shaping parameter must be a separate cache entry.
	resp = postQuery(t, ts.URL, cacheTestQuery, url.Values{"mode": {"unaware"}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if misses := srv.Metrics().Counter(MetricPlanCacheMiss); misses != 2 {
		t.Errorf("misses after mode change = %d, want 2", misses)
	}
}

// TestSetEngineSwapsServingEngineAndDropsPlans: SetEngine (deferred
// federation) must route subsequent requests to the new engine, whose
// lake holds none of the plans prepared against the old one.
func TestSetEngineSwapsServingEngineAndDropsPlans(t *testing.T) {
	oldSrc := &fnSource{id: "old", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			return []lake.Binding{{"x": lake.IRI("http://ex/b1"), "n": lake.Literal("old")}}, nil
		}}
	srv, base := newCustomServer(t, Config{}, oldSrc)

	query := "SELECT ?x ?n WHERE { ?x <http://ex/name> ?n }"
	get := func() string {
		t.Helper()
		resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if out := get(); !strings.Contains(out, "old") {
		t.Fatalf("answer before swap = %s, want the old source's binding", out)
	}
	if out := get(); !strings.Contains(out, "old") {
		t.Fatalf("repeated answer before swap = %s", out)
	}
	if hits, misses := srv.Metrics().Counter(MetricPlanCacheHits), srv.Metrics().Counter(MetricPlanCacheMiss); hits != 1 || misses != 1 {
		t.Fatalf("before swap: %d hits, %d misses, want 1 and 1", hits, misses)
	}

	newSrc := &fnSource{id: "new", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			return []lake.Binding{{"x": lake.IRI("http://ex/b1"), "n": lake.Literal("new")}}, nil
		}}
	b := lake.NewBuilder()
	b.AddSource(newSrc)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv.SetEngine(ontario.New(l))

	if out := get(); !strings.Contains(out, "new") {
		t.Fatalf("answer after swap = %s, want the new source's binding", out)
	}
	if misses := srv.Metrics().Counter(MetricPlanCacheMiss); misses != 2 {
		t.Fatalf("the first query after the swap was not planned afresh (%d misses, want 2)", misses)
	}
}

// TestExplainEndpoint: ?explain=1 renders the plan with estimates instead
// of executing, and goes through the plan cache too.
func TestExplainEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0)},
	})
	query := strings.Replace(cacheTestQuery, "chr11", "chr12", 1)
	resp := postQuery(t, ts.URL, query, url.Values{"explain": {"1"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{"Plan[", "optimizer=cost", "{est card="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if qs := srv.Metrics().Counter(MetricQueries); qs != 0 {
		t.Errorf("explain executed a query (queries counter = %d)", qs)
	}

	// The plan cached by EXPLAIN serves the real execution as a hit.
	resp = postQuery(t, ts.URL, query, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if hits := srv.Metrics().Counter(MetricPlanCacheHits); hits != 1 {
		t.Errorf("execution after explain was not a cache hit (hits = %d)", hits)
	}
}

// TestLibraryPlanIsServerHit: the server has no plan cache of its own, so a
// plan prepared through the library is a server-side hit for the same
// text, even with different whitespace.
func TestLibraryPlanIsServerHit(t *testing.T) {
	srv, ts, eng := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0)},
	})
	query := strings.Replace(cacheTestQuery, "chr11", "chr13", 1)
	if _, err := eng.Prepare(query, ontario.WithAwarePlan(), ontario.WithNetworkScale(0)); err != nil {
		t.Fatal(err)
	}
	resp := postQuery(t, ts.URL, "  "+strings.Join(strings.Fields(query), "\n\t "), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if hits, misses := srv.Metrics().Counter(MetricPlanCacheHits), srv.Metrics().Counter(MetricPlanCacheMiss); hits != 1 || misses != 0 {
		t.Errorf("library-prepared text: %d hits, %d misses, want 1 and 0", hits, misses)
	}
}
