package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ontario"
	"ontario/lake"
)

// fnSource is a scriptable custom lake source for failure-injection tests.
type fnSource struct {
	id   string
	mols []lake.Molecule
	exec func(ctx context.Context, req *lake.Request) ([]lake.Binding, error)
}

func (s *fnSource) ID() string                 { return s.id }
func (s *fnSource) Molecules() []lake.Molecule { return s.mols }
func (s *fnSource) Execute(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
	return s.exec(ctx, req)
}

func newCustomServer(t *testing.T, cfg Config, sources ...lake.Source) (*Server, string) {
	t.Helper()
	b := lake.NewBuilder()
	for _, s := range sources {
		b.AddSource(s)
	}
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ontario.New(l), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func molA() lake.Molecule {
	return lake.Molecule{Class: "http://ex/A", Predicates: []lake.Predicate{
		{IRI: "http://ex/t", LinkedClass: "http://ex/B"},
	}}
}

func molB() lake.Molecule {
	return lake.Molecule{Class: "http://ex/B", Predicates: []lake.Predicate{
		{IRI: "http://ex/name"},
	}}
}

// TestServerMidStreamFailure pins the streaming error contract: when a
// source dies after answers are already on the wire, the server must count
// the query failed and name the error in the X-Ontario-Error trailer
// instead of silently ending a short, well-formed result set.
func TestServerMidStreamFailure(t *testing.T) {
	// Both sources serve scans; the first seeded (bind-join) request
	// succeeds, every later one explodes — so whichever side the optimizer
	// probes, the query fails after its first delivered answer.
	var seeded atomic.Int32
	seededExec := func(rows []lake.Binding) func(context.Context, *lake.Request) ([]lake.Binding, error) {
		return func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			if len(req.Seeds) > 0 && seeded.Add(1) > 1 {
				return nil, fmt.Errorf("source exploded mid-query")
			}
			return rows, nil
		}
	}
	left := &fnSource{id: "left", mols: []lake.Molecule{molA()}, exec: seededExec([]lake.Binding{
		{"s": lake.IRI("http://ex/s1"), "x": lake.IRI("http://ex/b1")},
		{"s": lake.IRI("http://ex/s2"), "x": lake.IRI("http://ex/b2")},
	})}
	right := &fnSource{id: "right", mols: []lake.Molecule{molB()}, exec: seededExec([]lake.Binding{
		{"x": lake.IRI("http://ex/b1"), "n": lake.Literal("n1")},
		{"x": lake.IRI("http://ex/b2"), "n": lake.Literal("n2")},
	})}
	srv, base := newCustomServer(t, Config{DefaultOptions: []ontario.Option{
		ontario.WithJoinOperator(ontario.JoinBind),
		ontario.WithBindConcurrency(1),
		ontario.WithBatchSize(1),
	}}, left, right)

	query := "SELECT ?s ?x ?n WHERE { ?s <http://ex/t> ?x . ?x <http://ex/name> ?n }"
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (failure struck after the header)", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	trailer := resp.Trailer.Get("X-Ontario-Error")
	if !strings.Contains(trailer, "source exploded") {
		t.Fatalf("X-Ontario-Error trailer = %q, want the source failure", trailer)
	}
	// The JSON document must be left unterminated: a strict client sees a
	// truncated body, not a quietly-short result set.
	var doc sparqlResults
	if err := json.Unmarshal(body, &doc); err == nil {
		t.Fatalf("body parsed as a complete document despite the failure: %s", body)
	}
	if got := metricValue(t, base, "ontario_queries_failed_total"); got != "1" {
		t.Fatalf("ontario_queries_failed_total = %s, want 1", got)
	}
	_ = srv
}

// metricValue scrapes one un-labelled metric from /metrics.
func metricValue(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestServerExecStatusCodes pins the status-code contract: 400 only for
// parse/parameter errors, 504 for an expired query deadline, 500 for
// internal execution failures.
func TestServerExecStatusCodes(t *testing.T) {
	broken := &fnSource{id: "broken", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			return nil, fmt.Errorf("backend wedged")
		}}
	slow := &fnSource{id: "slow", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			select {
			case <-time.After(5 * time.Second):
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}

	query := "SELECT ?x ?n WHERE { ?x <http://ex/name> ?n }"
	cases := []struct {
		name   string
		src    lake.Source
		query  string
		params string
		want   int
	}{
		{name: "parse error is 400", src: broken, query: "SELECT ?x WHERE {", want: http.StatusBadRequest},
		{name: "bad parameter is 400", src: broken, query: query, params: "&optimizer=bogus", want: http.StatusBadRequest},
		{name: "execution failure is 500", src: broken, query: query, want: http.StatusInternalServerError},
		{name: "query deadline is 504", src: slow, query: query, params: "&timeout=100ms", want: http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, base := newCustomServer(t, Config{}, tc.src)
			resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(tc.query) + tc.params)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestServerPostFormParams pins the SPARQL-Protocol POST contract: the
// standard way to send a query is a form-encoded POST, and the control
// parameters must be honored there, not just in the URL.
func TestServerPostFormParams(t *testing.T) {
	slow := &fnSource{id: "slow", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			select {
			case <-time.After(800 * time.Millisecond):
				return []lake.Binding{{"x": lake.IRI("http://ex/b1"), "n": lake.Literal("n1")}}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
	_, base := newCustomServer(t, Config{}, slow)
	query := "SELECT ?x ?n WHERE { ?x <http://ex/name> ?n }"

	t.Run("explain in form body", func(t *testing.T) {
		resp, err := http.PostForm(base+"/sparql", url.Values{"query": {query}, "explain": {"1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Content-Type = %q, want a text/plain plan (explain ignored in form body?)", ct)
		}
	})
	t.Run("bad optimizer in form body", func(t *testing.T) {
		resp, err := http.PostForm(base+"/sparql", url.Values{"query": {query}, "optimizer": {"bogus"}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (optimizer ignored in form body?)", resp.StatusCode)
		}
	})
	t.Run("timeout in form body", func(t *testing.T) {
		start := time.Now()
		resp, err := http.PostForm(base+"/sparql", url.Values{"query": {query}, "timeout": {"100ms"}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d after %v, want 504 (timeout ignored in form body?)",
				resp.StatusCode, time.Since(start))
		}
	})
}

// TestServerMoleculesEndpoint pins the federation discovery document: the
// /molecules endpoint must advertise the lake's templates in the exact
// shape lake.DiscoverMolecules consumes.
func TestServerMoleculesEndpoint(t *testing.T) {
	src := &fnSource{id: "left", mols: []lake.Molecule{molA(), molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			return nil, nil
		}}
	_, base := newCustomServer(t, Config{}, src)

	got, err := lake.DiscoverMolecules(context.Background(), base)
	if err != nil {
		t.Fatalf("DiscoverMolecules: %v", err)
	}
	want := []lake.Molecule{
		{Class: "http://ex/A", Predicates: molA().Predicates, Sources: []string{"left"}},
		{Class: "http://ex/B", Predicates: molB().Predicates, Sources: []string{"left"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discovered molecules = %+v, want %+v", got, want)
	}
}

// TestServerQueryBodyLimit: a request body is capped at 1 MiB on both
// POST paths, and a body over the cap is refused with 413 rather than cut
// at the cap and executed. The oversized query is padded so that byte 1<<20
// falls between "LIMIT 10" and a final "0": cut there, it would run as
// LIMIT 10 instead of LIMIT 100. A form body had ParseForm's separate
// 10 MB cap.
func TestServerQueryBodyLimit(t *testing.T) {
	src := &fnSource{id: "b", mols: []lake.Molecule{molB()},
		exec: func(ctx context.Context, req *lake.Request) ([]lake.Binding, error) {
			return []lake.Binding{{"x": lake.IRI("http://ex/b1"), "n": lake.Literal("n1")}}, nil
		}}
	_, base := newCustomServer(t, Config{}, src)
	const query = "SELECT ?x ?n WHERE { ?x <http://ex/name> ?n } LIMIT 10"
	pad := func(prefix string, fill byte, size int) string {
		return prefix + strings.Repeat(string(fill), size-len(prefix))
	}
	for _, tc := range []struct {
		name, contentType, body string
		want                    int
	}{
		{"raw body at the cap", "application/sparql-query", pad(query, ' ', 1<<20), http.StatusOK},
		{"raw body over the cap", "application/sparql-query", pad(query, ' ', 1<<20) + "0", http.StatusRequestEntityTooLarge},
		{"comment-padded body over the cap", "application/sparql-query", pad(query+" #", 'x', 1<<20) + "\n0", http.StatusRequestEntityTooLarge},
		{"form body over the cap", "application/x-www-form-urlencoded",
			pad("query="+url.QueryEscape(query), '+', 1<<20+1), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+"/sparql", tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}
