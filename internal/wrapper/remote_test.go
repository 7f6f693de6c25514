package wrapper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

const resultsDoc = `{"head":{"vars":["s","name"]},"results":{"bindings":[` +
	`{"s":{"type":"uri","value":"http://ex/p1"},"name":{"type":"literal","value":"Ada"}},` +
	`{"s":{"type":"uri","value":"http://ex/p2"},"name":{"type":"literal","value":"Grace","xml:lang":"en"}}` +
	`]}}`

func personStar() *StarQuery {
	return &StarQuery{
		SubjectVar: "s",
		Class:      "http://ex/Person",
		Patterns: []sparql.TriplePattern{
			{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI("http://ex/name")), O: sparql.VarNode("name")},
		},
	}
}

func newRemote(t *testing.T, url string, cfg ResilienceConfig) *RemoteSPARQLWrapper {
	t.Helper()
	return NewRemoteSPARQLWrapper("remote", url, NewHealthRegistry(cfg), nil, 0)
}

func TestRemoteWrapperFetchesAndDecodes(t *testing.T) {
	var gotQuery atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/sparql-query" {
			t.Errorf("Content-Type = %q", ct)
		}
		body, _ := io.ReadAll(r.Body)
		gotQuery.Store(string(body))
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	sols := collect(t, w, &Request{Stars: []*StarQuery{personStar()}})
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
	if got := sols[0]["s"]; got != rdf.NewIRI("http://ex/p1") {
		t.Fatalf("sols[0][s] = %v", got)
	}
	if got := sols[1]["name"]; got != rdf.NewLangLiteral("Grace", "en") {
		t.Fatalf("sols[1][name] = %v", got)
	}
	q, _ := gotQuery.Load().(string)
	if !strings.Contains(q, "?s <http://ex/name> ?name .") {
		t.Fatalf("query text %q lacks the star pattern", q)
	}
	// The compiled text must parse under the repo's own grammar (the other
	// federation side is an ontario-server).
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated query does not re-parse: %v\n%s", err, q)
	}
}

func TestRemoteWrapperRetriesFlakyEndpoint(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	if sols := collect(t, w, &Request{Stars: []*StarQuery{personStar()}}); len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
	if calls != 3 {
		t.Fatalf("endpoint saw %d requests, want 3", calls)
	}
	snap := w.health.Snapshot()
	if len(snap) != 1 || snap[0].Retries != 2 {
		t.Fatalf("health = %+v, want 2 retries recorded", snap)
	}
}

func TestRemoteWrapperTruncatedBodyIsRetryable(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			// A valid-looking prefix with no closing braces: the upstream
			// died mid-stream.
			io.WriteString(w, resultsDoc[:len(resultsDoc)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
			}
			return
		}
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	if sols := collect(t, w, &Request{Stars: []*StarQuery{personStar()}}); len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
	if calls < 2 {
		t.Fatal("truncated body was not retried")
	}
}

func TestRemoteWrapperBadRequestIsPermanent(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "parse error", http.StatusBadRequest)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	_, err := execute(context.Background(), w, &Request{Stars: []*StarQuery{personStar()}})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("Execute = %v, want HTTP 400 error", err)
	}
	if calls != 1 {
		t.Fatalf("endpoint saw %d requests, want 1 (400 is permanent)", calls)
	}
}

func TestRemoteWrapperDownEndpointOpensCircuit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // fully down: connection refused
	cfg := fastResilience()
	cfg.MaxRetries = 1
	cfg.BreakerThreshold = 2
	h := NewHealthRegistry(cfg)
	w := NewRemoteSPARQLWrapper("remote", url, h, nil, 0)
	req := &Request{Stars: []*StarQuery{personStar()}}
	if _, err := execute(context.Background(), w, req); err == nil {
		t.Fatal("Execute against a down endpoint succeeded")
	}
	if st := h.State("remote"); st != BreakerOpen {
		t.Fatalf("breaker = %v after %d consecutive failures, want open", st, cfg.BreakerThreshold)
	}
	_, err := execute(context.Background(), w, req)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Execute with open circuit = %v, want ErrCircuitOpen", err)
	}
}

func TestRemoteWrapperSeedBlockFilter(t *testing.T) {
	var gotQuery atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		gotQuery.Store(string(body))
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	seeds := []sparql.Binding{
		{"s": rdf.NewIRI("http://ex/p1")},
		{"s": rdf.NewIRI("http://ex/p3")},
	}
	sols := collect(t, w, &Request{Stars: []*StarQuery{personStar()}, Block: true, Seeds: seedsOf(seeds...)})
	// p2 is not among the seeds: the local re-check drops it even though the
	// canned endpoint returned it.
	if len(sols) != 1 || sols[0]["s"] != rdf.NewIRI("http://ex/p1") {
		t.Fatalf("block solutions = %v, want just p1", sols)
	}
	q, _ := gotQuery.Load().(string)
	if !strings.Contains(q, `?s = <http://ex/p1>`) || !strings.Contains(q, "||") {
		t.Fatalf("query %q lacks the seed disjunction", q)
	}
	if _, err := sparql.Parse(q); err != nil {
		t.Fatalf("generated block query does not re-parse: %v\n%s", err, q)
	}
}

func TestRemoteWrapperSingleSeedSubstitutedAndMerged(t *testing.T) {
	var gotQuery atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		gotQuery.Store(string(body))
		// Seeded subject: only name comes back.
		fmt.Fprint(w, `{"head":{"vars":["name"]},"results":{"bindings":[{"name":{"type":"literal","value":"Ada"}}]}}`)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	seed := sparql.Binding{"s": rdf.NewIRI("http://ex/p1")}
	sols := collect(t, w, &Request{Stars: []*StarQuery{personStar()}, Seeds: seedsOf(seed)})
	if len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1", len(sols))
	}
	// Bind-join semantics: the seed is merged back into the answer.
	if sols[0]["s"] != rdf.NewIRI("http://ex/p1") || sols[0]["name"] != rdf.NewLiteral("Ada") {
		t.Fatalf("merged solution = %v", sols[0])
	}
	q, _ := gotQuery.Load().(string)
	if !strings.Contains(q, "<http://ex/p1> <http://ex/name> ?name .") {
		t.Fatalf("query %q does not substitute the seed", q)
	}
}
