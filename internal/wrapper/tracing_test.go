package wrapper

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ontario/internal/trace"
)

// TestRemoteWrapperPropagatesTraceparent covers the coordinator side of a
// federated hop: the wrapper must forward the query's W3C traceparent,
// adopt the peer's query ID from the response header, pick up the peer's
// own remote spans from the X-Ontario-Spans trailer, and record the whole
// hop as a RemoteSpan on the coordinator's trace.
func TestRemoteWrapperPropagatesTraceparent(t *testing.T) {
	var gotTraceparent atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTraceparent.Store(r.Header.Get("Traceparent"))
		w.Header().Set("X-Ontario-Query-Id", "feedfacecafef00d")
		w.Header().Set("Trailer", "X-Ontario-Spans")
		fmt.Fprint(w, resultsDoc)
		nested, _ := json.Marshal([]trace.RemoteSpan{{Source: "leaf-db", QueryID: "aaaabbbbccccdddd", Attempts: 1}})
		w.Header().Set(http.TrailerPrefix+"X-Ontario-Spans", string(nested))
	}))
	defer srv.Close()

	qt := trace.NewQueryTrace()
	ctx := trace.WithQuery(context.Background(), qt)
	w := newRemote(t, srv.URL, fastResilience())
	s, err := execute(ctx, w, &Request{Stars: []*StarQuery{personStar()}})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sols := drain(t, s); len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}

	hdr, _ := gotTraceparent.Load().(string)
	if want := qt.Traceparent(); hdr != want {
		t.Fatalf("peer saw traceparent %q, want %q", hdr, want)
	}

	spans := qt.RemoteSpans()
	if len(spans) != 1 {
		t.Fatalf("coordinator trace has %d remote spans, want 1: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Source != "remote" {
		t.Errorf("span source = %q, want %q", sp.Source, "remote")
	}
	if sp.QueryID != "feedfacecafef00d" {
		t.Errorf("span query id = %q, want the peer's", sp.QueryID)
	}
	if sp.Attempts != 1 {
		t.Errorf("span attempts = %d, want 1", sp.Attempts)
	}
	if sp.Breaker != "closed" {
		t.Errorf("span breaker = %q, want closed", sp.Breaker)
	}
	if sp.LatencyMS <= 0 {
		t.Errorf("span latency = %v, want > 0", sp.LatencyMS)
	}
	if sp.Error != "" {
		t.Errorf("span error = %q, want empty", sp.Error)
	}
	if len(sp.Children) != 1 || sp.Children[0].Source != "leaf-db" {
		t.Errorf("nested peer spans = %+v, want the leaf-db child", sp.Children)
	}
}

// TestRemoteWrapperNoTraceNoHeader: without a query trace in the context
// the wrapper must not invent a traceparent, and recording must not panic.
func TestRemoteWrapperNoTraceNoHeader(t *testing.T) {
	var gotTraceparent atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTraceparent.Store(r.Header.Get("Traceparent"))
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	w := newRemote(t, srv.URL, fastResilience())
	s, err := execute(context.Background(), w, &Request{Stars: []*StarQuery{personStar()}})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	drain(t, s)
	if hdr, _ := gotTraceparent.Load().(string); hdr != "" {
		t.Fatalf("wrapper sent traceparent %q with no trace in context", hdr)
	}
}

// TestRemoteWrapperRecordsFailedHop: a hop that exhausts its retries must
// still land on the trace, with the error and the attempt count — a broken
// hop is exactly what the coordinator wants to see.
func TestRemoteWrapperRecordsFailedHop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	qt := trace.NewQueryTrace()
	ctx := trace.WithQuery(context.Background(), qt)
	w := newRemote(t, srv.URL, fastResilience())
	if _, err := execute(ctx, w, &Request{Stars: []*StarQuery{personStar()}}); err == nil {
		t.Fatal("Execute should fail against an always-500 endpoint")
	}
	spans := qt.RemoteSpans()
	if len(spans) != 1 {
		t.Fatalf("failed hop produced %d spans, want 1", len(spans))
	}
	if spans[0].Error == "" {
		t.Error("failed hop span lacks the error")
	}
	if spans[0].Attempts < 2 {
		t.Errorf("failed hop attempts = %d, want >= 2 (retries)", spans[0].Attempts)
	}
}
