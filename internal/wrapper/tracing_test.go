package wrapper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestRemoteWrapperRecordsFailedHop: a failed hop to either live source
// — an HTTP endpoint or a database — must still land on the trace, with
// its error and attempt count; a broken hop is exactly what the
// coordinator wants to see. A hop that exhausts its retries made several
// attempts; a hop its open breaker rejected made none.
func TestRemoteWrapperRecordsFailedHop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	remote := func(h *HealthRegistry) (Wrapper, *Request) {
		return NewRemoteSPARQLWrapper("remote", srv.URL, h, nil, 0), &Request{Stars: []*StarQuery{personStar()}}
	}
	database := func(h *HealthRegistry) (Wrapper, *Request) {
		src := personSQLSource(t, &stubConn{cols: []string{"c0", "c1"}, fail: 1 << 20})
		return NewDBSQLWrapper(src, h, nil, 0), &Request{Stars: []*StarQuery{personSQLStar()}}
	}
	for _, tc := range []struct {
		name     string
		build    func(*HealthRegistry) (Wrapper, *Request)
		open     bool // the breaker is open before the hop
		attempts func(int) bool
	}{
		{"endpoint down", remote, false, func(n int) bool { return n >= 2 }},
		{"endpoint breaker open", remote, true, func(n int) bool { return n == 0 }},
		{"database down", database, false, func(n int) bool { return n >= 2 }},
		{"database breaker open", database, true, func(n int) bool { return n == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastResilience()
			cfg.BreakerCooldown = time.Hour
			h := NewHealthRegistry(cfg)
			w, req := tc.build(h)
			for i := 0; tc.open && i < cfg.BreakerThreshold; i++ {
				h.ReportFailure(w.SourceID(), errors.New("down"))
			}
			qt := trace.NewQueryTrace()
			if _, err := execute(trace.WithQuery(context.Background(), qt), w, req); err == nil {
				t.Fatal("Execute should fail")
			}
			spans := qt.RemoteSpans()
			if len(spans) != 1 {
				t.Fatalf("failed hop produced %d spans, want 1", len(spans))
			}
			sp := spans[0]
			if sp.Source != w.SourceID() {
				t.Errorf("span source = %q, want %q", sp.Source, w.SourceID())
			}
			if sp.Error == "" {
				t.Error("failed hop span lacks the error")
			}
			if tc.open && !strings.Contains(sp.Error, ErrCircuitOpen.Error()) {
				t.Errorf("span error = %q, want it to name %v", sp.Error, ErrCircuitOpen)
			}
			if !tc.attempts(sp.Attempts) {
				t.Errorf("failed hop attempts = %d", sp.Attempts)
			}
		})
	}
}
