package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ontario"
	"ontario/internal/lslod"
)

var (
	lakeOnce sync.Once
	testLake *lslod.Lake
	lakeErr  error
)

func getLake(t *testing.T) *lslod.Lake {
	t.Helper()
	lakeOnce.Do(func() {
		testLake, lakeErr = lslod.BuildLake(lslod.SmallScale(), 7)
	})
	if lakeErr != nil {
		t.Fatal(lakeErr)
	}
	return testLake
}

// sparqlResults is the SPARQL results JSON document shape.
type sparqlResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
}

func newTestServer(t *testing.T, cfg Config, engOpts ...ontario.EngineOption) (*Server, *httptest.Server, *ontario.Engine) {
	t.Helper()
	eng := ontario.New(getLake(t).Lake, engOpts...)
	srv := New(eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, eng
}

func postQuery(t *testing.T, baseURL, query string, params url.Values) *http.Response {
	t.Helper()
	u := baseURL + "/sparql"
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := http.Post(u, "application/sparql-query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServeQueryEndToEnd(t *testing.T) {
	srv, ts, eng := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0)},
	})

	wantRes, err := eng.Query(context.Background(), lslod.Queries()[0].Text,
		ontario.WithAwarePlan(), ontario.WithNetworkScale(0))
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers, err := wantRes.Collect()
	if err != nil {
		t.Fatal(err)
	}

	resp := postQuery(t, ts.URL, lslod.Queries()[0].Text, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %q", ct)
	}
	var doc sparqlResults
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if len(doc.Results.Bindings) != len(wantAnswers) {
		t.Errorf("got %d bindings, want %d", len(doc.Results.Bindings), len(wantAnswers))
	}
	if len(doc.Head.Vars) != len(wantRes.Vars()) {
		t.Errorf("head vars = %v, want %v", doc.Head.Vars, wantRes.Vars())
	}
	if got := resp.Trailer.Get("X-Ontario-Answers"); got != fmt.Sprintf("%d", len(wantAnswers)) {
		t.Errorf("answers trailer = %q, want %d", got, len(wantAnswers))
	}

	// Form-encoded POST and GET are also accepted.
	resp2, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {lslod.Queries()[0].Text}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("form POST status = %d", resp2.StatusCode)
	}
	io.Copy(io.Discard, resp2.Body)

	resp3, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(lslod.Queries()[0].Text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("GET status = %d", resp3.StatusCode)
	}
	io.Copy(io.Discard, resp3.Body)

	if got := srv.Metrics().Counter(MetricQueries); got != 3 {
		t.Errorf("queries counter = %d, want 3 (one per HTTP query)", got)
	}

	// Bad requests are 400, not 500.
	respBad := postQuery(t, ts.URL, "SELECT nonsense", nil)
	defer respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d, want 400", respBad.StatusCode)
	}
}

// TestAdmissionRejectsWhenSaturated deterministically saturates a
// 1-slot/0-queue server with one slow query, then checks the next request
// is turned away with 503 + Retry-After.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    -1, // disable queueing: saturation is immediate
		DefaultOptions: []ontario.Option{
			ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma3), ontario.WithNetworkScale(1),
		},
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postQuery(t, ts.URL, lslod.Queries()[2].Text, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Executing == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postQuery(t, ts.URL, lslod.Queries()[0].Text, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if srv.Metrics().Counter(MetricRejected) == 0 {
		t.Error("rejected counter not incremented")
	}
	<-done
}

// TestQueueDeadlineIsTimeoutNotRejection admits a request to a non-full
// queue and lets its deadline expire there: that is a 504 (and a
// queue-timeout metric), not a 503 "saturated" rejection.
func TestQueueDeadlineIsTimeoutNotRejection(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    4,
		DefaultOptions: []ontario.Option{
			ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma3), ontario.WithNetworkScale(1),
		},
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postQuery(t, ts.URL, lslod.Queries()[2].Text, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Executing == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postQuery(t, ts.URL, lslod.Queries()[0].Text, url.Values{"timeout": {"50ms"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("queued request whose deadline expired got %d, want 504", resp.StatusCode)
	}
	if srv.Metrics().Counter(MetricQueueTimeout) != 1 {
		t.Errorf("queue-timeout counter = %d, want 1", srv.Metrics().Counter(MetricQueueTimeout))
	}
	if srv.Metrics().Counter(MetricRejected) != 0 {
		t.Errorf("rejected counter = %d, want 0 (queue was not full)", srv.Metrics().Counter(MetricRejected))
	}
	<-done
}

// TestAdmissionUnderFlood drives K >> C concurrent clients and asserts the
// server never executes more than C queries at once, per-source in-flight
// limits hold, and the excess is either queued or rejected with 503.
func TestAdmissionUnderFlood(t *testing.T) {
	const (
		maxConcurrent = 2
		queueDepth    = 2
		sourceLimit   = 2
		clients       = 12
	)
	srv, ts, eng := newTestServer(t, Config{
		MaxConcurrent: maxConcurrent,
		QueueDepth:    queueDepth,
		DefaultOptions: []ontario.Option{
			ontario.WithAwarePlan(), ontario.WithNetwork(ontario.Gamma2), ontario.WithNetworkScale(0.3),
		},
	}, ontario.WithSourceLimit(sourceLimit))

	var wg sync.WaitGroup
	var mu sync.Mutex
	ok200, rejected := 0, 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := lslod.Queries()[i%len(lslod.Queries())]
			resp := postQuery(t, ts.URL, q.Text, nil)
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200++
			case http.StatusServiceUnavailable:
				rejected++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.PeakExecuting > maxConcurrent {
		t.Errorf("peak executing %d exceeds max-concurrent %d", st.PeakExecuting, maxConcurrent)
	}
	if st.Executing != 0 || st.Waiting != 0 {
		t.Errorf("leftover admission state: %+v", st)
	}
	if ok200+rejected != clients {
		t.Errorf("accounted %d of %d clients", ok200+rejected, clients)
	}
	if ok200 == 0 {
		t.Error("no query succeeded under flood")
	}
	if rejected == 0 {
		t.Errorf("12 clients against capacity %d (C=%d + queue %d) should see rejections",
			maxConcurrent+queueDepth, maxConcurrent, queueDepth)
	}
	lim := eng.SourceLimits()
	for _, src := range lim.Sources() {
		if p := lim.Peak(src); p > sourceLimit {
			t.Errorf("source %s peak in-flight %d exceeds limit %d", src, p, sourceLimit)
		}
		if lim.InFlight(src) != 0 {
			t.Errorf("source %s still has in-flight requests after flood", src)
		}
	}
}

// TestStreamingFirstAnswerBeforeCompletion reads the response
// incrementally and checks the first binding is on the wire well before
// the query completes (the streamed answers trickle out under simulated
// per-message network latency).
func TestStreamingFirstAnswerBeforeCompletion(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{
			ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma2), ontario.WithNetworkScale(1),
		},
	})

	start := time.Now()
	resp := postQuery(t, ts.URL, lslod.Queries()[2].Text, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var buf []byte
	chunk := make([]byte, 512)
	var firstBinding time.Duration
	for {
		n, err := resp.Body.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if firstBinding == 0 {
			if i := strings.Index(string(buf), `"bindings":[{`); i >= 0 {
				firstBinding = time.Since(start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	total := time.Since(start)

	var doc sparqlResults
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("streamed response is not valid JSON: %v", err)
	}
	if len(doc.Results.Bindings) < 10 {
		t.Fatalf("only %d bindings; need a streaming-sized result", len(doc.Results.Bindings))
	}
	if firstBinding == 0 {
		t.Fatal("never saw a binding on the wire")
	}
	if firstBinding > total/2 {
		t.Errorf("first binding at %v of %v total: not streaming", firstBinding, total)
	}
}

// TestClientDisconnectCancelsQuery verifies the cancellation path: a
// client that goes away mid-stream tears down the plan, the wrappers stop
// issuing requests, and no goroutines leak.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{
			ontario.WithUnawarePlan(), ontario.WithNetwork(ontario.Gamma3), ontario.WithNetworkScale(1),
		},
	})

	// Reference: the full query's message bill.
	respFull := postQuery(t, ts.URL, lslod.Queries()[2].Text, nil)
	io.Copy(io.Discard, respFull.Body)
	respFull.Body.Close()
	fullMessages := srv.Metrics().Counter(MetricMessages)
	if fullMessages == 0 {
		t.Fatal("reference query retrieved no messages")
	}

	settle := func() int {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	before := settle()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sparql",
		strings.NewReader(lslod.Queries()[2].Text))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read until the first binding is on the wire, then vanish.
	var buf []byte
	chunk := make([]byte, 256)
	for !strings.Contains(string(buf), `"bindings":[{`) {
		n, err := resp.Body.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if err != nil {
			t.Fatalf("stream ended before first binding: %v", err)
		}
	}
	cancel()
	resp.Body.Close()

	// The server must unwind: executing drops to zero and goroutines
	// return to (about) the pre-request level.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		after := settle()
		if st.Executing == 0 && after <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after disconnect: executing=%d goroutines=%d (before=%d)",
				st.Executing, after, before)
		}
	}

	cancelledMessages := srv.Metrics().Counter(MetricMessages) - fullMessages
	if cancelledMessages >= fullMessages {
		t.Errorf("cancelled query retrieved %d messages, full query %d: wrappers did not stop",
			cancelledMessages, fullMessages)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		DefaultOptions: []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetworkScale(0),
			ontario.WithNetwork(ontario.Gamma1)},
	}, ontario.WithSourceLimit(4))

	resp := postQuery(t, ts.URL, lslod.Queries()[1].Text, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	out := string(body)
	for _, want := range []string{
		"ontario_queries_total 1",
		"ontario_query_duration_ms_bucket",
		"ontario_time_to_first_answer_ms_count",
		`ontario_source_delay_ms_bucket{source=`,
		"ontario_executing_queries 0",
		"ontario_source_inflight_peak{source=",
		"ontario_response_cache_hits_total ",
		"ontario_response_cache_misses_total ",
		"ontario_response_cache_evictions_total 0",
		"ontario_response_cache_entries ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}
}

// TestRequestParameters checks mode/network/timeout request parameters.
func TestRequestParameters(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		QueryTimeout:   5 * time.Second,
		DefaultOptions: []ontario.Option{ontario.WithNetworkScale(0)},
	})

	resp := postQuery(t, ts.URL, lslod.Queries()[0].Text,
		url.Values{"mode": {"aware"}, "network": {"gamma1"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("parameterized query status = %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	respBad := postQuery(t, ts.URL, lslod.Queries()[0].Text, url.Values{"mode": {"warp"}})
	defer respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status = %d, want 400", respBad.StatusCode)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/sparql", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	respPut, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer respPut.Body.Close()
	if respPut.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT status = %d, want 405", respPut.StatusCode)
	}
	if got := respPut.Header.Get("Allow"); got != "GET, POST" {
		t.Errorf("Allow header = %q", got)
	}
}
