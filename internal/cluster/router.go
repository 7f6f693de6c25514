package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ontario/internal/bridge"
)

// RouterConfig configures a replica router.
type RouterConfig struct {
	// Replicas are the coordinator/single-node base URLs to spread
	// queries over.
	Replicas []string
	// Budget is the shared admission budget: the number of queries in
	// flight across ALL replicas before the router answers 503. The
	// replicas' own admission control still applies per node; the shared
	// budget keeps a burst from saturating every replica's queue at
	// once. 0 means 4x replicas x 16.
	Budget int
	// RetryAfter is the hint sent with 503 responses. 0 means 1s.
	RetryAfter time.Duration
}

// Router spreads SPARQL clients over N replicas with plan-cache
// affinity: each query routes to the replica that rendezvous-hashing
// (highest random weight) assigns its normalized text, so a repeated
// query always lands where its plan — and the wrapper responses keyed to
// that plan — are already cached. Non-query endpoints proxy to the first
// replica; /healthz aggregates all of them.
type Router struct {
	replicas   []*url.URL
	budget     chan struct{}
	retryAfter time.Duration
	client     *http.Client

	inflight atomic.Int64
	rejected atomic.Int64
	routed   []atomic.Int64
}

// NewRouter returns a router over the replica base URLs.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: NewRouter needs at least one replica")
	}
	urls := make([]*url.URL, len(cfg.Replicas))
	for i, r := range cfg.Replicas {
		// A bare host:port fails url.Parse (the port reads as an opaque
		// path segment), so give scheme-less replicas http:// up front.
		if !strings.Contains(r, "://") {
			r = "http://" + r
		}
		u, err := url.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %q: %w", r, err)
		}
		urls[i] = u
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 64 * len(urls)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Router{
		replicas:   urls,
		budget:     make(chan struct{}, cfg.Budget),
		retryAfter: cfg.RetryAfter,
		client:     &http.Client{}, // no timeout: responses stream
		routed:     make([]atomic.Int64, len(urls)),
	}, nil
}

// pick rendezvous-hashes the normalized query text over the replicas.
func (rt *Router) pick(normalized string) int {
	best, bestW := 0, uint64(0)
	for i := range rt.replicas {
		h := fnv.New64a()
		h.Write([]byte(normalized))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(i)))
		if w := h.Sum64(); i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/sparql":
		rt.serveQuery(w, r)
	case r.URL.Path == "/healthz":
		rt.serveHealthz(w, r)
	default:
		rt.proxy(w, r, 0, nil)
	}
}

// queryFromRequest extracts the SPARQL query for affinity hashing,
// returning the (possibly re-read) body for forwarding.
func queryFromRequest(r *http.Request) (string, []byte, error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", nil, fmt.Errorf("missing query parameter")
		}
		return q, nil, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return "", nil, err
	}
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) == "application/x-www-form-urlencoded" {
		form, err := url.ParseQuery(string(body))
		if err != nil {
			return "", nil, err
		}
		q := form.Get("query")
		if q == "" {
			return "", nil, fmt.Errorf("missing query form parameter")
		}
		return q, body, nil
	}
	if len(body) == 0 {
		return "", nil, fmt.Errorf("empty request body")
	}
	return string(body), body, nil
}

func (rt *Router) serveQuery(w http.ResponseWriter, r *http.Request) {
	q, body, err := queryFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case rt.budget <- struct{}{}:
		defer func() { <-rt.budget }()
	default:
		rt.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((rt.retryAfter+time.Second-1)/time.Second)))
		http.Error(w, "router admission budget exhausted", http.StatusServiceUnavailable)
		return
	}
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	idx := rt.pick(bridge.NormalizeQuery(q))
	rt.routed[idx].Add(1)
	rt.proxy(w, r, idx, body)
}

// proxy forwards the request to replica idx, streaming the response
// through unchanged. body, when non-nil, replaces the already-consumed
// request body.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, idx int, body []byte) {
	target := *rt.replicas[idx]
	target.Path = r.URL.Path
	target.RawQuery = r.URL.RawQuery
	var rd io.Reader = r.Body
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), rd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := rt.client.Do(req)
	if err != nil {
		http.Error(w, "replica unavailable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// serveHealthz aggregates every replica's /healthz into one document:
// status "ok" only when every replica answers ok.
func (rt *Router) serveHealthz(w http.ResponseWriter, r *http.Request) {
	type replicaHealth struct {
		URL    string          `json:"url"`
		Status string          `json:"status"`
		Doc    json.RawMessage `json:"doc,omitempty"`
	}
	out := struct {
		Status   string          `json:"status"`
		Role     string          `json:"role"`
		Inflight int64           `json:"inflight"`
		Rejected int64           `json:"rejected"`
		Routed   []int64         `json:"routed"`
		Replicas []replicaHealth `json:"replicas"`
	}{
		Status:   "ok",
		Role:     "router",
		Inflight: rt.inflight.Load(),
		Rejected: rt.rejected.Load(),
		Replicas: make([]replicaHealth, len(rt.replicas)),
	}
	for i := range rt.routed {
		out.Routed = append(out.Routed, rt.routed[i].Load())
	}
	var wg sync.WaitGroup
	for i, u := range rt.replicas {
		wg.Add(1)
		go func(i int, base url.URL) {
			defer wg.Done()
			base.Path = "/healthz"
			rh := replicaHealth{URL: base.String(), Status: "down"}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base.String(), nil)
			if err == nil {
				if resp, err := rt.client.Do(req); err == nil {
					body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						rh.Status = "ok"
						rh.Doc = json.RawMessage(body)
					}
				}
			}
			out.Replicas[i] = rh
		}(i, *u)
	}
	wg.Wait()
	for _, rh := range out.Replicas {
		if rh.Status != "ok" {
			out.Status = "degraded"
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
