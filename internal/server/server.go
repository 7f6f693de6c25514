// Package server exposes one shared ontario.Engine as a concurrent SPARQL
// Protocol-style HTTP endpoint. It contributes the serving layer the
// single-shot CLI lacks:
//
//   - admission control: a configurable maximum of concurrently executing
//     queries plus a bounded wait queue; requests beyond both get 503 with
//     a Retry-After hint instead of piling onto the engine;
//   - per-source backpressure: combined with ontario.WithSourceLimit, a
//     burst of bind-join blocks from many queries queues at each source's
//     semaphore instead of stampeding it;
//   - streaming results: answers are written as application/sparql-results+json
//     while the executor produces them, so the first solution is on the
//     wire at time-to-first-answer, not at query completion;
//   - cancellation: every query runs under the request context with a
//     per-query deadline; a client disconnect tears the whole plan down
//     through context.Context;
//   - plan caching: requests go through the engine's lake-lifetime plan
//     cache (see ontario.Engine.PrepareCached), so a repeated query skips
//     parsing and planning; hits and misses are exported on /metrics;
//   - EXPLAIN: ?explain=1 renders the (cached) plan with the cost model's
//     estimates instead of executing it;
//   - observability: /metrics exports the counters and latency histograms
//     recorded through internal/trace in Prometheus text format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/buildinfo"
	"ontario/internal/trace"
)

// Metric names exported on /metrics.
const (
	MetricQueries       = "ontario_queries_total"
	MetricRejected      = "ontario_queries_rejected_total"
	MetricQueueTimeout  = "ontario_queries_queue_timeout_total"
	MetricFailed        = "ontario_queries_failed_total"
	MetricAnswers       = "ontario_answers_total"
	MetricMessages      = "ontario_messages_total"
	MetricQueryDuration = "ontario_query_duration_ms"
	MetricTTFA          = "ontario_time_to_first_answer_ms"
	MetricSourceDelay   = "ontario_source_delay_ms"
	MetricPlanCacheHits = "ontario_plan_cache_hits_total"
	MetricPlanCacheMiss = "ontario_plan_cache_misses_total"
	// MetricOperatorTime is the per-operator wall-time histogram, labeled
	// op=<operator kind> ("service", "hash-join", "bind-join", ...).
	MetricOperatorTime = "ontario_operator_time_ms"
	// MetricCardError is the estimate-vs-actual cardinality error
	// histogram: |log10((actual+1)/(estimated+1))| per cost-estimated plan
	// node, so 1.0 means the estimate was an order of magnitude off — the
	// divergence signal adaptive re-optimization keys on.
	MetricCardError = "ontario_cardinality_error_log10"
)

// retryAfterSeconds is the Retry-After hint of a 503 response.
const retryAfterSeconds = "1"

// maxQueryBytes caps a POST body, raw or form-encoded; a longer body is
// refused with 413 rather than cut short and executed.
const maxQueryBytes = 1 << 20

// cardErrorBuckets buckets the cardinality error histogram in log10 units
// (0.3 ≈ 2x off, 1 = 10x off, 2 = 100x off).
var cardErrorBuckets = []float64{0.1, 0.3, 0.5, 1, 1.5, 2, 3, 4}

// Config parameterizes the serving layer.
type Config struct {
	// MaxConcurrent is the maximum number of queries executing at once
	// (default 4).
	MaxConcurrent int
	// QueueDepth is the maximum number of admitted queries waiting for an
	// execution slot; a request arriving when the queue is full is rejected
	// with 503 (default 16; negative disables queueing entirely).
	QueueDepth int
	// QueryTimeout is the per-query deadline; a request may lower it with
	// the timeout form parameter but never raise it (default 30s).
	QueryTimeout time.Duration
	// DefaultOptions are applied to every query before the per-request
	// mode/network parameters.
	DefaultOptions []ontario.Option
	// SlowQueryLogSize bounds the ring buffer behind /debug/queries, which
	// records every completed query with its plan, actuals and per-source
	// health (default 128; negative disables the log).
	SlowQueryLogSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger, when non-nil, receives one structured access-log line per
	// /sparql request, correlated with the query ID from the tracing
	// layer.
	Logger *slog.Logger
	// ClusterStatus, when non-nil, reports the coordinator's worker-pool
	// state; /healthz embeds it and /metrics renders per-worker gauge
	// families from it. The server stays ignorant of the cluster
	// transport — cmd/ontario-server wires the closure.
	ClusterStatus func() []WorkerStatus
}

// WorkerStatus is one cluster worker's health as the serving layer
// reports it (a transport-free mirror of the cluster client's view).
type WorkerStatus struct {
	Addr            string `json:"addr"`
	Up              bool   `json:"up"`
	Breaker         string `json:"breaker,omitempty"`
	Err             string `json:"err,omitempty"`
	Partition       int    `json:"partition"`
	Of              int    `json:"of"`
	Scheme          string `json:"scheme,omitempty"`
	Epoch           int64  `json:"epoch,omitempty"`
	ActiveFragments int64  `json:"active_fragments"`
	QueuedFragments int64  `json:"queued_fragments"`
	BatchesIn       int64  `json:"batches_in"`
	BatchesOut      int64  `json:"batches_out"`
	BytesIn         int64  `json:"bytes_in"`
	BytesOut        int64  `json:"bytes_out"`
	DictDeltaBytes  int64  `json:"dict_delta_bytes"`
	// RemapEntries is the current size of the persistent link's remap
	// table (how many distinct terms have crossed this link), not a
	// cumulative per-task sum.
	RemapEntries int64 `json:"remap_entries"`
	Reconnects   int64 `json:"reconnects"`
	// The worker's own response cache: requests replayed from it, requests
	// that evaluated a source, entries evicted at the cap, live entries.
	CacheHits      int64 `json:"response_cache_hits"`
	CacheMisses    int64 `json:"response_cache_misses"`
	CacheEvictions int64 `json:"response_cache_evictions"`
	CacheEntries   int64 `json:"response_cache_entries"`
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.SlowQueryLogSize == 0 {
		c.SlowQueryLogSize = 128
	}
	return c
}

// Stats is a snapshot of the admission state.
type Stats struct {
	// Executing is the number of queries currently running.
	Executing int
	// PeakExecuting is the highest number of simultaneously running
	// queries observed.
	PeakExecuting int
	// Waiting is the number of admitted queries waiting for a slot.
	Waiting int
}

// Server is the HTTP serving layer over one shared engine.
type Server struct {
	eng     *ontario.Engine
	cfg     Config
	metrics *trace.Metrics
	mux     *http.ServeMux
	admit   chan struct{}
	slow    *slowLog // nil when the slow-query log is disabled
	started time.Time

	mu            sync.Mutex
	waiting       int
	executing     int
	peakExecuting int
}

// New returns a server over the engine. The engine must be shared — that
// is the point: all queries run on one engine, bounded by this server's
// admission control and the engine's per-source limits.
func New(eng *ontario.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		metrics: trace.NewMetrics(),
		mux:     http.NewServeMux(),
		admit:   make(chan struct{}, cfg.MaxConcurrent),
		slow:    newSlowLog(cfg.SlowQueryLogSize),
		started: time.Now(),
	}
	s.mux.HandleFunc("/sparql", s.handleSparql)
	s.mux.HandleFunc("/molecules", s.handleMolecules)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// engine returns the engine currently serving queries. Handlers capture
// it once per request so a concurrent SetEngine cannot split one request
// across two engines.
func (s *Server) engine() *ontario.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// SetEngine atomically replaces the serving engine — ontario-server uses
// this when deferred peer discovery completes and the lake is rebuilt
// with remote sources. Plans come from the new engine's lake; in-flight
// queries finish on the engine they started with.
func (s *Server) SetEngine(eng *ontario.Engine) {
	s.mu.Lock()
	s.eng = eng
	s.mu.Unlock()
}

// Metrics exposes the server's metric registry.
func (s *Server) Metrics() *trace.Metrics { return s.metrics }

// Stats returns a snapshot of the admission state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Executing: s.executing, PeakExecuting: s.peakExecuting, Waiting: s.waiting}
}

// errSaturated reports a full execution pool and wait queue.
var errSaturated = fmt.Errorf("server saturated: query queue full")

// acquire admits one query: it returns a release function when a slot was
// obtained, errSaturated when the server is at capacity (execution slots
// busy and wait queue full), or the context's error when the deadline
// expired or the client went away while queueing.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	grabbed := func() func() {
		s.mu.Lock()
		s.executing++
		if s.executing > s.peakExecuting {
			s.peakExecuting = s.executing
		}
		s.mu.Unlock()
		return func() {
			s.mu.Lock()
			s.executing--
			s.mu.Unlock()
			<-s.admit
		}
	}
	// Fast path: free execution slot.
	select {
	case s.admit <- struct{}{}:
		return grabbed(), nil
	default:
	}
	// Queue if there is room.
	s.mu.Lock()
	if s.waiting >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, errSaturated
	}
	s.waiting++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
	}()
	select {
	case s.admit <- struct{}{}:
		return grabbed(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// queryText extracts the SPARQL query per the SPARQL Protocol: GET with a
// query parameter, POST with application/sparql-query (raw body), or POST
// with form-encoded query=. The caller caps the body with
// http.MaxBytesReader.
func queryText(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		switch strings.TrimSpace(ct) {
		case "application/sparql-query", "text/plain", "":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", err
			}
			if len(body) == 0 {
				return "", fmt.Errorf("empty request body")
			}
			return string(body), nil
		case "application/x-www-form-urlencoded":
			if err := r.ParseForm(); err != nil {
				return "", err
			}
			q := r.PostForm.Get("query")
			if q == "" {
				return "", fmt.Errorf("missing query form parameter")
			}
			return q, nil
		default:
			return "", fmt.Errorf("unsupported content type %q", ct)
		}
	default:
		// Unreachable from handleSparql, which rejects other methods with
		// 405 before calling here.
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
}

// qparam returns a request parameter from the URL query or — for
// form-encoded POSTs, whose body queryText has already parsed — the POST
// form. The SPARQL Protocol sends everything in the form body on POST, so
// parameters must not silently vanish there; the URL wins when both are
// set.
func qparam(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.PostForm.Get(name)
}

// requestOptions derives the per-query options: the server defaults, then
// the request's mode/network/optimizer parameters.
func (s *Server) requestOptions(r *http.Request) ([]ontario.Option, error) {
	opts := append([]ontario.Option(nil), s.cfg.DefaultOptions...)
	switch mode := qparam(r, "mode"); mode {
	case "":
	case "aware":
		opts = append(opts, ontario.WithAwarePlan())
	case "unaware":
		opts = append(opts, ontario.WithUnawarePlan())
	default:
		return nil, fmt.Errorf("unknown mode %q (want aware or unaware)", mode)
	}
	if net := qparam(r, "network"); net != "" {
		profile, err := ontario.ProfileByName(net)
		if err != nil {
			return nil, err
		}
		opts = append(opts, ontario.WithNetwork(profile))
	}
	if opt := qparam(r, "optimizer"); opt != "" {
		m, err := ontario.OptimizerByName(opt)
		if err != nil {
			return nil, err
		}
		opts = append(opts, ontario.WithOptimizer(m))
	}
	return opts, nil
}

// prepare resolves the request's plan through the engine's plan cache and
// counts the lookup as a hit or a miss.
func (s *Server) prepare(eng *ontario.Engine, text string, opts []ontario.Option) (*ontario.Prepared, bool, error) {
	prep, hit, err := eng.PrepareCached(text, opts...)
	if err != nil {
		return nil, false, err
	}
	if hit {
		s.metrics.Inc(MetricPlanCacheHits)
	} else {
		s.metrics.Inc(MetricPlanCacheMiss)
	}
	return prep, hit, nil
}

// queryDeadline resolves the effective per-query timeout: the server's
// QueryTimeout, lowered (never raised) by a timeout form parameter.
func (s *Server) queryDeadline(r *http.Request) time.Duration {
	d := s.cfg.QueryTimeout
	if t := qparam(r, "timeout"); t != "" {
		if req, err := time.ParseDuration(t); err == nil && req > 0 && req < d {
			d = req
		}
	}
	return d
}

func (s *Server) reject(w http.ResponseWriter) {
	s.metrics.Inc(MetricRejected)
	w.Header().Set("Retry-After", retryAfterSeconds)
	http.Error(w, "server saturated: query queue full", http.StatusServiceUnavailable)
}

func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return
	}

	// Every request gets a trace identity up front — assigned fresh, or
	// adopted from an incoming W3C traceparent header when this node is a
	// federated hop of an upstream coordinator. The query ID goes out as a
	// response header immediately so even failed requests correlate.
	qt, ok := trace.ParseTraceparent(r.Header.Get("Traceparent"))
	if !ok {
		qt = trace.NewQueryTrace()
	}
	w.Header().Set("X-Ontario-Query-Id", qt.QueryID)

	accessLog := func(status int, extra ...any) {
		if s.cfg.Logger == nil {
			return
		}
		args := append([]any{
			slog.String("query_id", qt.QueryID),
			slog.String("trace_id", qt.TraceID),
			slog.String("method", r.Method),
			slog.Int("status", status),
			slog.Duration("duration", time.Since(started)),
		}, extra...)
		s.cfg.Logger.Info("sparql", args...)
	}

	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
	text, err := queryText(r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		accessLog(status, slog.String("error", err.Error()))
		return
	}
	opts, err := s.requestOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		accessLog(http.StatusBadRequest, slog.String("error", err.Error()))
		return
	}

	eng := s.engine()

	// EXPLAIN: plan (through the cache) and render without executing — no
	// admission slot needed, planning is engine-local.
	if explain := qparam(r, "explain"); explain == "1" || explain == "true" {
		prep, cacheHit, err := s.prepare(eng, text, opts)
		if err != nil {
			s.metrics.Inc(MetricFailed)
			http.Error(w, err.Error(), http.StatusBadRequest)
			accessLog(http.StatusBadRequest, slog.String("error", err.Error()))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, prep.Explain())
		accessLog(http.StatusOK, slog.Bool("explain", true), slog.Bool("plan_cache_hit", cacheHit))
		return
	}
	wantAnalyze := qparam(r, "analyze") == "1" || qparam(r, "analyze") == "true"

	// The query context: cancelled by client disconnect (request context)
	// or the per-query deadline, and propagated into the executor and the
	// wrappers. The query trace rides along so the executor adopts this
	// request's identity and remote hops forward its traceparent.
	ctx, cancel := context.WithTimeout(r.Context(), s.queryDeadline(r))
	defer cancel()
	ctx = trace.WithQuery(ctx, qt)

	release, aerr := s.acquire(ctx)
	switch aerr {
	case nil:
	case errSaturated:
		s.reject(w)
		accessLog(http.StatusServiceUnavailable, slog.String("error", "saturated"))
		return
	default:
		// The deadline expired (or the client left) while the request was
		// queued — the server was queueable, not saturated, so this is a
		// timeout, not a rejection.
		s.metrics.Inc(MetricQueueTimeout)
		http.Error(w, "query deadline expired while waiting for an execution slot",
			http.StatusGatewayTimeout)
		accessLog(http.StatusGatewayTimeout, slog.String("error", "queue timeout"))
		return
	}
	defer release()

	prep, cacheHit, err := s.prepare(eng, text, opts)
	if err != nil {
		s.metrics.Inc(MetricFailed)
		http.Error(w, err.Error(), http.StatusBadRequest)
		accessLog(http.StatusBadRequest, slog.String("error", err.Error()))
		return
	}
	res, err := eng.QueryPrepared(ctx, prep, opts...)
	if err != nil {
		// The query was already parsed and planned — a failure here is the
		// execution's, not the client's, so 4xx would be a lie.
		s.metrics.Inc(MetricFailed)
		status := execStatus(err)
		http.Error(w, err.Error(), status)
		accessLog(status, slog.String("error", err.Error()))
		return
	}
	defer res.Close()
	s.metrics.Inc(MetricQueries)

	w.Header().Set("Content-Type", "application/sparql-results+json")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Trailer", "X-Ontario-Answers, X-Ontario-Messages, X-Ontario-TTFA-Ms, X-Ontario-Error, X-Ontario-Spans")
	w.WriteHeader(http.StatusOK)

	enc := newResultsEncoder(w, res.Vars())
	flusher, _ := w.(http.Flusher)
	writeOK := enc.writeHead() == nil
	if writeOK && flusher != nil {
		flusher.Flush()
	}

	// Solutions are pulled and written one exchange batch at a time (via
	// the internal bridge — the exported cursor API stays per-binding):
	// one Write and one Flush per batch instead of per solution. The
	// cursor pre-encodes the batch (ResultsNextJSON) so terms are
	// materialized from dictionary IDs straight into the response bytes,
	// each distinct term marshaled once per lake.
	answers := 0
	flushedAnswers := false
	for {
		payload, n, ok := bridge.ResultsNextJSON(res)
		if !ok {
			break
		}
		if answers == 0 && n > 0 {
			s.metrics.Observe(MetricTTFA, res.Stats().TimeToFirstAnswer)
		}
		answers += n
		if writeOK && enc.writeRaw(payload, n) != nil {
			// The connection is gone (or broken): stop writing but keep
			// draining; cancellation closes the cursor promptly.
			writeOK = false
			cancel()
			continue
		}
		if writeOK && n > 0 && !flushedAnswers && flusher != nil {
			// Push the first solutions to the client immediately — the
			// time-to-first-answer clients measure is real. Later batches
			// ride the response's own chunk buffer: one write syscall per
			// buffer fill instead of one per exchange batch.
			flusher.Flush()
			flushedAnswers = true
		}
	}
	analysis := res.Analyze()
	// A failure after the 200 went out (a source died mid-query, the
	// deadline expired mid-stream) can only be signalled in-band: the
	// X-Ontario-Error trailer names it and the JSON document is left
	// unterminated, so strict clients see a truncated body rather than a
	// silently-short result set.
	execErr := res.Err()
	if execErr != nil {
		s.metrics.Inc(MetricFailed)
		w.Header().Set("X-Ontario-Error",
			strings.ReplaceAll(strings.ReplaceAll(execErr.Error(), "\n", " "), "\r", " "))
	} else if writeOK {
		if wantAnalyze {
			_ = enc.writeAnalyzeTail(analysis)
		} else {
			_ = enc.writeTail()
		}
	}
	// The spans this node fanned out (with their nested children) return
	// to a federating caller in a trailer, so a coordinator sees the whole
	// tree; sent on failures too — a broken hop is exactly what the
	// coordinator wants to see.
	if spans := qt.RemoteSpans(); len(spans) > 0 {
		if doc, err := json.Marshal(spans); err == nil {
			w.Header().Set("X-Ontario-Spans", string(doc))
		}
	}
	st := res.Stats()

	s.metrics.Add(MetricAnswers, int64(st.Answers))
	s.metrics.Add(MetricMessages, int64(st.Messages))
	s.metrics.Observe(MetricQueryDuration, st.Duration)
	for src, d := range st.SourceDelays {
		s.metrics.ObserveSource(MetricSourceDelay, src, d)
	}
	s.recordAnalysis(analysis)

	w.Header().Set("X-Ontario-Answers", fmt.Sprintf("%d", st.Answers))
	w.Header().Set("X-Ontario-Messages", fmt.Sprintf("%d", st.Messages))
	w.Header().Set("X-Ontario-TTFA-Ms", fmt.Sprintf("%.3f", float64(st.TimeToFirstAnswer)/float64(time.Millisecond)))

	status := http.StatusOK
	rec := QueryRecord{
		QueryID:    qt.QueryID,
		TraceID:    qt.TraceID,
		When:       started,
		Query:      text,
		Status:     status,
		Answers:    st.Answers,
		Messages:   st.Messages,
		DurationMS: float64(st.Duration) / float64(time.Millisecond),
		TTFAMS:     float64(st.TimeToFirstAnswer) / float64(time.Millisecond),
		Analysis:   analysis,
		Sources:    eng.SourceHealth(),
	}
	if execErr != nil {
		rec.Error = execErr.Error()
	}
	s.slow.add(rec)

	logArgs := []any{
		slog.Int("answers", st.Answers),
		slog.Int("messages", st.Messages),
		slog.Bool("plan_cache_hit", cacheHit),
	}
	if execErr != nil {
		logArgs = append(logArgs, slog.String("error", execErr.Error()))
	}
	accessLog(status, logArgs...)
}

// recordAnalysis folds one execution's actuals into the metric families:
// per-operator wall time, and — for every cost-estimated plan node — the
// estimate-vs-actual cardinality error in orders of magnitude.
func (s *Server) recordAnalysis(a *ontario.Analysis) {
	if a == nil || a.Plan == nil {
		return
	}
	var walk func(n *ontario.PlanSummary)
	walk = func(n *ontario.PlanSummary) {
		if n.Actual != nil {
			s.metrics.ObserveLabeled(MetricOperatorTime, "op", n.Actual.Kind, n.Actual.Wall)
			if n.Estimate != nil {
				err := math.Abs(math.Log10((float64(n.Actual.BindingsOut) + 1) / (n.Estimate.Cardinality + 1)))
				s.metrics.ObserveValue(MetricCardError, "", "", err, cardErrorBuckets)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a.Plan)
	for _, m := range a.Modifiers {
		s.metrics.ObserveLabeled(MetricOperatorTime, "op", m.Kind, m.Wall)
	}
}

// execStatus maps an execution failure to an HTTP status: 504 when the
// query deadline expired, 500 otherwise. 400 is reserved for parse and
// parameter errors, which are decided before execution starts.
func execStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// handleMolecules advertises the lake's molecule templates so peer
// ontario-server nodes can federate over this one (lake.DiscoverMolecules
// consumes this document).
func (s *Server) handleMolecules(w http.ResponseWriter, r *http.Request) {
	type predDoc struct {
		IRI         string `json:"iri"`
		LinkedClass string `json:"linked_class,omitempty"`
	}
	type molDoc struct {
		Class      string    `json:"class"`
		Predicates []predDoc `json:"predicates"`
		Sources    []string  `json:"sources,omitempty"`
	}
	mols := s.engine().Molecules()
	docs := make([]molDoc, 0, len(mols))
	for _, m := range mols {
		d := molDoc{Class: m.Class, Sources: m.Sources, Predicates: make([]predDoc, 0, len(m.Predicates))}
		for _, p := range m.Predicates {
			d.Predicates = append(d.Predicates, predDoc{IRI: p.IRI, LinkedClass: p.LinkedClass})
		}
		docs = append(docs, d)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(docs)
}

// metricRow is one metric family of /metrics: its name, its type, and the
// value it takes for one item (a source, a health record, a worker).
type metricRow[T any] struct {
	name, typ string
	value     func(T) string
}

// writeRows writes one family per row, with one sample per item under the
// item's label pairs (nil labels: unlabeled). Write errors are dropped:
// they mean the scraper went away, and there is no one left to tell.
func writeRows[T any](w io.Writer, items []T, labels func(T) []string, rows []metricRow[T]) {
	for _, row := range rows {
		samples := make([]trace.Sample, len(items))
		for i, it := range items {
			samples[i].Value = row.value(it)
			if labels != nil {
				samples[i].Labels = labels(it)
			}
		}
		_ = trace.WriteFamily(w, row.name, row.typ, samples)
	}
}

func itoa[I int | int64](v I) string { return strconv.FormatInt(int64(v), 10) }

func boolInt(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// shuffleStat is one direction of a worker's shuffle traffic.
type shuffleStat struct {
	worker, direction string
	batches, bytes    int64
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	eng := s.engine()
	writeRows(w, []Stats{s.Stats()}, nil, []metricRow[Stats]{
		{"ontario_executing_queries", "gauge", func(st Stats) string { return itoa(st.Executing) }},
		{"ontario_waiting_queries", "gauge", func(st Stats) string { return itoa(st.Waiting) }},
		{"ontario_peak_executing_queries", "gauge", func(st Stats) string { return itoa(st.PeakExecuting) }},
	})
	if lim := eng.SourceLimits(); lim != nil {
		sources := lim.Sources()
		sort.Strings(sources)
		writeRows(w, sources, func(src string) []string { return []string{"source", src} }, []metricRow[string]{
			{"ontario_source_inflight", "gauge", func(src string) string { return itoa(lim.InFlight(src)) }},
			{"ontario_source_inflight_peak", "gauge", func(src string) string { return itoa(lim.Peak(src)) }},
		})
	}
	if health := eng.SourceHealth(); len(health) > 0 {
		writeRows(w, health, func(h ontario.SourceHealth) []string { return []string{"source", h.Source, "state", h.State} }, []metricRow[ontario.SourceHealth]{
			{"ontario_source_breaker_open", "gauge", func(h ontario.SourceHealth) string { return boolInt(h.State != "closed") }},
		})
		writeRows(w, health, func(h ontario.SourceHealth) []string { return []string{"source", h.Source} }, []metricRow[ontario.SourceHealth]{
			{"ontario_source_requests_total", "counter", func(h ontario.SourceHealth) string { return itoa(h.Requests) }},
			{"ontario_source_failures_total", "counter", func(h ontario.SourceHealth) string { return itoa(h.Failures) }},
			{"ontario_source_retries_total", "counter", func(h ontario.SourceHealth) string { return itoa(h.Retries) }},
			{"ontario_source_failure_rate", "gauge", func(h ontario.SourceHealth) string {
				return strconv.FormatFloat(h.FailureRate, 'g', -1, 64)
			}},
			{"ontario_source_latency_ms", "gauge", func(h ontario.SourceHealth) string {
				return strconv.FormatFloat(float64(h.Latency)/float64(time.Millisecond), 'f', 3, 64)
			}},
		})
	}
	writeRows(w, []ontario.ResponseCacheStats{eng.ResponseCacheStats()}, nil, []metricRow[ontario.ResponseCacheStats]{
		{"ontario_response_cache_hits_total", "counter", func(rc ontario.ResponseCacheStats) string { return itoa(rc.Hits) }},
		{"ontario_response_cache_misses_total", "counter", func(rc ontario.ResponseCacheStats) string { return itoa(rc.Misses) }},
		{"ontario_response_cache_evictions_total", "counter", func(rc ontario.ResponseCacheStats) string { return itoa(rc.Evictions) }},
		{"ontario_response_cache_entries", "gauge", func(rc ontario.ResponseCacheStats) string { return itoa(rc.Entries) }},
	})
	var workers []WorkerStatus
	if s.cfg.ClusterStatus != nil {
		workers = s.cfg.ClusterStatus()
	}
	if len(workers) > 0 {
		writeRows(w, workers, func(ws WorkerStatus) []string { return []string{"worker", ws.Addr} }, []metricRow[WorkerStatus]{
			{"ontario_cluster_worker_up", "gauge", func(ws WorkerStatus) string { return boolInt(ws.Up) }},
			{"ontario_cluster_fragment_queue_depth", "gauge", func(ws WorkerStatus) string { return itoa(ws.QueuedFragments) }},
			{"ontario_cluster_active_fragments", "gauge", func(ws WorkerStatus) string { return itoa(ws.ActiveFragments) }},
			// Current size of each persistent link's remap table — a
			// per-link gauge, not a per-task cumulative sum.
			{"ontario_cluster_remap_entries", "gauge", func(ws WorkerStatus) string { return itoa(ws.RemapEntries) }},
			{"ontario_cluster_dict_delta_bytes", "gauge", func(ws WorkerStatus) string { return itoa(ws.DictDeltaBytes) }},
			{"ontario_cluster_response_cache_hits", "gauge", func(ws WorkerStatus) string { return itoa(ws.CacheHits) }},
			{"ontario_cluster_response_cache_misses", "gauge", func(ws WorkerStatus) string { return itoa(ws.CacheMisses) }},
			{"ontario_cluster_response_cache_evictions", "gauge", func(ws WorkerStatus) string { return itoa(ws.CacheEvictions) }},
			{"ontario_cluster_response_cache_entries", "gauge", func(ws WorkerStatus) string { return itoa(ws.CacheEntries) }},
			{"ontario_cluster_link_reconnects_total", "counter", func(ws WorkerStatus) string { return itoa(ws.Reconnects) }},
		})
		shuffle := make([]shuffleStat, 0, 2*len(workers))
		for _, ws := range workers {
			shuffle = append(shuffle,
				shuffleStat{ws.Addr, "in", ws.BatchesIn, ws.BytesIn},
				shuffleStat{ws.Addr, "out", ws.BatchesOut, ws.BytesOut})
		}
		writeRows(w, shuffle, func(st shuffleStat) []string { return []string{"worker", st.worker, "direction", st.direction} }, []metricRow[shuffleStat]{
			{"ontario_cluster_shuffled_batches", "gauge", func(st shuffleStat) string { return itoa(st.batches) }},
			{"ontario_cluster_shuffled_bytes", "gauge", func(st shuffleStat) string { return itoa(st.bytes) }},
		})
	}
	_ = s.metrics.WritePrometheus(w)
}

// handleHealthz reports liveness plus the operational identity of the
// node: build info, uptime, and the engine's headline counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, commit := buildinfo.Info()
	st := s.Stats()
	doc := struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		Commit        string  `json:"commit,omitempty"`
		GoVersion     string  `json:"go_version,omitempty"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Queries       int64   `json:"queries_total"`
		Failed        int64   `json:"queries_failed_total"`
		Rejected      int64   `json:"queries_rejected_total"`
		Answers       int64   `json:"answers_total"`
		Executing     int     `json:"executing"`
		Waiting       int     `json:"waiting"`
		PeakExecuting int     `json:"peak_executing"`

		Cluster []WorkerStatus `json:"cluster,omitempty"`
	}{
		Status:        "ok",
		Version:       version,
		Commit:        commit,
		GoVersion:     buildinfo.GoVersion(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Queries:       s.metrics.Counter(MetricQueries),
		Failed:        s.metrics.Counter(MetricFailed),
		Rejected:      s.metrics.Counter(MetricRejected),
		Answers:       s.metrics.Counter(MetricAnswers),
		Executing:     st.Executing,
		Waiting:       st.Waiting,
		PeakExecuting: st.PeakExecuting,
	}
	if s.cfg.ClusterStatus != nil {
		doc.Cluster = s.cfg.ClusterStatus()
		for _, ws := range doc.Cluster {
			if !ws.Up {
				doc.Status = "degraded"
				break
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// handleDebugQueries serves the slow-query log: the most recent completed
// queries (text, trace identity, plan with actuals, per-source health),
// most recent first, filtered to those at least as slow as the optional
// threshold parameter (a Go duration, e.g. ?threshold=250ms).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		http.Error(w, "slow-query log disabled", http.StatusNotFound)
		return
	}
	var threshold time.Duration
	if t := r.URL.Query().Get("threshold"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad threshold %q: %v", t, err), http.StatusBadRequest)
			return
		}
		threshold = d
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.slow.slower(threshold))
}
