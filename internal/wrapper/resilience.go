package wrapper

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ontario/internal/trace"
)

// This file is the shared resilience layer of the remote wrappers: every
// request to a live endpoint (HTTP SPARQL or database/sql) runs through
// HealthRegistry.Do, which applies a per-attempt timeout, bounded retries
// with exponential backoff and jitter, and a per-source circuit breaker.
// The registry doubles as the per-source health store: observed latency
// and failure rate are exported to /metrics and fed back into the cost
// model as the measured network profile of the source (replacing the
// static netsim gamma for remote sources).

// ResilienceConfig parameterizes the remote-source resilience layer. The
// zero value means "all defaults".
type ResilienceConfig struct {
	// Timeout bounds each individual attempt (request plus full response
	// read). Default 10s; negative disables the per-attempt timeout.
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after the first failure.
	// Default 3; negative means no retries.
	MaxRetries int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt. Default 50ms.
	RetryBase time.Duration
	// RetryMax caps the backoff. Default 2s.
	RetryMax time.Duration
	// BreakerThreshold is the number of consecutive failures that opens the
	// source's circuit. Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects requests before
	// letting one probe through (half-open). Default 5s.
	BreakerCooldown time.Duration
	// Seed fixes the jitter random stream (0 means 1).
	Seed int64
}

// Resilience defaults.
const (
	DefaultRemoteTimeout    = 10 * time.Second
	DefaultMaxRetries       = 3
	DefaultRetryBase        = 50 * time.Millisecond
	DefaultRetryMax         = 2 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	switch {
	case c.Timeout == 0:
		c.Timeout = DefaultRemoteTimeout
	case c.Timeout < 0:
		c.Timeout = 0
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// BreakerState enumerates the circuit-breaker states of one source.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests fail fast with ErrCircuitOpen until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; everything else
	// fails fast until it settles the state.
	BreakerHalfOpen
)

// String names the state (the /metrics gauge value is the integer).
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ErrCircuitOpen reports a request rejected without contacting the source
// because its circuit breaker is open.
var ErrCircuitOpen = errors.New("wrapper: circuit breaker open")

// permanentError marks an error that retrying cannot fix (e.g. an HTTP
// 4xx: the request itself is wrong).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable for HealthRegistry.Do.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// SourceHealth is a snapshot of one source's resilience state.
type SourceHealth struct {
	Source string
	State  BreakerState
	// Requests counts attempts issued (retries included), Failures the
	// failed ones, Retries the re-attempts after a failure.
	Requests int64
	Failures int64
	Retries  int64
	// ConsecutiveFailures is the current failure streak (reset by any
	// success).
	ConsecutiveFailures int
	// FailureRate is Failures/Requests.
	FailureRate float64
	// Latency is the exponentially-weighted moving average of successful
	// attempt latencies (0 until the first success).
	Latency time.Duration
	// LastError is the most recent failure's message.
	LastError string
}

// sourceHealth is the registry's mutable per-source record; the registry
// mutex guards it.
type sourceHealth struct {
	state       BreakerState
	openedAt    time.Time
	probing     bool
	consecFails int
	requests    int64
	failures    int64
	retries     int64
	ewmaMS      float64
	observed    bool
	lastErr     string
}

// ewmaAlpha weights the latest latency sample in the moving average.
const ewmaAlpha = 0.3

// HealthRegistry tracks per-source health and applies the resilience
// policy. It is shared across every execution of an engine (like the
// source limiter), so breaker state and measured latency reflect all
// traffic to a source. It is safe for concurrent use.
type HealthRegistry struct {
	cfg ResilienceConfig

	mu      sync.Mutex
	rng     *rand.Rand
	sources map[string]*sourceHealth
	nowFn   func() time.Time // test hook
}

// NewHealthRegistry returns a registry applying cfg (zero value = all
// defaults).
func NewHealthRegistry(cfg ResilienceConfig) *HealthRegistry {
	cfg = cfg.withDefaults()
	return &HealthRegistry{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		sources: make(map[string]*sourceHealth),
		nowFn:   time.Now,
	}
}

// Config returns the resolved configuration.
func (h *HealthRegistry) Config() ResilienceConfig { return h.cfg }

func (h *HealthRegistry) source(id string) *sourceHealth {
	s, ok := h.sources[id]
	if !ok {
		s = &sourceHealth{}
		h.sources[id] = s
	}
	return s
}

// allow gates one attempt through the source's breaker: err is nil when
// the attempt may proceed, ErrCircuitOpen when the source is failing
// fast. probe reports that the caller was granted the single half-open
// probe slot; the caller must settle it (recordSuccess/recordFailure) or
// give it back (clearProbe) — leaking it would reject every later
// request until restart.
func (h *HealthRegistry) allow(id string) (probe bool, err error) {
	if h.cfg.BreakerThreshold < 0 {
		return false, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.source(id)
	switch s.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if h.nowFn().Sub(s.openedAt) < h.cfg.BreakerCooldown {
			return false, ErrCircuitOpen
		}
		s.state = BreakerHalfOpen
		s.probing = true
		return true, nil
	default: // half-open
		if s.probing {
			return false, ErrCircuitOpen
		}
		s.probing = true
		return true, nil
	}
}

// clearProbe releases a half-open probe slot whose attempt ended without
// a verdict (the parent context was cancelled mid-attempt): the breaker
// returns to open and the cooldown restarts, so a later request can
// probe again.
func (h *HealthRegistry) clearProbe(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.source(id)
	s.probing = false
	if s.state == BreakerHalfOpen {
		s.state = BreakerOpen
		s.openedAt = h.nowFn()
	}
}

func (h *HealthRegistry) recordSuccess(id string, latency time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.source(id)
	s.requests++
	s.consecFails = 0
	s.probing = false
	s.state = BreakerClosed
	s.lastErr = ""
	ms := float64(latency) / float64(time.Millisecond)
	if !s.observed {
		s.ewmaMS, s.observed = ms, true
	} else {
		s.ewmaMS = ewmaAlpha*ms + (1-ewmaAlpha)*s.ewmaMS
	}
}

func (h *HealthRegistry) recordFailure(id string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.source(id)
	s.requests++
	s.failures++
	s.consecFails++
	s.lastErr = err.Error()
	if h.cfg.BreakerThreshold < 0 {
		return
	}
	if s.state == BreakerHalfOpen {
		// The probe failed: back to open, restart the cooldown.
		s.state = BreakerOpen
		s.openedAt = h.nowFn()
		s.probing = false
		return
	}
	if s.consecFails >= h.cfg.BreakerThreshold {
		s.state = BreakerOpen
		s.openedAt = h.nowFn()
	}
}

func (h *HealthRegistry) recordRetry(id string) {
	h.mu.Lock()
	h.source(id).retries++
	h.mu.Unlock()
}

// backoff returns the jittered backoff before retry number attempt
// (0-based): base·2^attempt capped at RetryMax, scaled by a random factor
// in [0.5, 1.0) so synchronized clients spread out.
func (h *HealthRegistry) backoff(attempt int) time.Duration {
	d := h.cfg.RetryBase << uint(attempt)
	if d <= 0 || d > h.cfg.RetryMax {
		d = h.cfg.RetryMax
	}
	h.mu.Lock()
	f := 0.5 + 0.5*h.rng.Float64()
	h.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// Do runs op under the source's resilience policy: breaker gate, per-
// attempt timeout, bounded retries with exponential backoff and jitter.
// op must be idempotent — it may run up to 1+MaxRetries times. Errors
// wrapped with Permanent (and parent-context cancellation) stop the retry
// loop immediately; a parent cancellation is returned as the context's
// error and does not count against the source — but if the cancelled
// attempt held the half-open probe, the probe is released (breaker back
// to open, cooldown restarted) so the source is not wedged forever.
func (h *HealthRegistry) Do(ctx context.Context, sourceID string, op func(context.Context) error) error {
	probe, err := h.allow(sourceID)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if h.cfg.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, h.cfg.Timeout)
		}
		start := h.nowFn()
		opErr := op(actx)
		cancel()
		if opErr == nil {
			h.recordSuccess(sourceID, h.nowFn().Sub(start))
			return nil
		}
		if ctx.Err() != nil {
			// The query itself was cancelled or timed out while the attempt
			// ran: not the source's fault, and retrying is pointless. A probe
			// this attempt held never got its verdict — give it back.
			if probe {
				h.clearProbe(sourceID)
			}
			return ctx.Err()
		}
		h.recordFailure(sourceID, opErr)
		probe = false // the failure settled any probe this attempt held
		lastErr = opErr
		if IsPermanent(opErr) || attempt >= h.cfg.MaxRetries {
			return lastErr
		}
		h.recordRetry(sourceID)
		select {
		case <-time.After(h.backoff(attempt)):
		case <-ctx.Done():
			return ctx.Err()
		}
		// This goroutine's own failures may have opened the breaker.
		if probe, err = h.allow(sourceID); err != nil {
			return lastErr
		}
	}
}

// Hop runs op under Do as one hop to a live source and, when ctx carries
// a query trace, records the hop as one remote span: its attempts, the
// breaker state after it, its latency and its error. op may fill in the
// span's QueryID and Children from the peer's answer.
func (h *HealthRegistry) Hop(ctx context.Context, sourceID string, op func(actx context.Context, span *trace.RemoteSpan) error) error {
	span := trace.RemoteSpan{Source: sourceID}
	started := time.Now()
	err := h.Do(ctx, sourceID, func(actx context.Context) error {
		span.Attempts++
		return op(actx, &span)
	})
	if qt := trace.FromContext(ctx); qt != nil {
		span.Breaker = h.State(sourceID).String()
		span.LatencyMS = float64(time.Since(started)) / float64(time.Millisecond)
		if err != nil {
			span.Error = err.Error()
		}
		qt.AddRemoteSpan(span)
	}
	return err
}

// ReportFailure records one externally observed failure against the
// source. Do covers request/response exchanges end to end, but a
// streaming consumer (the cluster's worker links) detects failures after
// Do's attempt window has closed — mid-stream, with results already
// forwarded, where a retry is no longer safe. Reporting keeps those
// failures feeding the source's breaker and failure rate.
func (h *HealthRegistry) ReportFailure(sourceID string, err error) {
	h.recordFailure(sourceID, err)
}

// State returns the source's breaker state.
func (h *HealthRegistry) State(sourceID string) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.source(sourceID).state
}

// MeasuredLatency returns the source's observed per-request latency for
// the cost model: the EWMA of successful attempts inflated by the failure
// rate (a source answering in 2ms but failing half the time effectively
// costs a retry's worth of extra round trips). ok is false until the
// source has completed at least one successful request.
func (h *HealthRegistry) MeasuredLatency(sourceID string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sources[sourceID]
	if !ok || !s.observed {
		return 0, false
	}
	rate := 0.0
	if s.requests > 0 {
		rate = float64(s.failures) / float64(s.requests)
	}
	if rate > 0.9 {
		rate = 0.9
	}
	// Expected attempts per success under independent failures: 1/(1-p).
	eff := s.ewmaMS / (1 - rate)
	return time.Duration(eff * float64(time.Millisecond)), true
}

// Snapshot returns every tracked source's health, sorted by source ID.
func (h *HealthRegistry) Snapshot() []SourceHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SourceHealth, 0, len(h.sources))
	for id, s := range h.sources {
		sh := SourceHealth{
			Source:              id,
			State:               s.state,
			Requests:            s.requests,
			Failures:            s.failures,
			Retries:             s.retries,
			ConsecutiveFailures: s.consecFails,
			Latency:             time.Duration(s.ewmaMS * float64(time.Millisecond)),
			LastError:           s.lastErr,
		}
		if s.requests > 0 {
			sh.FailureRate = float64(s.failures) / float64(s.requests)
		}
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
