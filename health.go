package ontario

import (
	"time"

	"ontario/internal/wrapper"
	"ontario/lake"
)

// Resilience is the engine's policy for talking to live remote sources
// (SPARQL endpoints and SQL databases): per-request timeouts, bounded
// retries with exponential backoff, and a per-source circuit breaker. The
// zero value means all defaults; a zero field means that field's default;
// a negative field disables the mechanism (no timeout, no retries, no
// breaker).
type Resilience struct {
	// Timeout bounds each individual attempt (default 10s; negative
	// disables the per-attempt deadline).
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after a failed request
	// (default 3; negative means fail on the first error).
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: base<<attempt capped at max, jittered (defaults 50ms and
	// 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold is the consecutive-failure streak that opens a
	// source's circuit breaker (default 5; negative disables the
	// breaker). BreakerCooldown is how long an open breaker rejects
	// requests before allowing a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed fixes the backoff jitter stream (default 1).
	Seed int64
}

// WithResilience installs the policy for the engine's remote sources. The
// policy is engine-wide: all queries share the per-source breakers and
// health accounting, so one query's failures protect the next.
func WithResilience(r Resilience) EngineOption {
	return func(e *Engine) {
		e.executor.Health = wrapper.NewHealthRegistry(wrapper.ResilienceConfig{
			Timeout:          r.Timeout,
			MaxRetries:       r.MaxRetries,
			RetryBase:        r.RetryBase,
			RetryMax:         r.RetryMax,
			BreakerThreshold: r.BreakerThreshold,
			BreakerCooldown:  r.BreakerCooldown,
			Seed:             r.Seed,
		})
	}
}

// SourceHealth is a snapshot of one remote source's observed behaviour
// under the engine's resilience policy.
type SourceHealth struct {
	// Source is the source ID.
	Source string
	// State is the source's circuit-breaker state: "closed", "open" or
	// "half-open".
	State string
	// Requests counts attempts issued (retries included), Failures the
	// failed ones, Retries the re-attempts after a failure.
	Requests int64
	Failures int64
	Retries  int64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// FailureRate is Failures/Requests.
	FailureRate float64
	// Latency is the moving average of successful request latencies; the
	// cost model prices calls against the source with this measured value
	// (inflated by the failure rate) instead of the static network
	// profile.
	Latency time.Duration
	// LastError is the most recent failure's message, "" when none.
	LastError string
}

// SourceHealth reports the engine's per-source health gauges, sorted by
// source ID. Sources appear after their first request.
func (e *Engine) SourceHealth() []SourceHealth {
	if e.executor.Health == nil {
		return nil
	}
	snap := e.executor.Health.Snapshot()
	out := make([]SourceHealth, len(snap))
	for i, s := range snap {
		out[i] = SourceHealth{
			Source:              s.Source,
			State:               s.State.String(),
			Requests:            s.Requests,
			Failures:            s.Failures,
			Retries:             s.Retries,
			ConsecutiveFailures: s.ConsecutiveFailures,
			FailureRate:         s.FailureRate,
			Latency:             s.Latency,
			LastError:           s.LastError,
		}
	}
	return out
}

// Molecules returns the molecule templates of the engine's lake — what an
// ontario-server node advertises on /molecules for peers to federate over
// (see lake.DiscoverMolecules).
func (e *Engine) Molecules() []lake.Molecule { return e.lake.Molecules() }
