package ontario

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// preparedCache memoizes Prepared plans at lake lifetime. Planning is
// deterministic in (query text, resolved plan options, coarse source
// health), and a plan tree is read-only during execution, so one Prepared
// can back every engine over the catalog: a freshly built engine serving
// the same workload starts with the lake's plans already warm. (The
// wrapper response cache is lake-lifetime too and keys on request content,
// so its responses outlive any plan dropped here.)
type preparedCache struct {
	mu      sync.RWMutex
	entries map[string]*Prepared
}

// preparedCacheCap bounds the cache; crossing it drops everything (a
// workload with that many distinct plan keys is churn, not reuse).
const preparedCacheCap = 512

func newPreparedCache() *preparedCache {
	return &preparedCache{entries: make(map[string]*Prepared)}
}

func (c *preparedCache) get(key string) *Prepared {
	c.mu.RLock()
	p := c.entries[key]
	c.mu.RUnlock()
	return p
}

func (c *preparedCache) put(key string, p *Prepared) {
	c.mu.Lock()
	if len(c.entries) >= preparedCacheCap {
		clear(c.entries)
	}
	c.entries[key] = p
	c.mu.Unlock()
}

// fingerprint canonically renders every plan-shaping field of the config.
// The execution-time fields (network scale, seed) are excluded: they are
// honored when a prepared plan starts, not when it is planned.
func (c config) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m%d|h2=%t", c.mode, c.heuristic2)
	if c.networkSet {
		fmt.Fprintf(&b, "|net=%s:%g:%g", c.network.Name, c.network.Alpha, c.network.Beta)
	}
	if c.optimizer != nil {
		fmt.Fprintf(&b, "|opt=%d", *c.optimizer)
	}
	if c.joinOp != nil {
		fmt.Fprintf(&b, "|join=%d", *c.joinOp)
	}
	fmt.Fprintf(&b, "|naive=%t|triples=%t|bb=%d|bc=%d|bs=%d|pp=%d",
		c.naive, c.triples, c.bindBlock, c.bindConc, c.batchSize, c.probePar)
	return b.String()
}

// healthFingerprint buckets the engine's measured per-source health the
// same way the serving layer's plan cache does (failure-inflated latency
// EWMA to a power of two of milliseconds): a plan priced with live
// cost-model gamma is re-planned when a source drifts materially, and
// engines without remote observations share one key.
func (e *Engine) healthFingerprint() string {
	health := e.SourceHealth()
	if len(health) == 0 {
		return ""
	}
	var b strings.Builder
	for _, h := range health {
		if h.Latency <= 0 {
			continue
		}
		ms := float64(h.Latency) / float64(time.Millisecond)
		rate := h.FailureRate
		if rate > 0.9 {
			rate = 0.9
		}
		ms /= 1 - rate
		bucket := 0
		for v := ms; v >= 1; v /= 2 {
			bucket++
		}
		fmt.Fprintf(&b, "|%s:%d", h.Source, bucket)
	}
	return b.String()
}
