package ontario

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestNormalizeQueryPreservesLiterals: whitespace outside string literals
// collapses (formatting must not defeat the cache) but whitespace INSIDE a
// literal is significant — two queries differing only there must get
// distinct keys.
func TestNormalizeQueryPreservesLiterals(t *testing.T) {
	norm := func(text string) string { return string(appendNormalized(nil, text)) }
	a := "SELECT ?v  WHERE {\n\t?s <http://p> ?v .\n FILTER (?v = \"New York\") }"
	b := "SELECT ?v WHERE { ?s <http://p> ?v . FILTER (?v = \"New York\") }"
	if norm(a) != norm(b) {
		t.Errorf("formatting-only difference changed the key:\n%q\n%q", norm(a), norm(b))
	}
	if got := norm("  \n" + b + "\n"); got != b {
		t.Errorf("leading/trailing whitespace kept: %q", got)
	}
	c := strings.Replace(a, "New York", "New  York", 1)
	if norm(a) == norm(c) {
		t.Errorf("whitespace inside a literal was collapsed: %q", norm(c))
	}
	d := `SELECT ?v WHERE { ?s <http://p> "esc\" quote  here" }`
	e := `SELECT ?v WHERE { ?s <http://p> "esc\" quote here" }`
	if norm(d) == norm(e) {
		t.Error("escaped quote ended the literal early")
	}
	f := "SELECT ?v WHERE { ?s <http://p> 'single  quoted' }"
	g := "SELECT ?v WHERE { ?s <http://p> 'single quoted' }"
	if norm(f) == norm(g) {
		t.Error("single-quoted literal was collapsed")
	}
}

// TestPlanCacheEviction: the cache is an LRU bounded at preparedCacheCap —
// filling it past the cap evicts exactly the least recently used plan,
// and a lookup counts as a use.
func TestPlanCacheEviction(t *testing.T) {
	c := newPreparedCache()
	key := func(i int) string { return "q" + strconv.Itoa(i) }
	plans := make([]*Prepared, preparedCacheCap+1)
	for i := 0; i < preparedCacheCap; i++ {
		plans[i] = &Prepared{}
		c.put(key(i), plans[i])
	}
	if c.get([]byte(key(0))) != plans[0] { // q0 becomes most recent; q1 is now the oldest
		t.Fatal("q0 missing before the cap was reached")
	}
	plans[preparedCacheCap] = &Prepared{}
	c.put(key(preparedCacheCap), plans[preparedCacheCap])
	if c.get([]byte(key(1))) != nil {
		t.Error("the least recently used plan survived eviction")
	}
	for _, i := range []int{0, 2, preparedCacheCap - 1, preparedCacheCap} {
		if c.get([]byte(key(i))) != plans[i] {
			t.Errorf("%s missing after one eviction", key(i))
		}
	}
	if n := c.ll.Len(); n != preparedCacheCap || len(c.m) != preparedCacheCap {
		t.Errorf("cache holds %d list / %d map entries, want %d", n, len(c.m), preparedCacheCap)
	}
}

// TestLatencyFingerprintBuckets pins the adaptive part of the plan-cache
// key: a plan optimized with measured remote latency must be re-planned
// when a source's observed health drifts materially (different bucket ⇒
// different key ⇒ cache miss), while sample jitter within a bucket and
// engines with no remote observations leave the key unchanged.
func TestLatencyFingerprintBuckets(t *testing.T) {
	fp := func(lat time.Duration, rate float64) string {
		return string(appendHealth(nil, []SourceHealth{{Source: "peer", Latency: lat, FailureRate: rate}}))
	}
	if got := appendHealth(nil, nil); len(got) != 0 {
		t.Errorf("fingerprint with no health = %q, want empty", got)
	}
	if got := fp(0, 0); got != "" {
		t.Errorf("fingerprint with no successful observation = %q, want empty", got)
	}
	// Jitter inside one power-of-two bucket: same key.
	if a, b := fp(9*time.Millisecond, 0), fp(11*time.Millisecond, 0); a != b {
		t.Errorf("in-bucket jitter changed the key: %q vs %q", a, b)
	}
	// An order-of-magnitude drift: different key.
	if a, b := fp(4*time.Millisecond, 0), fp(40*time.Millisecond, 0); a == b {
		t.Errorf("4ms and 40ms share the key %q — stale plans would never re-optimize", a)
	}
	// Health drift at constant latency: a source going from reliable to 50%
	// failures doubles its effective cost and must change the key.
	if a, b := fp(10*time.Millisecond, 0), fp(10*time.Millisecond, 0.5); a == b {
		t.Errorf("failure-rate drift did not change the key %q", a)
	}
}

// TestPlanFingerprintSeparatesPlanOptions: every plan-shaping option gets
// its own key, and the execution-time ones (scale, seed) share one.
func TestPlanFingerprintSeparatesPlanOptions(t *testing.T) {
	fp := func(opts ...Option) string { return string(newConfig(opts).appendFingerprint(nil)) }
	base := fp()
	if fp(WithNetworkScale(0), WithSeed(7)) != base {
		t.Error("execution-time options changed the plan key")
	}
	seen := map[string]string{base: "default"}
	for name, o := range map[string]Option{
		"aware": WithAwarePlan(), "unaware": WithUnawarePlan(), "h2": WithHeuristic2(),
		"network": WithNetwork(Gamma2), "optimizer": WithOptimizer(OptimizerGreedy),
		"join": WithJoinOperator(JoinBind), "naive": WithNaiveTranslation(),
		"block":       WithBindBlockSize(8),
		"concurrency": WithBindConcurrency(3), "batch": WithBatchSize(16),
	} {
		k := fp(o)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share the plan key %q", name, prev, k)
		}
		seen[k] = name
	}
}
