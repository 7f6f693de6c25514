package ontario

import (
	"container/list"
	"strconv"
	"sync"
	"time"
)

// preparedCache is the one plan cache: a size-bounded LRU of Prepared
// plans at lake lifetime. Planning is deterministic in (query text,
// resolved plan options, coarse source health), and a plan tree is
// read-only during execution, so one Prepared can back every engine over
// the catalog and any number of concurrent executions: a freshly built
// engine serving the same workload starts with the lake's plans already
// warm. (The wrapper response cache is lake-lifetime too and keys on
// request content, so its responses outlive any plan evicted here.)
type preparedCache struct {
	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type preparedEntry struct {
	key  string
	prep *Prepared
}

// preparedCacheCap bounds the cache; the least recently used plan goes
// first.
const preparedCacheCap = 512

func newPreparedCache() *preparedCache {
	return &preparedCache{ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached plan for key, promoting it to most recently used.
func (c *preparedCache) get(key []byte) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[string(key)]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*preparedEntry).prep
}

// put stores the plan, evicting the least recently used entry when full.
func (c *preparedCache) put(key string, p *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*preparedEntry).prep = p
		return
	}
	c.m[key] = c.ll.PushFront(&preparedEntry{key: key, prep: p})
	if c.ll.Len() > preparedCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*preparedEntry).key)
	}
}

// planKey is the cache key of a query: its whitespace-normalized text, the
// plan-shaping options, and the engine's coarse source health.
func (e *Engine) planKey(queryText string, cfg config) []byte {
	b := make([]byte, 0, len(queryText)+128)
	b = appendNormalized(b, queryText)
	b = append(b, 0)
	b = cfg.appendFingerprint(b)
	b = append(b, 0)
	return appendHealth(b, e.SourceHealth())
}

// appendNormalized appends text with whitespace runs OUTSIDE string
// literals collapsed, so formatting differences do not defeat the cache,
// while queries differing only inside a literal (e.g. FILTER (?v = "New
// York")) keep distinct keys. Quotes follow SPARQL literal syntax: " or '
// delimited, backslash escapes.
func appendNormalized(b []byte, text string) []byte {
	start := len(b)
	var quote byte
	escaped := false
	pendingSpace := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if quote != 0 {
			b = append(b, c)
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == quote:
				quote = 0
			}
			continue
		}
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if len(b) > start {
				pendingSpace = true
			}
			continue
		case c == '"' || c == '\'':
			quote = c
		}
		if pendingSpace {
			b = append(b, ' ')
			pendingSpace = false
		}
		b = append(b, c)
	}
	return b
}

// appendFingerprint canonically renders every plan-shaping field of the
// config. The execution-time fields (network scale, seed, cluster) are
// excluded: they are honored when a prepared plan starts, not when it is
// planned.
func (c config) appendFingerprint(b []byte) []byte {
	b = append(b, 'm')
	b = strconv.AppendInt(b, int64(c.mode), 10)
	b = append(b, "|h2="...)
	b = strconv.AppendBool(b, c.heuristic2)
	if c.networkSet {
		b = append(b, "|net="...)
		b = append(b, c.network.Name...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, c.network.Alpha, 'g', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, c.network.Beta, 'g', -1, 64)
	}
	if c.optimizer != nil {
		b = append(b, "|opt="...)
		b = strconv.AppendInt(b, int64(*c.optimizer), 10)
	}
	if c.joinOp != nil {
		b = append(b, "|join="...)
		b = strconv.AppendInt(b, int64(*c.joinOp), 10)
	}
	b = append(b, "|naive="...)
	b = strconv.AppendBool(b, c.naive)
	for _, n := range [...]int{c.bindBlock, c.bindConc, c.batchSize} {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return b
}

// appendHealth appends the measured per-source health, each
// observed source's failure-inflated latency EWMA (the quantity the cost
// model prices with, see wrapper.HealthRegistry.MeasuredLatency) bucketed
// to a power of two of milliseconds: coarse enough that sample jitter
// keeps one bucket, but a source drifting from 4ms to 40ms, or from
// healthy to 50% failures, changes the key and forces a re-plan. Sources
// without a successful observation contribute nothing, so engines without
// remote observations share one key.
func appendHealth(b []byte, health []SourceHealth) []byte {
	for _, h := range health {
		if h.Latency <= 0 {
			continue
		}
		ms := float64(h.Latency) / float64(time.Millisecond)
		ms /= 1 - min(h.FailureRate, 0.9)
		bucket := 0
		for v := ms; v >= 1; v /= 2 {
			bucket++
		}
		b = append(b, '|')
		b = append(b, h.Source...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(bucket), 10)
	}
	return b
}
