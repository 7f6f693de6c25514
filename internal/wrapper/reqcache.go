package wrapper

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
)

// ResponseCache memoizes the decoded, dictionary-encoded response of a
// wrapper request across the executions of one engine. The lake is static
// (the rdb generation moves only on loads), so a repeated request —
// serving layers replay the same plans over and over, cluster workers the
// same fragments — can skip translation, source evaluation and term
// interning entirely and stream its remembered ID rows, while the
// network-simulation contract is honored live at replay time: one latency
// sample per solution, or one per response for a block request. The
// charge is the request's, not the entry's, so a per-answer request and a
// block of the same seed share one entry.
//
// Keys are content-addressed: the request's shape fingerprint (derived
// once per plan leaf and carried by its seeded forms, see shapeOf), the
// output schema's variable order and the seeds' dictionary IDs, folded
// into one fixed-size hash. Every hit verifies the stored shape, schema
// and seed IDs, so a hash collision degrades to a miss, never to a wrong
// answer — and a hit never touches a term. Entries are tagged with the
// source's content generation and dropped when it moves.
//
// The cache must be scoped to one engine: entries hold IDs of that
// engine's dictionary.
type ResponseCache struct {
	mu      sync.RWMutex
	entries map[respKey]*respEntry

	hits, misses, evictions atomic.Int64

	// views holds the sources' ID views (see idView): like the entries
	// they live as long as the lake and hold IDs of its dictionary.
	viewMu sync.Mutex
	views  map[viewKey]idView
}

// respCacheCap bounds the cache; crossing it sweeps (see store).
const respCacheCap = 4096

// NewResponseCache returns an empty cache.
func NewResponseCache() *ResponseCache {
	return &ResponseCache{entries: make(map[respKey]*respEntry), views: make(map[viewKey]idView)}
}

// ResponseCacheStats is a snapshot of a cache's counters.
type ResponseCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats snapshots the hit, miss and eviction counters and the entry count.
func (c *ResponseCache) Stats() ResponseCacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return ResponseCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

type respKey struct {
	source string
	// h folds the shape fingerprint, the schema's variable order and the
	// seed IDs; the entry verifies all three on hit.
	h uint64
}

// respEntry is one remembered response: the decoded ID rows stored
// column-major — one []dict.ID of nrows IDs per schema column, read-only
// once built, so a replay sends slices of them.
type respEntry struct {
	gen   uint64
	nrows int
	cols  [][]dict.ID

	// crossed counts the rows a wrapper-side join (the naive translation)
	// consumed from across the network; stream charges them, not answers.
	crossed int

	// shape, vars and seeds are the request identity the entry was stored
	// under, compared on every hit; used is its second-chance flag.
	shape *shape
	vars  []string
	seeds engine.Seeds
	used  atomic.Bool
}

// respKeyFor builds the cache key of req as issued against source with
// the given output schema: integer work over the shape hash, the schema's
// names and the seed IDs — no term is looked up or interned.
func respKeyFor(source string, req *Request, schema *engine.Schema) respKey {
	h := req.shapeOf().h
	for _, v := range schema.Vars {
		h = fnvString(h, v) * fnvPrime // the extra round separates the names
	}
	for _, v := range req.Seeds.Vars {
		h = fnvString(h, v) * fnvPrime
	}
	h = mixResp(h ^ uint64(req.Seeds.Rows))
	for _, id := range req.Seeds.IDs {
		h = mixResp(h ^ uint64(id))
	}
	return respKey{source: source, h: h}
}

// fnvString folds s into h, FNV-1a style.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mixResp is the splitmix64 finalizer.
func mixResp(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// matches verifies the stored request identity — shape, schema order and
// seed IDs — against the request, guarding hash collisions in the key.
func (e *respEntry) matches(req *Request, schema *engine.Schema) bool {
	if s := req.shapeOf(); e.shape != s && e.shape.canon != s.canon {
		return false
	}
	return slices.Equal(e.vars, schema.Vars) && e.seeds.Rows == req.Seeds.Rows &&
		slices.Equal(e.seeds.Vars, req.Seeds.Vars) && slices.Equal(e.seeds.IDs, req.Seeds.IDs)
}

// lookup returns the remembered response for k, or nil when there is
// none, the source's content moved past it, or the request differs from
// the one stored (a key hash collision).
func (c *ResponseCache) lookup(k respKey, req *Request, schema *engine.Schema, gen uint64) *respEntry {
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	if e == nil || e.gen != gen || !e.matches(req, schema) {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	markUsed(&e.used)
	return e
}

// store remembers e, built for req over schema, under k. At the cap the
// cache sweeps instead of dropping everything: entries not hit since the
// previous sweep go first. Seeded entries start cold — the blocks of a
// bind join whose composition followed the arrival order are stored once
// and never asked for again — while unseeded ones start with their second
// chance, so churn in the former cannot wipe the hot leaf responses.
func (c *ResponseCache) store(k respKey, req *Request, schema *engine.Schema, e *respEntry) {
	e.shape, e.vars, e.seeds = req.shapeOf(), schema.Vars, req.Seeds
	e.used.Store(req.Seeds.Rows == 0)
	c.mu.Lock()
	if len(c.entries) >= respCacheCap {
		n := sweep(c.entries, respCacheCap*3/4, func(e *respEntry) bool { return e.used.Swap(false) })
		c.evictions.Add(int64(n))
	}
	c.entries[k] = e
	c.mu.Unlock()
}

// newColEntry builds the entry of a complete response given as n rows of
// stride IDs each, row-major: the rows are transposed once into columns
// sharing one backing array, and the row buffer stays the caller's to
// drop.
func newColEntry(rows []dict.ID, n, stride int) *respEntry {
	e := &respEntry{nrows: n, cols: make([][]dict.ID, stride)}
	flat := make([]dict.ID, n*stride)
	for c := range e.cols {
		col := flat[c*n : (c+1)*n : (c+1)*n]
		for r := range col {
			col[r] = rows[r*stride+c]
		}
		e.cols[c] = col
	}
	return e
}

// stream sends the response on a fresh columnar stream, sampling the
// network simulation live. It is the one place the paper's network model
// is applied, with the charge the request asks for: perAnswer charges one
// latency sample per solution, so an empty response samples nothing;
// otherwise the response is one message, charged even when empty because
// it still crosses the network; an entry with crossed rows charges those
// before its first answer instead. A cache hit changes where the rows come
// from, not what the execution observes: same rows, same per-message
// delay accounting, batched at the wrapper's current batch size. Every
// batch is a view of the stored columns, so a replay copies no row. sim
// may be nil for no network simulation. Under a simulator that really
// sleeps, per-answer rows wait to a running deadline (see pace), so late
// timer wake-ups do not add up.
func (e *respEntry) stream(ctx context.Context, sim *netsim.Simulator, perAnswer bool, schema *engine.Schema, batch int) *engine.CStream {
	out := engine.NewCStream(schema, 4)
	if batch <= 0 {
		batch = engine.DefaultBatchSize
	}
	send := func(lo, hi int) bool {
		b := &engine.ColBatch{Schema: schema, Len: hi - lo, Cols: make([][]dict.ID, len(e.cols))}
		for c, col := range e.cols {
			b.Cols[c] = col[lo:hi:hi]
		}
		return out.SendBatch(ctx, b)
	}
	// ahead counts the messages charged, in one wait, before any answer.
	ahead, answers := e.crossed, perAnswer && e.crossed == 0
	if !perAnswer && ahead == 0 {
		ahead = 1
	}
	go func() {
		defer out.Close()
		if sim != nil && ahead > 0 {
			time.Sleep(sim.Pause(sim.SampleN(ahead)))
		}
		if sim != nil && answers && sim.Sleeps() {
			e.pace(sim, batch, send)
			return
		}
		for lo := 0; lo < e.nrows; lo += batch {
			hi := min(lo+batch, e.nrows)
			if sim != nil && answers {
				sim.SampleN(hi - lo)
			}
			if !send(lo, hi) {
				return
			}
		}
	}()
	return out
}

// pace sends a per-answer response under a sleeping simulator, one
// sampled row at a time, each waiting to a running deadline: the start,
// plus every pause so far, plus the time sends blocked on the consumer. A
// late wake-up thus shortens the next wait, backpressure still delays all
// later rows, and no row leaves before its own and every earlier pause.
// Pending rows go out before a wait that would hold the oldest past the
// flush interval, so a first answer is never held back behind later ones.
func (e *respEntry) pace(sim *netsim.Simulator, batch int, send func(lo, hi int) bool) {
	deadline := time.Now()
	timed := func(lo, hi int) bool {
		t := time.Now()
		ok := send(lo, hi)
		deadline = deadline.Add(time.Since(t))
		return ok
	}
	var first time.Time // the deadline the oldest pending row arrived at
	for lo, hi := 0, 0; hi < e.nrows; {
		deadline = deadline.Add(sim.Pause(sim.SampleN(1)))
		if hi > lo && deadline.Sub(first) > engine.DefaultFlushInterval {
			if !timed(lo, hi) {
				return
			}
			lo = hi
		}
		time.Sleep(time.Until(deadline))
		if lo == hi {
			first = deadline
		}
		if hi++; hi-lo >= batch || hi == e.nrows {
			if !timed(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// idView is one column of a source's terms in dictionary IDs: a slot per
// term, filled with the term's ID the first time a miss touches it and
// read with one atomic load afterwards. An RDF graph has one view with
// three slots per triple (S, P, O); a relational table has one per
// column, IRI template and dictionary, with a slot per row. A view holds
// no pointers, so the collector never scans it, and racing fills store
// the same ID: Intern is idempotent. A slot past the view's end — the
// source grew after the view was sized — or of the nil view of a wrapper
// without a response cache reads Unbound and keeps nothing, so its term
// is interned on every touch.
type idView []atomic.Uint64

// load returns the ID in slot i, or Unbound when the slot is not filled.
func (v idView) load(i int) dict.ID {
	if i >= len(v) {
		return dict.Unbound
	}
	return dict.ID(v[i].Load())
}

// store fills slot i with id.
func (v idView) store(i int, id dict.ID) {
	if i < len(v) {
		v[i].Store(uint64(id))
	}
}

// viewKey names an ID view: a graph's triples (g), or column col of a
// table (t) rendered through an IRI template, in dictionary d.
type viewKey struct {
	g    *rdf.Graph
	t    *rdb.Table
	col  int
	tmpl string
	d    *dict.Dict
}

// view returns the view named k, sized to its source on the first miss
// that asks for it; a nil cache has no views.
func (c *ResponseCache) view(k viewKey) idView {
	if c == nil {
		return nil
	}
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	v, ok := c.views[k]
	if !ok {
		if k.g != nil {
			v = make(idView, 3*k.g.Len())
		} else {
			v = make(idView, k.t.RowCount())
		}
		c.views[k] = v
	}
	return v
}
