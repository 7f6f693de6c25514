package wrapper

import (
	"slices"
	"sync"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// TranslationMode selects the quality of the SPARQL-to-SQL translation.
//
// The paper reports that Ontario's translation "is not optimized for
// combining star-shaped sub-queries", which made Heuristic 1 backfire, and
// that forcing the optimized SQL for Q2 approximately halved the execution
// time. TranslationNaive reproduces the unoptimized behaviour: each star is
// translated and fetched separately and the join runs as a nested loop in
// the wrapper. TranslationOptimized emits a single flattened SQL query so
// the relational engine can use its indexes for the join.
type TranslationMode int

// Translation modes.
const (
	TranslationOptimized TranslationMode = iota
	TranslationNaive
)

// String names the mode.
func (m TranslationMode) String() string {
	if m == TranslationNaive {
		return "naive"
	}
	return "optimized"
}

// SQLWrapper answers star queries against a relational source by
// translating them to SQL.
type SQLWrapper struct {
	src   *catalog.Source
	sim   *netsim.Simulator
	mode  TranslationMode
	batch int

	// cache, when non-nil, memoizes decoded columnar responses across
	// executions (see ResponseCache) and holds the tables' ID views;
	// entries are invalidated by the source database's content
	// generation.
	cache *ResponseCache

	// lastSQL records the statements of the most recent request, for
	// EXPLAIN output and tests: the statements a miss ran, or, when the
	// response cache answered it, the request (lastHit), whose statement
	// is translated again — a cache entry keeps none. Either is rendered
	// only when read. The mutex makes the record safe under the block
	// bind join's concurrent invocations.
	sqlMu   sync.Mutex
	lastSQL []*sql.Select
	lastHit *Request
	hitDict *dict.Dict
}

// NewSQLWrapper wraps a relational source. sim may be nil to disable
// network simulation; batch <= 0 means the engine's default batch size.
func NewSQLWrapper(src *catalog.Source, sim *netsim.Simulator, mode TranslationMode, batch int) *SQLWrapper {
	return &SQLWrapper{src: src, sim: sim, mode: mode, batch: batch}
}

// SourceID implements Wrapper.
func (w *SQLWrapper) SourceID() string { return w.src.ID }

// SetResponseCache installs the engine's shared response cache. The cache
// must belong to the same engine as the dictionary the wrapper interns
// into — entries hold its IDs.
func (w *SQLWrapper) SetResponseCache(c *ResponseCache) { w.cache = c }

// LastSQL returns the SQL statements issued by the most recent request.
func (w *SQLWrapper) LastSQL() []string {
	w.sqlMu.Lock()
	sels, hit, d := w.lastSQL, w.lastHit, w.hitDict
	w.sqlMu.Unlock()
	if hit != nil {
		if tl, err := hit.translate(w.src, d); err == nil && tl != nil {
			sels = []*sql.Select{tl.sel}
		}
	}
	var out []string
	for _, sel := range sels {
		out = append(out, sel.String())
	}
	return out
}

func (w *SQLWrapper) resetSQL() { w.replayedSQL(nil, nil) }

// replayedSQL records that the response cache answered req.
func (w *SQLWrapper) replayedSQL(req *Request, d *dict.Dict) {
	w.sqlMu.Lock()
	w.lastSQL, w.lastHit, w.hitDict = nil, req, d
	w.sqlMu.Unlock()
}

func (w *SQLWrapper) recordSQL(stmt *sql.Select) {
	w.sqlMu.Lock()
	w.lastSQL = append(w.lastSQL, stmt)
	w.sqlMu.Unlock()
}

// executeNaive translates and fetches each star separately (every row of
// every star crossing the simulated network) and joins the results with a
// nested loop inside the wrapper — Ontario's unoptimized combined-star
// translation. Each star's query carries the seeds its variables can
// express and its rows go through fill, the row check included, before
// they cross; the join runs on those ID rows, laid out over the request's
// variables. It returns the joined answers and how many rows crossed, for
// the stream to charge: the call itself never waits on the network.
func (w *SQLWrapper) executeNaive(req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, int, error) {
	w.resetSQL()
	layout := engine.NewSchema(req.Vars())
	stride := len(layout.Vars)
	rest := req.Filters // those no star so far covers
	var joined []dict.ID
	n, crossed := 0, 0
	for i, star := range req.Stars {
		// Only filters fully covered by this star's variables may be
		// pushed into its SQL.
		starVars := star.Vars()
		var pushed, uncovered []sparql.Expr
		for _, f := range rest {
			if slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(starVars, v) }) {
				uncovered = append(uncovered, f)
			} else {
				pushed = append(pushed, f)
			}
		}
		rest = uncovered
		tl, err := translateRequest(w.src, []*StarQuery{star}, pushed)
		if err != nil {
			return nil, 0, err
		}
		if tl.empty {
			return newColEntry(nil, 0, len(schema.Vars)), crossed, nil
		}
		tl, empty := tl.withSeeds(tl.seedSlot(req.Seeds.Vars), req.Seeds, d)
		if empty {
			return newColEntry(nil, 0, len(schema.Vars)), crossed, nil
		}
		rc, err := w.fill(tl, req.Seeds, layout, d)
		if err != nil {
			return nil, 0, err
		}
		crossed += rc.n // every intermediate row is retrieved across the network
		if i == 0 {
			joined, n = rc.rows, rc.n
			continue
		}
		// Nested-loop join across the stars inside the wrapper: a row of
		// each side binds only its own star's variables, so two rows join
		// when no position both bind differs.
		var next []dict.ID
		m := 0
		for l := 0; l < n; l++ {
			left := joined[l*stride : (l+1)*stride]
			for r := 0; r < rc.n; r++ {
				right := rc.rows[r*stride : (r+1)*stride]
				if !compatibleIDs(left, right) {
					continue
				}
				next = append(next, left...)
				merged := next[len(next)-stride:]
				for c, id := range right {
					if merged[c] == dict.Unbound {
						merged[c] = id
					}
				}
				m++
			}
		}
		joined, n = next, m
	}
	rc := newRowCheck(engine.Seeds{}, rest, layout, schema, d)
	for r := 0; r < n; r++ {
		rc.add(joined[r*stride : (r+1)*stride])
	}
	return rc.entry(), crossed, nil
}

// compatibleIDs reports whether two rows of one layout agree wherever
// both are bound.
func compatibleIDs(a, b []dict.ID) bool {
	for c, id := range a {
		if id != dict.Unbound && b[c] != dict.Unbound && b[c] != id {
			return false
		}
	}
	return true
}
