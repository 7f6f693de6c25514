package wrapper

import (
	"fmt"
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
	// executions (see ResponseCache); entries are invalidated by the
	// source database's content generation.
	cache *ResponseCache
	// cells holds the wrapper's own cell-ID views when it has no cache.
	cells cellViews

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
// express, and its rows are re-checked against the seeds before they are
// charged. The joined rows were already transferred, so the caller
// streams the returned entry without a simulator.
func (w *SQLWrapper) executeNaive(req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	seeds := req.seedBindings(d)
	w.resetSQL()
	perStar := make([][]sparql.Binding, len(req.Stars))
	var leftoverFilters []sparql.Expr
	usedFilter := make([]bool, len(req.Filters))
	for i, star := range req.Stars {
		// Only filters fully covered by this star's variables may be
		// pushed into its SQL.
		starVars := map[string]bool{}
		for _, v := range star.Vars() {
			starVars[v] = true
		}
		var pushed []sparql.Expr
		for fi, f := range req.Filters {
			if usedFilter[fi] {
				continue
			}
			covered := true
			for _, v := range f.Vars() {
				if !starVars[v] {
					covered = false
					break
				}
			}
			if covered {
				pushed = append(pushed, f)
				usedFilter[fi] = true
			}
		}
		tl, err := translateRequest(w.src, []*StarQuery{star}, pushed)
		if err != nil {
			return nil, err
		}
		if tl.empty {
			return newRespEntry(nil, schema, d), nil
		}
		tl, empty := tl.withSeeds(tl.seedSlot(req.Seeds.Vars), req.Seeds, d)
		if empty {
			return newRespEntry(nil, schema, d), nil
		}
		w.recordSQL(tl.sel)
		res, err := w.src.DB.QueryAST(tl.sel)
		if err != nil {
			return nil, fmt.Errorf("wrapper %s: %w", w.src.ID, err)
		}
		for _, row := range res.Rows {
			b, ok := tl.decodeRow(row)
			if !ok || !matchesAnySeed(b, seeds) || !passes(b, tl.localFilters) {
				continue
			}
			// Every intermediate row is retrieved across the network.
			if w.sim != nil {
				w.sim.Delay()
			}
			perStar[i] = append(perStar[i], b)
		}
	}
	for fi, f := range req.Filters {
		if !usedFilter[fi] {
			leftoverFilters = append(leftoverFilters, f)
		}
	}

	// Nested-loop join across the stars inside the wrapper.
	joined := perStar[0]
	for i := 1; i < len(perStar); i++ {
		var next []sparql.Binding
		for _, l := range joined {
			for _, r := range perStar[i] {
				if l.Compatible(r) {
					next = append(next, l.Merge(r))
				}
			}
		}
		joined = next
	}
	var sols []sparql.Binding
	for _, b := range joined {
		if passes(b, leftoverFilters) {
			sols = append(sols, b)
		}
	}
	return newRespEntry(sols, schema, d), nil
}

func passes(b sparql.Binding, filters []sparql.Expr) bool {
	for _, f := range filters {
		if !sparql.EvalBool(f, b) {
			return false
		}
	}
	return true
}
