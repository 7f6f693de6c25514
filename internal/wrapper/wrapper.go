// Package wrapper implements the source wrappers of the mediator/wrapper
// architecture: the engine hands a wrapper a star-shaped sub-query (or a
// combination of them, when Heuristic 1 pushed a join down) in SPARQL
// terms, and the wrapper answers it in the source's native model — direct
// BGP evaluation for RDF sources, SPARQL-to-SQL translation for relational
// sources. Network latency is simulated per retrieved answer, as in the
// paper's modified Ontario.
package wrapper

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// StarQuery is one star-shaped sub-query: all triple patterns share the
// subject variable, and source selection has resolved the molecule class.
type StarQuery struct {
	SubjectVar string
	Class      string // class IRI selected for this star
	Patterns   []sparql.TriplePattern
}

// Vars returns the distinct variables of the star.
func (s *StarQuery) Vars() []string {
	var out []string
	for _, tp := range s.Patterns {
		for _, v := range tp.Vars() {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// Request is a wrapper invocation: one or more stars (more than one only
// for relational sources under Heuristic 1) plus the filters the planner
// decided to push to the source (Heuristic 2). A bare struct literal is a
// complete request; derive the seeded forms of a plan leaf with WithSeeds
// so they carry its fingerprint instead of re-deriving it.
type Request struct {
	Stars   []*StarQuery
	Filters []sparql.Expr
	// Seeds instantiates the request for a bind join, as dictionary IDs of
	// the execution's dictionary: one seed for the sequential bind join's
	// request, a block of them for the block bind join. Every
	// wrapper evaluates a seeded request the same way, as the union of the
	// request over its seeds: each matching solution is returned exactly
	// once, unmerged, binding the seeded variables with the source's own
	// terms; relational sources push the seeds down as an IN/OR predicate
	// built straight from the IDs, RDF sources start one graph pass from
	// them, and every wrapper re-checks its rows against them by ID
	// (rowCheck). The IDs are the request's seed identity in the response
	// cache, which keeps them: like Stars and Filters they must not change
	// once the request has been executed. Only remote and custom sources
	// are sent the terms behind them (seedBindings).
	//
	// Block decides only how the simulated network charges the response:
	// one message per answer without it, one per response with it.
	Seeds engine.Seeds
	Block bool

	// shape memoizes the content-derived identity of Stars and Filters
	// (see shapeOf); leaf memoizes their SQL translation (see leafMemo).
	// WithSeeds shares both with every seeded form of the request.
	shape atomic.Pointer[shape]
	leaf  atomic.Pointer[leafMemo]
}

// seedBindings returns the seeds as row-model bindings, materialized from
// d, to be sent to a remote or custom source; a request the response
// cache answers never builds them.
func (r *Request) seedBindings(d *dict.Dict) []sparql.Binding {
	if r.Seeds.Rows == 0 {
		return nil
	}
	return r.Seeds.Bindings(d)
}

// rowCheck is the wrapper layer's one row check. Every wrapper hands it
// its candidate solutions as rows of dictionary IDs in one layout — the
// RDF walk's rows, the SQL decoder's, the naive translation's joined rows,
// the answers of remote, custom and database/sql sources interned at the
// boundary —
// and it keeps a row when the row is compatible with some seed of the
// request, compared by ID, and passes the filters left to the wrapper. A
// kept row is placed into the output schema. The seed re-check is what
// makes a seed set exact: a pushed seed predicate compares values, which
// a lossy coercion can widen, a block walk starts from the seeds'
// projections only, and a remote or custom source may ignore the seeds.
type rowCheck struct {
	seeds  []seedIDCheck
	ev     *engine.ScratchEval
	place  []int // per layout column, its output position or -1
	stride int
	rows   []dict.ID // the kept rows, row-major in the output schema
	n      int
}

// newRowCheck returns the check of rows laid out as layout against seeds
// and filters, keeping them in the order of out.
func newRowCheck(seeds engine.Seeds, filters []sparql.Expr, layout, out *engine.Schema, d *dict.Dict) rowCheck {
	c := rowCheck{
		seeds:  make([]seedIDCheck, seeds.Rows),
		ev:     engine.NewScratchEval(filters, layout, d),
		place:  out.Positions(layout.Vars),
		stride: len(out.Vars),
	}
	pos := layout.Positions(seeds.Vars)
	for r := range c.seeds {
		s := &c.seeds[r]
		for i, id := range seeds.Row(r) {
			if pos[i] >= 0 && id != dict.Unbound {
				s.pos, s.ids = append(s.pos, pos[i]), append(s.ids, id)
			}
		}
	}
	return c
}

// add keeps row if it passes the check. The row stays the caller's.
func (c *rowCheck) add(row []dict.ID) {
	if !c.matchesAnySeed(row) || !c.ev.PassesIDs(row) {
		return
	}
	c.rows = append(c.rows, make([]dict.ID, c.stride)...)
	out := c.rows[len(c.rows)-c.stride:]
	for i, p := range c.place {
		if p >= 0 {
			out[p] = row[i]
		}
	}
	c.n++
}

// entry returns the kept rows as a response entry.
func (c *rowCheck) entry() *respEntry { return newColEntry(c.rows, c.n, c.stride) }

// seedIDCheck is one seed as a compatibility test over ID rows: one
// (position, ID) pair per seed variable the layout holds and the seed
// binds. A row matches the seed when every checked position is either
// unbound (compatible by the row model's rules) or equal — dictionary IDs
// make term equality an integer compare.
type seedIDCheck struct {
	pos []int
	ids []dict.ID
}

// matchesAnySeed reports whether the row is compatible with at least one
// seed (always true for an unseeded request).
func (c *rowCheck) matchesAnySeed(row []dict.ID) bool {
	if len(c.seeds) == 0 {
		return true
	}
next:
	for _, s := range c.seeds {
		for i, p := range s.pos {
			if id := row[p]; id != dict.Unbound && id != s.ids[i] {
				continue next
			}
		}
		return true
	}
	return false
}

// boundaryEntry is the boundary of the wrappers whose sources answer in
// bindings — remote endpoints and custom sources: each solution is
// interned into a row in schema order and goes through the row check with
// filters. With merge, the request's single seed fills the positions
// a solution leaves unbound, as Binding.Merge does: the seed went down as
// constants, so the source does not bind it.
func boundaryEntry(sols []sparql.Binding, req *Request, filters []sparql.Expr, merge bool, schema *engine.Schema, d *dict.Dict) *respEntry {
	rc := newRowCheck(req.Seeds, filters, schema, schema, d)
	var seed []dict.ID
	var seedPos []int
	if merge {
		seed, seedPos = req.Seeds.Row(0), schema.Positions(req.Seeds.Vars)
	}
	row := make([]dict.ID, len(schema.Vars))
	for _, b := range sols {
		for i, v := range schema.Vars {
			row[i] = dict.Unbound
			if t, ok := b[v]; ok {
				row[i] = d.Intern(t)
			}
		}
		for c, p := range seedPos {
			if p >= 0 && row[p] == dict.Unbound {
				row[p] = seed[c]
			}
		}
		rc.add(row)
	}
	return rc.entry()
}

// Vars returns the distinct variables across all stars.
func (r *Request) Vars() []string {
	var out []string
	for _, s := range r.Stars {
		for _, v := range s.Vars() {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// Wrapper answers requests against one source. Terms are interned into the
// execution's dictionary at the source and only uint64 IDs cross the
// exchange.
type Wrapper interface {
	// SourceID identifies the wrapped source.
	SourceID() string
	// ExecuteColumnar runs the request. The source answers before it
	// returns: the whole response is in hand, its terms interned into d,
	// and a source failure is its error. The returned stream only replays
	// that response over schema across the simulated network: one latency
	// sample per solution, or one per response for a block request (see
	// respEntry.stream).
	ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error)
}

// ColumnarWrapper is the name the benchmark module knows Wrapper by.
type ColumnarWrapper = Wrapper

// RDFWrapper answers star queries by BGP evaluation over an in-memory
// graph.
type RDFWrapper struct {
	id    string
	graph *rdf.Graph
	sim   *netsim.Simulator
	batch int

	// cache, when non-nil, memoizes decoded columnar responses across
	// executions and holds the graph's ID view. The graph is loaded once
	// and treated as read-only by the engine (there is no content
	// generation to track), matching the static-lake premise of the shared
	// dictionary.
	cache *ResponseCache
}

// NewRDFWrapper wraps an RDF graph. sim may be nil for no network
// simulation; batch <= 0 means the engine's default batch size.
func NewRDFWrapper(id string, g *rdf.Graph, sim *netsim.Simulator, batch int) *RDFWrapper {
	return &RDFWrapper{id: id, graph: g, sim: sim, batch: batch}
}

// SourceID implements Wrapper.
func (w *RDFWrapper) SourceID() string { return w.id }

// SetResponseCache installs the engine's shared response cache (see
// SQLWrapper.SetResponseCache).
func (w *RDFWrapper) SetResponseCache(c *ResponseCache) { w.cache = c }

// ExecuteColumnar implements Wrapper: the BGP is walked over the graph in
// dictionary IDs (walkEntry) and the solutions cross the exchange as those
// IDs. The response is built as a respEntry so repeated requests replay
// from the engine's response cache instead of re-walking the graph.
func (w *RDFWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	if len(req.Stars) == 0 {
		return nil, fmt.Errorf("wrapper %s: empty request", w.id)
	}
	var key respKey
	if w.cache != nil {
		key = respKeyFor(w.id, req, schema)
		if e := w.cache.lookup(key, req, schema, 0); e != nil {
			return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
		}
	}
	e := walkEntry(w.graph, w.cache.view(viewKey{g: w.graph, d: d}), req, schema, d)
	if w.cache != nil {
		w.cache.store(key, req, schema, e)
	}
	return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}
