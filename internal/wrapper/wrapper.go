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
	seen := map[string]bool{}
	for _, tp := range s.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
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
	// them. The IDs are the request's seed identity in the response cache,
	// which keeps them: like Stars and Filters they must not change once
	// the request has been executed. Only the term-evaluating paths — the
	// row-model seed checks, remote and custom sources — materialize the
	// terms behind them (seedBindings).
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
// d: the term-evaluating paths call it once per request, and a request the
// response cache answers never builds them.
func (r *Request) seedBindings(d *dict.Dict) []sparql.Binding {
	if r.Seeds.Rows == 0 {
		return nil
	}
	return r.Seeds.Bindings(d)
}

// matchesAnySeed reports whether the solution is compatible with at least
// one seed (always true for an unseeded request).
func matchesAnySeed(b sparql.Binding, seeds []sparql.Binding) bool {
	if len(seeds) == 0 {
		return true
	}
	for _, s := range seeds {
		if s.Compatible(b) {
			return true
		}
	}
	return false
}

// Vars returns the distinct variables across all stars.
func (r *Request) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range r.Stars {
		for _, v := range s.Vars() {
			if !seen[v] {
				seen[v] = true
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
	// ExecuteColumnar runs the request, streaming columnar batches over
	// schema with all terms interned into d as they are retrieved across
	// the simulated network: one latency sample per solution, or one per
	// response for a block request (see respEntry.stream).
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
	// executions and holds the graph's triple-ID view. The graph is loaded
	// once and treated as read-only by the engine (there is no content
	// generation to track), matching the static-lake premise of the shared
	// dictionary.
	cache *ResponseCache
	// views holds the wrapper's own triple-ID view when it has no cache.
	views tripleViews
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
	views := &w.views
	if w.cache != nil {
		key = respKeyFor(w.id, 0, req, schema)
		if e := w.cache.lookup(key, req, schema, 0); e != nil {
			return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
		}
		views = &w.cache.views
	}
	e := walkEntry(w.graph, views.get(w.graph, d), req, schema, d)
	if w.cache != nil {
		w.cache.store(key, req, schema, e)
	}
	return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}
