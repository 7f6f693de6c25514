// Package ontario is the public facade of Ontario-Go, a federated SPARQL
// query engine for Semantic Data Lakes that optimizes query execution
// plans based on the physical design of the lake — a from-scratch
// reproduction of Rohde & Vidal, "Optimizing Federated Queries Based on
// the Physical Design of a Data Lake" (EDBT 2020).
//
// A data lake is a collection of heterogeneous sources — in-memory RDF
// graphs, relational databases with R2RML-style mappings and declared
// indexes, and custom backends — described by RDF Molecule Templates.
// Lakes are assembled with the ontario/lake package:
//
//	l, err := lake.NewBuilder().
//	    AddTable("hr", lake.TableSpec{...}).
//	    MapClass("hr", lake.ClassMapping{...}).
//	    AddGraph("people", triples).
//	    Build()
//	eng := ontario.New(l)
//
// Queries are SPARQL SELECT queries; the engine decomposes them into
// star-shaped sub-queries, selects sources, and builds either
// physical-design-unaware plans (the baseline: every join and filter
// above the sources) or physical-design-aware plans applying the paper's
// heuristics:
//
//   - Heuristic 1: star-shaped sub-queries over the same relational
//     endpoint are combined into a single SQL query when the join
//     attribute is indexed.
//   - Heuristic 2: filters over relational sources run at the engine
//     unless the filtered attribute is indexed and the network is slow.
//
// Network conditions are simulated per retrieved answer with the paper's
// gamma-distributed latency profiles (Gamma1..Gamma3, or a custom
// GammaProfile).
//
// Results stream through a database/sql-style cursor:
//
//	res, err := eng.Query(ctx, text,
//	    ontario.WithAwarePlan(), ontario.WithNetwork(ontario.Gamma2))
//	if err != nil { ... }
//	defer res.Close()
//	for res.Next() {
//	    b := res.Binding() // ontario.Binding: variable -> ontario.Term
//	}
//	if err := res.Err(); err != nil { ... }
//	st := res.Stats()     // answers, messages, simulated delay, TTFA
//
// The engine is safe for concurrent use: every query runs on an isolated
// execution, and WithSourceLimit bounds in-flight wrapper requests per
// source across all running queries, a slot held while the source
// answers; the simulated transfer is not source work. internal/server
// exposes an engine as a concurrent HTTP SPARQL endpoint with admission
// control and streaming results (see cmd/ontario-server).
package ontario

import (
	"context"
	"fmt"
	"time"

	"ontario/internal/bridge"
	"ontario/internal/core"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
	"ontario/lake"
)

// Term is an RDF term, the value type of query solutions; it is the
// ontario/lake package's Term. Construct terms with IRI, Literal,
// TypedLiteral, LangLiteral, Integer, Float, Bool and Blank.
type Term = lake.Term

// TermKind enumerates the kinds of RDF terms (lake.KindIRI,
// lake.KindLiteral, lake.KindBlank).
type TermKind = lake.TermKind

// Term kinds.
const (
	KindIRI     = lake.KindIRI
	KindLiteral = lake.KindLiteral
	KindBlank   = lake.KindBlank
)

// Binding is one query solution: a mapping from variable names (without
// the leading "?") to RDF terms.
type Binding = lake.Binding

// IRI returns an IRI term.
func IRI(iri string) Term { return lake.IRI(iri) }

// Literal returns a plain string literal.
func Literal(lex string) Term { return lake.Literal(lex) }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lex, datatype string) Term { return lake.TypedLiteral(lex, datatype) }

// LangLiteral returns a language-tagged string literal.
func LangLiteral(lex, lang string) Term { return lake.LangLiteral(lex, lang) }

// Integer returns an xsd:integer literal.
func Integer(v int64) Term { return lake.Integer(v) }

// Float returns an xsd:double literal.
func Float(v float64) Term { return lake.Float(v) }

// Bool returns an xsd:boolean literal.
func Bool(v bool) Term { return lake.Bool(v) }

// Blank returns a blank node term.
func Blank(label string) Term { return lake.Blank(label) }

// Engine is a configured query engine over one data lake. It is safe for
// concurrent use: every Query call runs on its own execution (own
// wrappers, own network simulators), so any number of queries may be in
// flight at once.
type Engine struct {
	planner  *core.Planner
	executor *core.Executor
	lake     *lake.Lake

	// jsonTerms caches the sparql-results+json encoding of terms by
	// dictionary ID across queries. The dictionary lives as long as the
	// lake's catalog and its IDs are stable, so a term crossing the HTTP
	// boundary is marshaled once per lake — shared, like the dictionary
	// itself, by every engine over the same catalog.
	jsonTerms *termJSON

	// plans memoizes prepared plans at lake lifetime (see preparedCache).
	plans *preparedCache
}

// EngineOption configures the engine itself (as opposed to Option, which
// configures one query execution).
type EngineOption func(*Engine)

// WithSourceLimit bounds the number of concurrently in-flight wrapper
// requests per source, across all queries running on the engine: a burst
// of bind-join blocks from many concurrent queries queues at the source's
// semaphore instead of stampeding it. A slot is held while the source
// answers; the simulated transfer is not source work. n < 1 is treated
// as 1.
func WithSourceLimit(n int) EngineOption {
	return func(e *Engine) {
		e.executor.Limiter = wrapper.NewSourceLimiter(n)
	}
}

// New returns an engine over a lake built with the ontario/lake package.
func New(l *lake.Lake, opts ...EngineOption) *Engine {
	cat := bridge.LakeCatalog(l)
	if cat == nil {
		panic("ontario: New requires a lake built with lake.NewBuilder")
	}
	jt := cat.Shared("json.terms", func() any { return new(termJSON) }).(*termJSON)
	pc := cat.Shared("prepared.plans", func() any { return newPreparedCache() }).(*preparedCache)
	e := &Engine{planner: core.NewPlanner(cat), executor: core.NewExecutor(cat), lake: l, jsonTerms: jt, plans: pc}
	for _, o := range opts {
		o(e)
	}
	return e
}

// SourceLimits reports on the per-source in-flight limiter installed with
// WithSourceLimit; it returns nil when the engine is unlimited.
func (e *Engine) SourceLimits() *SourceLimits {
	if e.executor.Limiter == nil {
		return nil
	}
	return &SourceLimits{lim: e.executor.Limiter}
}

// SourceLimits exposes the state of the engine's per-source in-flight
// limiter.
type SourceLimits struct {
	lim *wrapper.SourceLimiter
}

// Limit returns the per-source in-flight limit.
func (s *SourceLimits) Limit() int { return s.lim.Limit() }

// Sources returns the IDs of the sources that have seen requests.
func (s *SourceLimits) Sources() []string { return s.lim.Sources() }

// InFlight returns the source's current in-flight request count.
func (s *SourceLimits) InFlight(source string) int { return s.lim.InFlight(source) }

// Peak returns the source's highest observed in-flight request count.
func (s *SourceLimits) Peak(source string) int { return s.lim.Peak(source) }

// ResponseCacheStats is a snapshot of the engine's source-response cache:
// requests answered by replaying a remembered response, requests that had
// to evaluate their source, entries evicted at the cap, and live entries.
type ResponseCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// ResponseCacheStats reports the counters of the lake's response cache,
// which every engine over the same lake shares.
func (e *Engine) ResponseCacheStats() ResponseCacheStats {
	return ResponseCacheStats(e.executor.ResponseCache().Stats())
}

// Query parses, plans and starts a SPARQL query, returning a streaming
// cursor over its solutions. Cancelling ctx aborts the execution: wrappers
// stop issuing requests and Next returns false with Err reporting the
// cancellation. Planning goes through the lake's prepared-plan cache, so
// a repeated query skips parsing and planning (see Prepare).
func (e *Engine) Query(ctx context.Context, queryText string, options ...Option) (*Results, error) {
	prep, err := e.Prepare(queryText, options...)
	if err != nil {
		return nil, err
	}
	return e.start(ctx, prep.plan, newConfig(options))
}

// planOptions resolves the query options and wires in the engine's health
// registry, so the cost model prices remote sources by their measured
// latency and failure rate instead of the static network profile.
func (e *Engine) planOptions(cfg config) core.Options {
	opts := cfg.resolve()
	if h := e.executor.Health; h != nil {
		opts.MeasuredLatency = h.MeasuredLatency
	}
	return opts
}

func (e *Engine) start(ctx context.Context, plan *core.Plan, cfg config) (*Results, error) {
	if cfg.cluster != nil {
		// Distributed execution is injected per start, not per plan: the
		// prepared-plan cache outlives any one coordinator's worker pool,
		// so embedding the distributor in a cached plan would leak stale
		// clients across engines. A shallow copy keeps the shared plan
		// tree read-only.
		p2 := *plan
		p2.Opts.Cluster = cfg.cluster
		plan = &p2
	}
	ctx, cancel := context.WithCancel(ctx)
	exec := e.executor.NewExecution(cfg.scale, cfg.seed)
	start := time.Now()
	// Terms are interned into dictionary IDs at the wrapper boundary and
	// only columnar ID batches flow between operators; the cursor
	// materializes terms on delivery.
	cs, d, err := exec.ExecuteColumnar(ctx, plan)
	if err != nil {
		cancel()
		return nil, err
	}
	return &Results{
		vars:      plan.Query.ProjectedVars(),
		plan:      plan,
		ctx:       ctx,
		cancel:    cancel,
		exec:      exec,
		cstream:   cs,
		dict:      d,
		start:     start,
		jsonCache: e.jsonTerms,
	}, nil
}

// Prepared is a planned query ready for repeated execution. The plan tree
// is read-only during execution, so one Prepared may back any number of
// concurrent QueryPrepared calls — the unit the plan cache stores.
type Prepared struct {
	plan *core.Plan
}

// Explain renders the prepared plan (with cost estimates under the cost
// optimizer).
func (p *Prepared) Explain() string { return p.plan.Explain() }

// Summary returns the prepared plan as a public summary tree.
func (p *Prepared) Summary() *PlanSummary { return summarize(p.plan.Root, nil, nil) }

// Prepare parses and plans a query without executing it. All plan-shaping
// options (mode, network, optimizer, join operator, ...) are fixed at
// Prepare time. Plans are memoized at lake lifetime (see PrepareCached).
func (e *Engine) Prepare(queryText string, options ...Option) (*Prepared, error) {
	prep, _, err := e.PrepareCached(queryText, options...)
	return prep, err
}

// PrepareCached is Prepare reporting whether the plan came from the lake's
// plan cache: a repeated query (same text up to whitespace outside
// literals, same plan options, source health in the same coarse bucket)
// returns the cached Prepared instead of parsing and planning again. The
// cache is a bounded LRU shared by every engine over the same lake.
func (e *Engine) PrepareCached(queryText string, options ...Option) (prep *Prepared, hit bool, err error) {
	cfg := newConfig(options)
	key := e.planKey(queryText, cfg)
	if p := e.plans.get(key); p != nil {
		return p, true, nil
	}
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, false, err
	}
	plan, err := e.planner.Plan(q, e.planOptions(cfg))
	if err != nil {
		return nil, false, err
	}
	p := &Prepared{plan: plan}
	e.plans.put(string(key), p)
	return p, false, nil
}

// QueryPrepared starts a prepared query on its own execution, skipping
// parsing and planning. Only the execution-time options (WithNetworkScale,
// WithSeed) are honored; the plan — including its network profile — was
// fixed at Prepare time.
func (e *Engine) QueryPrepared(ctx context.Context, prep *Prepared, options ...Option) (*Results, error) {
	if prep == nil || prep.plan == nil {
		return nil, fmt.Errorf("ontario: QueryPrepared on an empty Prepared")
	}
	return e.start(ctx, prep.plan, newConfig(options))
}

// Explain plans the query without executing it and returns the rendered
// plan, including the cost model's estimates under the cost optimizer.
func (e *Engine) Explain(queryText string, options ...Option) (string, error) {
	prep, err := e.Prepare(queryText, options...)
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}
