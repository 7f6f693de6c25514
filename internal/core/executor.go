package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/trace"
	"ontario/internal/wrapper"
)

// Executor runs plans against the data lake. It is a factory for
// per-query Executions: each execution owns its wrappers and network
// simulators, so any number of queries can run concurrently over the same
// executor without sharing mutable state.
type Executor struct {
	cat *catalog.Catalog

	// Limiter, when non-nil, bounds concurrent in-flight requests per
	// source across every execution created from this executor.
	Limiter *wrapper.SourceLimiter

	// Health applies the resilience policy (timeouts, retries, circuit
	// breakers) to remote sources and accumulates their measured latency
	// and failure rate. Like the limiter it is shared across every
	// execution, so breaker state and measured gamma reflect all traffic.
	Health *wrapper.HealthRegistry

	// terms is the lake-lifetime term dictionary shared by every
	// execution's columnar data plane. The lake is static, so the
	// dictionary converges to the lake's distinct terms: after warm-up,
	// interning at the wrapper boundary is a read-locked map hit and the
	// IDs — stable across queries and across engines over the same
	// catalog — let the serving layer cache per-term work (like the JSON
	// encoding) across queries too.
	terms *dict.Dict

	// responses memoizes decoded wrapper responses (as rows of the shared
	// dictionary's IDs) across executions: a served workload replaying
	// prepared plans answers repeated wrapper requests without translating,
	// querying or decoding again, while the per-request network simulation
	// still runs live. Shared at lake lifetime alongside the dictionary
	// whose IDs its entries hold.
	responses *wrapper.ResponseCache
}

// NewExecutor returns an executor over the catalog. The term dictionary
// and the response cache come from the catalog's shared slots, so every
// executor over one catalog sees the lake already interned and decoded by
// its predecessors.
func NewExecutor(cat *catalog.Catalog) *Executor {
	terms := cat.Shared("dict", func() any { return dict.New() }).(*dict.Dict)
	responses := cat.Shared("wrapper.responses", func() any { return wrapper.NewResponseCache() }).(*wrapper.ResponseCache)
	return &Executor{
		cat:       cat,
		Health:    wrapper.NewHealthRegistry(wrapper.ResilienceConfig{}),
		terms:     terms,
		responses: responses,
	}
}

// NewExecution returns an isolated execution with its own wrappers and
// simulators; concurrent executions only share the catalog (concurrent-
// read-safe) and the optional per-source limiter (that is its purpose).
// scale multiplies real sleeping in the network simulation (1.0 reproduces
// the sampled delays; 0 disables sleeping) and seed fixes its latency
// random streams.
func (e *Executor) NewExecution(scale float64, seed int64) *Execution {
	return &Execution{
		cat:       e.cat,
		limiter:   e.Limiter,
		health:    e.Health,
		dict:      e.terms,
		responses: e.responses,
		scale:     scale,
		seed:      seed,
		wrappers:  make(map[string]wrapper.Wrapper),
		sims:      make(map[string]*netsim.Simulator),
	}
}

// Execution is one query's executor state: wrappers and per-source
// network simulators live here, so executions never share mutable state
// and an engine may run any number of them concurrently.
type Execution struct {
	cat       *catalog.Catalog
	limiter   *wrapper.SourceLimiter
	health    *wrapper.HealthRegistry
	dict      *dict.Dict
	responses *wrapper.ResponseCache
	scale     float64
	seed      int64

	mu       sync.Mutex
	wrappers map[string]wrapper.Wrapper
	sims     map[string]*netsim.Simulator

	// fmu guards the deferred execution error: a source failing inside a
	// dependent-join service callback cannot surface synchronously (the
	// stream API has no error channel), so the first such failure is parked
	// here and consumers read it through Err once the stream drains.
	fmu sync.Mutex
	err error

	// qt is the query trace; nodeStats maps plan nodes to their operators'
	// runtime stats so EXPLAIN ANALYZE can pair actuals with the plan's
	// estimates. Both are set by ExecuteColumnar (adopting a trace from the
	// context or creating one) and guarded by mu.
	qt        *trace.QueryTrace
	nodeStats map[PlanNode]*engine.OpStats
	modStats  []*engine.OpStats
}

// Trace returns the query trace of the last ExecuteColumnar (nil before
// the first).
func (x *Execution) Trace() *trace.QueryTrace {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.qt
}

// NodeActuals returns the observed runtime stats of one plan node,
// populated while ExecuteColumnar's stream runs (safe to snapshot
// mid-flight).
func (x *Execution) NodeActuals(n PlanNode) (engine.OpActuals, bool) {
	x.mu.Lock()
	st, ok := x.nodeStats[n]
	x.mu.Unlock()
	if !ok {
		return engine.OpActuals{}, false
	}
	return st.Snapshot(), true
}

// stats mints one operator's stats record, remembering the plan node it
// belongs to; n == nil records a solution modifier. An untraced execution
// records nothing and returns nil.
func (x *Execution) stats(n PlanNode, kind, label string) *engine.OpStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.qt == nil {
		return nil
	}
	st := engine.NewOpStats(kind, label)
	if n == nil {
		x.modStats = append(x.modStats, st)
		return st
	}
	if x.nodeStats == nil {
		x.nodeStats = make(map[PlanNode]*engine.OpStats)
	}
	x.nodeStats[n] = st
	return st
}

// ModifierActuals returns the observed runtime stats of the solution
// modifiers (ORDER BY, projection, DISTINCT, OFFSET, LIMIT) in pipeline
// order.
func (x *Execution) ModifierActuals() []engine.OpActuals {
	x.mu.Lock()
	mods := append([]*engine.OpStats(nil), x.modStats...)
	x.mu.Unlock()
	out := make([]engine.OpActuals, len(mods))
	for i, st := range mods {
		out[i] = st.Snapshot()
	}
	return out
}

// fail parks the first deferred execution error. Context cancellation is
// not an execution error: the consumer cancelled (or timed out) and learns
// that from its own context.
func (x *Execution) fail(err error) {
	if err == nil || errors.Is(err, context.Canceled) {
		return
	}
	x.fmu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.fmu.Unlock()
}

// Err returns the first deferred execution error: a source that failed
// mid-stream inside a dependent join. Meaningful once the answer stream
// has drained.
func (x *Execution) Err() error {
	x.fmu.Lock()
	defer x.fmu.Unlock()
	return x.err
}

func (x *Execution) wrapperFor(sourceID string, opts Options) (wrapper.Wrapper, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if w, ok := x.wrappers[sourceID]; ok {
		return w, nil
	}
	src := x.cat.Source(sourceID)
	if src == nil {
		return nil, fmt.Errorf("core: unknown source %s", sourceID)
	}
	profile := opts.Network
	if src.Model.Remote() {
		// Remote sources cross a real network; the simulator only keeps the
		// message accounting.
		profile = netsim.NoDelay
	}
	sim := netsim.NewSimulator(profile, x.scale, x.seed+int64(len(x.sims)))
	x.sims[sourceID] = sim
	batch := opts.EffectiveBatchSize()
	var w wrapper.Wrapper
	switch src.Model {
	case catalog.ModelRDF:
		rw := wrapper.NewRDFWrapper(sourceID, src.Graph, sim, batch)
		rw.SetResponseCache(x.responses)
		w = rw
	case catalog.ModelRelational:
		sw := wrapper.NewSQLWrapper(src, sim, opts.Translation, batch)
		sw.SetResponseCache(x.responses)
		w = sw
	case catalog.ModelCustom:
		w = wrapper.NewExternalWrapper(sourceID, src.External, sim, batch)
	case catalog.ModelSPARQLEndpoint:
		w = wrapper.NewRemoteSPARQLWrapper(sourceID, src.Endpoint, x.health, sim, batch)
	case catalog.ModelSQLDatabase:
		w = wrapper.NewDBSQLWrapper(src, x.health, sim, batch)
	default:
		return nil, fmt.Errorf("core: source %s has unsupported model", sourceID)
	}
	w = wrapper.Limited(w, x.limiter)
	x.wrappers[sourceID] = w
	return w, nil
}

// Network snapshots the simulated network of this execution under one
// lock: the messages and the sampled delay of each contacted source.
func (x *Execution) Network() (messages map[string]int, delays map[string]time.Duration) {
	x.mu.Lock()
	defer x.mu.Unlock()
	messages = make(map[string]int, len(x.sims))
	delays = make(map[string]time.Duration, len(x.sims))
	for id, s := range x.sims {
		messages[id], delays[id] = s.Messages(), s.SimulatedDelay()
	}
	return messages, delays
}

// ExecuteColumnar runs the plan on the dictionary-encoded columnar data
// plane and returns the answer stream, plus the dictionary the consumer
// needs to materialize terms from the IDs (the Results cursor and the
// server's JSON writer do this late, at the very edge). The dictionary is
// the executor's lake-lifetime one, so repeated queries over the static
// lake re-intern nothing new. The stream applies the query's solution
// modifiers (ORDER BY, projection, DISTINCT, OFFSET, LIMIT).
func (x *Execution) ExecuteColumnar(ctx context.Context, p *Plan) (*engine.CStream, *dict.Dict, error) {
	// Adopt the query trace from the context (the server attaches one per
	// request) or start a fresh one, so every execution is traced.
	qt := trace.FromContext(ctx)
	if qt == nil {
		qt = trace.NewQueryTrace()
		ctx = trace.WithQuery(ctx, qt)
	}
	x.mu.Lock()
	x.qt = qt
	x.mu.Unlock()

	d := x.dict
	rootNode := p.Root
	if p.Opts.Cluster != nil {
		// Partitioned workers cannot answer a pushed-down intra-source
		// join over rows split across partitions; route merged stars
		// through the distributed shuffle instead.
		rootNode = unmergeServices(rootNode)
	}
	root, err := x.Run(ctx, rootNode, p.Opts)
	if err != nil {
		return nil, nil, err
	}
	// The solution modifiers in SPARQL 1.1's order (§18.2.5): ORDER BY
	// sees every variable, so it may sort on one the projection drops.
	q := p.Query
	s := root
	modifier := func(kind, label string) context.Context {
		return engine.WithOpStats(ctx, x.stats(nil, kind, label))
	}
	if len(q.OrderBy) > 0 {
		s = engine.COrderBy(modifier("order-by", ""), s, q.OrderBy, d, p.Opts.EffectiveBatchSize())
	}
	if vars := q.ProjectedVars(); len(vars) > 0 {
		s = engine.CProject(modifier("project", strings.Join(vars, ",")), s, vars)
	}
	if q.Distinct {
		s = engine.CDistinct(modifier("distinct", ""), s)
	}
	if q.Offset > 0 {
		s = engine.COffset(modifier("offset", ""), s, q.Offset)
	}
	if q.Limit >= 0 {
		s = engine.CLimit(modifier("limit", ""), s, q.Limit)
	}
	return s, d, nil
}

// emptyCStream returns a closed columnar stream (a failed service's
// stand-in while the join keeps draining).
func emptyCStream(schema *engine.Schema) *engine.CStream {
	s := engine.NewCStream(schema, 0)
	s.Close()
	return s
}

// Run builds the operator tree of a plan node, registering each
// operator's stats record and fixing its output schema to the plan node's
// variables. It is the one executor entry point: ExecuteColumnar runs a
// plan's root through it, and a cluster worker runs every fragment it is
// sent. When a child fails to build, its started siblings keep running
// until ctx is cancelled, so the caller must cancel ctx on error.
func (x *Execution) Run(ctx context.Context, n PlanNode, opts Options) (*engine.CStream, error) {
	d := x.dict
	switch v := n.(type) {
	case *ServiceNode:
		schema := engine.NewSchema(v.Vars())
		if dist := opts.Cluster; dist != nil {
			s, err := dist.RunFragment(ctx, v, schema, d, x.fragmentEnv(opts))
			if err != nil {
				return nil, err
			}
			return engine.CMeter(s, x.stats(v, "service", v.SourceID)), nil
		}
		w, err := x.wrapperFor(v.SourceID, opts)
		if err != nil {
			return nil, err
		}
		s, err := w.ExecuteColumnar(ctx, v.Req, schema, d)
		if err != nil {
			return nil, err
		}
		// Leaf streams are produced inside the wrapper; a metering stage
		// attributes the production to the service node's stats.
		return engine.CMeter(s, x.stats(v, "service", v.SourceID)), nil
	case *JoinNode:
		out := engine.NewSchema(v.Vars())
		if dist := opts.Cluster; dist != nil && coPartitioned(v) && dist.Colocated(ctx, d) {
			// Both sides are partitioned by a shared join variable and the
			// pool is a complete co-partitioned cut of the lake: ship the
			// subtree whole, each worker joins its own partition locally,
			// and only results cross the wire — zero shuffled batches.
			st := x.stats(v, "co-join", strings.Join(v.JoinVars, ","))
			jctx := engine.WithOpStats(ctx, st)
			s, err := dist.RunFragment(jctx, v, out, d, x.fragmentEnv(opts))
			if err != nil {
				return nil, err
			}
			return engine.CMeter(s, st), nil
		}
		if v.Op == JoinBind || v.Op == JoinBlockBind {
			if svc, ok := v.R.(*ServiceNode); ok {
				left, err := x.Run(ctx, v.L, opts)
				if err != nil {
					return nil, err
				}
				// Under cluster execution each seeded request fans out to the
				// worker pool as a one-leaf fragment instead of a local
				// wrapper; the partitions are disjoint so the union over
				// workers answers each seed exactly once.
				dist := opts.Cluster
				var w wrapper.Wrapper
				if dist == nil {
					var err error
					w, err = x.wrapperFor(svc.SourceID, opts)
					if err != nil {
						return nil, err
					}
				}
				runSvc := func(ctx context.Context, req *wrapper.Request, schema *engine.Schema) (*engine.CStream, error) {
					if dist != nil {
						leaf := &ServiceNode{SourceID: svc.SourceID, Req: req}
						return dist.RunFragment(ctx, leaf, schema, d, x.fragmentEnv(opts))
					}
					return w.ExecuteColumnar(ctx, req, schema, d)
				}
				svcStats := x.stats(svc, "service", svc.SourceID)
				// One schema per service node: every seeded invocation of
				// the right side shares it, so the join resolves the right
				// layout once.
				svcSchema := engine.NewSchema(svc.Vars())
				// A sequential bind join is a block of one seed with one
				// request in flight, charged per answer.
				block := v.Op == JoinBlockBind
				label, size, conc := "bind-join", 1, 1
				if block {
					label, size, conc = "block-bind-join", opts.EffectiveBindBlockSize(), opts.EffectiveBindConcurrency()
				}
				service := func(ctx context.Context, seeds engine.Seeds) *engine.CStream {
					s, err := runSvc(ctx, svc.Req.WithSeeds(seeds, block), svcSchema)
					if err != nil {
						// The join keeps draining other blocks; park the
						// failure so the consumer sees it after the stream.
						x.fail(fmt.Errorf("source %s: %w", svc.SourceID, err))
						return emptyCStream(svcSchema)
					}
					return engine.CMeter(s, svcStats)
				}
				jctx := engine.WithOpStats(ctx, x.stats(v, label, strings.Join(v.JoinVars, ",")))
				return engine.CBindJoin(jctx, left, service, v.JoinVars, out,
					size, conc, opts.EffectiveBatchSize()), nil
			}
			// Fall through to symmetric hash when the right side is not a
			// plain service.
		}
		left, err := x.Run(ctx, v.L, opts)
		if err != nil {
			return nil, err
		}
		right, err := x.Run(ctx, v.R, opts)
		if err != nil {
			return nil, err
		}
		if dist := opts.Cluster; dist != nil {
			// The join becomes the distributed shuffle: rows shard by
			// join-key hash across workers, each joining its partition.
			jctx := engine.WithOpStats(ctx,
				x.stats(v, "shuffle-join", strings.Join(v.JoinVars, ",")))
			return dist.ShuffleJoin(jctx, left, right, v.JoinVars, out, d, x.fragmentEnv(opts))
		}
		jctx := engine.WithOpStats(ctx,
			x.stats(v, "hash-join", strings.Join(v.JoinVars, ",")))
		return engine.CSymmetricHashJoin(jctx, left, right, v.JoinVars, out, opts.EffectiveBatchSize()), nil
	case *LeftJoinNode:
		left, err := x.Run(ctx, v.L, opts)
		if err != nil {
			return nil, err
		}
		right, err := x.Run(ctx, v.R, opts)
		if err != nil {
			return nil, err
		}
		jctx := engine.WithOpStats(ctx, x.stats(v, "left-join", ""))
		return engine.CLeftJoin(jctx, left, right, v.Filters, engine.NewSchema(v.Vars()), d,
			opts.EffectiveBatchSize()), nil
	case *FilterNode:
		in, err := x.Run(ctx, v.Child, opts)
		if err != nil {
			return nil, err
		}
		fctx := engine.WithOpStats(ctx, x.stats(v, "filter", ""))
		return engine.CFilter(fctx, in, v.Exprs, d), nil
	case *UnionNode:
		var streams []*engine.CStream
		for _, c := range v.Children {
			s, err := x.Run(ctx, c, opts)
			if err != nil {
				return nil, err
			}
			streams = append(streams, s)
		}
		uctx := engine.WithOpStats(ctx, x.stats(v, "union", ""))
		return engine.CUnion(uctx, engine.NewSchema(v.Vars()), opts.EffectiveBatchSize(), streams...), nil
	default:
		return nil, fmt.Errorf("core: unknown plan node %T", n)
	}
}
