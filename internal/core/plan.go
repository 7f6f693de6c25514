package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// FilterPolicy controls where filters over relational sources execute.
type FilterPolicy int

// Filter policies.
const (
	// FilterAtEngine always evaluates filters at the engine — the
	// physical-design-unaware behaviour and Heuristic 2's default.
	FilterAtEngine FilterPolicy = iota
	// FilterAtSourceIfIndexed pushes a filter into the source whenever
	// every filtered attribute is indexed — the paper's
	// physical-design-aware QEP ("using indexes whenever possible").
	FilterAtSourceIfIndexed
	// FilterHeuristic2 applies Heuristic 2 verbatim: engine level unless
	// the filtered attribute is indexed AND the network is slow.
	FilterHeuristic2
)

// String names the policy.
func (p FilterPolicy) String() string {
	switch p {
	case FilterAtEngine:
		return "engine"
	case FilterAtSourceIfIndexed:
		return "source-if-indexed"
	default:
		return "heuristic2"
	}
}

// JoinOperator selects the engine-level join implementation.
type JoinOperator int

// Join operators.
const (
	// JoinSymmetricHash is the non-blocking adaptive operator (default).
	JoinSymmetricHash JoinOperator = iota
	// JoinBind re-invokes the right service once per left binding,
	// strictly sequentially.
	JoinBind
	// JoinBlockBind gathers left bindings into blocks and answers each
	// block with a single multi-seed service request, dispatching several
	// blocks concurrently (the FedX/ANAPSID-lineage bound join).
	JoinBlockBind
)

// String names the operator.
func (j JoinOperator) String() string {
	switch j {
	case JoinSymmetricHash:
		return "symmetric-hash"
	case JoinBlockBind:
		return "block-bind"
	default:
		return "bind"
	}
}

// Default block bind-join parameters, used when the corresponding Options
// fields are zero.
const (
	DefaultBindBlockSize   = 16
	DefaultBindConcurrency = 4
)

// OptimizerMode selects the join-ordering and operator-selection strategy.
type OptimizerMode int

// Optimizer modes.
const (
	// OptimizerGreedy is the legacy strategy: order joins greedily by
	// shared-variable count and apply one global join operator.
	OptimizerGreedy OptimizerMode = iota
	// OptimizerCost orders joins with the statistics-backed cost model
	// (dynamic programming up to dpMaxLeaves leaves, cost-greedy above) and
	// picks the physical operator per join.
	OptimizerCost
)

// String names the mode.
func (m OptimizerMode) String() string {
	if m == OptimizerCost {
		return "cost"
	}
	return "greedy"
}

// OptimizerByName resolves an optimizer mode from its CLI/HTTP-parameter
// name ("cost" or "greedy", case-insensitive).
func OptimizerByName(name string) (OptimizerMode, error) {
	switch strings.ToLower(name) {
	case "cost":
		return OptimizerCost, nil
	case "greedy":
		return OptimizerGreedy, nil
	default:
		return 0, fmt.Errorf("core: unknown optimizer %q (want cost or greedy)", name)
	}
}

// Options configure plan generation.
type Options struct {
	// Aware enables the physical-design-aware plan: Heuristic 1 join
	// pushdown and index-aware filter placement. When false the planner
	// produces the paper's physical-design-unaware baseline.
	Aware bool
	// FilterPolicy places filters; ignored (forced to FilterAtEngine) when
	// Aware is false.
	FilterPolicy FilterPolicy
	// Network is the simulated network profile, consulted by
	// FilterHeuristic2.
	Network netsim.Profile
	// Translation selects the SPARQL-to-SQL translation quality used for
	// merged stars.
	Translation wrapper.TranslationMode
	// JoinOperator selects the engine-level join implementation.
	JoinOperator JoinOperator
	// Decomposition selects star-shaped (default) or triple-based
	// sub-queries.
	Decomposition DecompositionMode
	// BindBlockSize is the number of left bindings gathered into one
	// multi-seed service request by the block bind join (0 means
	// DefaultBindBlockSize; 1 degenerates to the sequential bind join's
	// request pattern).
	BindBlockSize int
	// BindConcurrency bounds the number of in-flight block requests the
	// block bind join dispatches concurrently (0 means
	// DefaultBindConcurrency).
	BindConcurrency int
	// Optimizer selects the planning strategy. Under OptimizerCost a
	// JoinOperator other than JoinSymmetricHash acts as a forced override
	// for ablations: every join uses it instead of the per-join choice.
	Optimizer OptimizerMode
	// BatchSize is the number of bindings the execution data plane packs
	// into one exchange batch — the granularity wrappers emit and
	// operators consume (0 means engine.DefaultBatchSize; 1 degenerates
	// to binding-at-a-time execution).
	BatchSize int
	// ProbeParallelism is the number of morsel-parallel probe workers —
	// and hash-table shards — of every symmetric hash join (0 means a
	// default derived from GOMAXPROCS; 1 disables intra-operator
	// parallelism).
	ProbeParallelism int
	// MeasuredLatency, when set, reports the observed per-request latency
	// of a source (typically a remote endpoint's health EWMA inflated by
	// its failure rate). The cost model prices service calls against a
	// source with this measured gamma instead of the static Network
	// profile; ok=false falls back to the profile.
	MeasuredLatency func(sourceID string) (d time.Duration, ok bool)
	// Cluster, when set, distributes execution across a worker pool: leaf
	// services fan out over every worker's lake partition and symmetric
	// hash joins become distributed shuffles (see internal/cluster). It
	// is an execution-time setting, injected when a query starts rather
	// than at plan time — plan shapes do not depend on it (the
	// merged-star unmerge rewrite it requires runs at execution start),
	// so cached prepared plans stay shareable between clustered and
	// single-node runs.
	Cluster Distributor
}

// EffectiveBindBlockSize returns BindBlockSize with the default applied.
func (o Options) EffectiveBindBlockSize() int {
	if o.BindBlockSize <= 0 {
		return DefaultBindBlockSize
	}
	return o.BindBlockSize
}

// EffectiveBindConcurrency returns BindConcurrency with the default
// applied.
func (o Options) EffectiveBindConcurrency() int {
	if o.BindConcurrency <= 0 {
		return DefaultBindConcurrency
	}
	return o.BindConcurrency
}

// EffectiveBatchSize returns BatchSize with the engine default applied.
func (o Options) EffectiveBatchSize() int {
	if o.BatchSize <= 0 {
		return engine.DefaultBatchSize
	}
	return o.BatchSize
}

// EffectiveProbeParallelism returns ProbeParallelism with the engine
// default applied.
func (o Options) EffectiveProbeParallelism() int {
	if o.ProbeParallelism <= 0 {
		return engine.DefaultProbeParallelism()
	}
	return o.ProbeParallelism
}

// AwareOptions returns the paper's physical-design-aware configuration.
// Exploiting the physical design includes the statistics-backed cost
// optimizer; OptimizerGreedy remains available as the ordering ablation.
func AwareOptions(network netsim.Profile) Options {
	return Options{
		Aware:        true,
		FilterPolicy: FilterAtSourceIfIndexed,
		Network:      network,
		Translation:  wrapper.TranslationOptimized,
		Optimizer:    OptimizerCost,
	}
}

// UnawareOptions returns the paper's physical-design-unaware baseline.
func UnawareOptions(network netsim.Profile) Options {
	return Options{Aware: false, Network: network}
}

// Plan is a query execution plan.
type Plan struct {
	Query *sparql.Query
	Root  PlanNode
	Opts  Options
}

// PlanNode is a node of the logical/physical plan tree.
type PlanNode interface {
	// Vars returns the variables the node's output binds.
	Vars() []string
	explain(b *strings.Builder, depth int)
}

// ServiceNode evaluates a wrapper request at one source. Under Heuristic 1
// the request may contain several merged stars.
type ServiceNode struct {
	SourceID string
	Req      *wrapper.Request
	// Merged marks a Heuristic-1 combined request.
	Merged bool
	// Est is the cost model's prediction, set when the cost optimizer
	// planned the node (rendered by EXPLAIN).
	Est *Estimate

	// split memoizes the node's unmerged form for cluster execution (see
	// unmerged).
	split atomic.Pointer[PlanNode]
}

// Vars implements PlanNode.
func (n *ServiceNode) Vars() []string { return n.Req.Vars() }

func (n *ServiceNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	kind := "Service"
	if n.Merged {
		kind = "MergedService"
	}
	fmt.Fprintf(b, "%s[%s]", kind, n.SourceID)
	for _, s := range n.Req.Stars {
		fmt.Fprintf(b, " star(?%s:%s, %d patterns)", s.SubjectVar, localName(s.Class), len(s.Patterns))
	}
	if len(n.Req.Filters) > 0 {
		b.WriteString(" pushed-filters{")
		for i, f := range n.Req.Filters {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(f.String())
		}
		b.WriteString("}")
	}
	n.Est.explain(b)
	b.WriteByte('\n')
}

// JoinNode joins two sub-plans on their shared variables.
type JoinNode struct {
	L, R     PlanNode
	JoinVars []string
	Op       JoinOperator
	// Est is the cost model's prediction, set when the cost optimizer
	// planned the node (rendered by EXPLAIN).
	Est *Estimate
}

// Vars implements PlanNode.
func (n *JoinNode) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range append(n.L.Vars(), n.R.Vars()...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (n *JoinNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "Join[%s] on %v", n.Op, n.JoinVars)
	n.Est.explain(b)
	b.WriteByte('\n')
	n.L.explain(b, depth+1)
	n.R.explain(b, depth+1)
}

// LeftJoinNode left-joins an OPTIONAL sub-plan to the required part.
type LeftJoinNode struct {
	L, R PlanNode
	// Filters are the OPTIONAL group's filters, evaluated over the merged
	// binding per SPARQL LeftJoin semantics.
	Filters []sparql.Expr
}

// Vars implements PlanNode.
func (n *LeftJoinNode) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range append(n.L.Vars(), n.R.Vars()...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (n *LeftJoinNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("LeftJoin[optional]")
	if len(n.Filters) > 0 {
		b.WriteString(" filters{")
		for i, f := range n.Filters {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(f.String())
		}
		b.WriteString("}")
	}
	b.WriteByte('\n')
	n.L.explain(b, depth+1)
	n.R.explain(b, depth+1)
}

// FilterNode evaluates engine-level filters.
type FilterNode struct {
	Child PlanNode
	Exprs []sparql.Expr
}

// Vars implements PlanNode.
func (n *FilterNode) Vars() []string { return n.Child.Vars() }

func (n *FilterNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("Filter{")
	for i, f := range n.Exprs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.String())
	}
	b.WriteString("}\n")
	n.Child.explain(b, depth+1)
}

// UnionNode merges alternative sub-plans (an SSQ answerable by several
// molecules/sources).
type UnionNode struct {
	Children []PlanNode
}

// Vars implements PlanNode.
func (n *UnionNode) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range n.Children {
		for _, v := range c.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func (n *UnionNode) explain(b *strings.Builder, depth int) {
	indent(b, depth)
	b.WriteString("Union\n")
	for _, c := range n.Children {
		c.explain(b, depth+1)
	}
}

// Explain renders the plan tree, including the cost model's estimates when
// the cost optimizer produced the plan.
func (p *Plan) Explain() string {
	var b strings.Builder
	mode := "physical-design-unaware"
	if p.Opts.Aware {
		mode = "physical-design-aware"
	}
	join := p.Opts.JoinOperator.String()
	if p.Opts.Optimizer == OptimizerCost && p.Opts.JoinOperator == JoinSymmetricHash {
		join = "per-join"
	}
	fmt.Fprintf(&b, "Plan[%s, optimizer=%s, filters=%s, translation=%s, join=%s, decomposition=%s]\n",
		mode, p.Opts.Optimizer, p.effectiveFilterPolicy(), p.Opts.Translation, join, p.Opts.Decomposition)
	p.Root.explain(&b, 1)
	return b.String()
}

func (p *Plan) effectiveFilterPolicy() FilterPolicy {
	if !p.Opts.Aware {
		return FilterAtEngine
	}
	return p.Opts.FilterPolicy
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "/#"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// CountServices returns the number of service requests in the plan (the
// paper's "number of requests" consideration).
func CountServices(n PlanNode) int {
	switch v := n.(type) {
	case *ServiceNode:
		return 1
	case *JoinNode:
		return CountServices(v.L) + CountServices(v.R)
	case *LeftJoinNode:
		return CountServices(v.L) + CountServices(v.R)
	case *FilterNode:
		return CountServices(v.Child)
	case *UnionNode:
		total := 0
		for _, c := range v.Children {
			total += CountServices(c)
		}
		return total
	default:
		return 0
	}
}

// mergedServices returns the Heuristic-1 merged service nodes in the plan.
func mergedServices(n PlanNode) []*ServiceNode {
	var out []*ServiceNode
	var walk func(PlanNode)
	walk = func(n PlanNode) {
		switch v := n.(type) {
		case *ServiceNode:
			if v.Merged {
				out = append(out, v)
			}
		case *JoinNode:
			walk(v.L)
			walk(v.R)
		case *LeftJoinNode:
			walk(v.L)
			walk(v.R)
		case *FilterNode:
			walk(v.Child)
		case *UnionNode:
			for _, c := range v.Children {
				walk(c)
			}
		}
	}
	walk(n)
	return out
}
