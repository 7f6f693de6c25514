package core

import (
	"context"
	"sort"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// Distributor executes plan fragments on a cluster of partitioned
// workers. internal/cluster provides the implementation; core only
// depends on this interface so the executor stays free of any transport
// concern.
type Distributor interface {
	// Workers returns the size of the worker pool.
	Workers() int
	// ShuffleJoin hash-partitions both inputs by join key across the
	// workers and streams back the union of the per-worker symmetric
	// hash joins.
	ShuffleJoin(ctx context.Context, left, right *engine.CStream, joinVars []string, out *engine.Schema, d *dict.Dict, env FragmentEnv) (*engine.CStream, error)
	// Colocated reports whether the pool is a complete co-partitioned
	// cut of the lake under a common partition scheme — the precondition
	// for pushing a partition-aligned join down whole via RunFragment.
	Colocated(ctx context.Context, d *dict.Dict) bool
	// RunFragment runs a serializable plan subtree on every worker's
	// partition and streams back the union of their local results. A
	// ServiceNode is the one-leaf fragment: one wrapper request, seeded or
	// not, whose seed IDs belong to d. A larger subtree requires the
	// caller to have proven (via partition analysis plus Colocated) that
	// local evaluation distributes over the partitioning.
	RunFragment(ctx context.Context, root PlanNode, out *engine.Schema, d *dict.Dict, env FragmentEnv) (*engine.CStream, error)
}

// FragmentEnv carries the per-execution context a distributor forwards to
// workers: the execution-shaping options plus the simulation parameters,
// and the execution's error sink for asynchronous fragment failures.
type FragmentEnv struct {
	Opts  Options
	Scale float64
	Seed  int64
	// Fail parks an asynchronous fragment failure on the execution (the
	// cursor's Err reports the first one); cancellation is ignored.
	Fail func(error)
}

// fragmentEnv builds the distributor context for this execution.
func (x *Execution) fragmentEnv(opts Options) FragmentEnv {
	return FragmentEnv{Opts: opts, Scale: x.scale, Seed: x.seed, Fail: x.fail}
}

// Dict returns the executor's shared term dictionary (the lake-lifetime
// dictionary every execution interns into).
func (e *Executor) Dict() *dict.Dict { return e.terms }

// ResponseCache returns the executor's shared response cache (for its
// hit, miss, eviction and entry counters).
func (e *Executor) ResponseCache() *wrapper.ResponseCache { return e.responses }

// unmergeServices rewrites every Heuristic-1 merged service (one request
// joining several stars inside a single relational source) into an
// engine-level symmetric-hash join of single-star services. Partitioned
// workers hold disjoint row-slices of a source, so a pushed-down
// intra-source join would silently drop every pair of stars living on
// different partitions; unmerging routes those joins through the
// distributed shuffle, which sees all partitions. The rewrite builds
// nodes beside the (shared, read-only) plan tree and leaves it untouched.
func unmergeServices(n PlanNode) PlanNode {
	switch v := n.(type) {
	case *ServiceNode:
		if v.Req == nil || len(v.Req.Stars) <= 1 {
			return v
		}
		return v.unmerged()
	case *JoinNode:
		l, r := unmergeServices(v.L), unmergeServices(v.R)
		if l == v.L && r == v.R {
			return v
		}
		c := *v
		c.L, c.R = l, r
		return &c
	case *LeftJoinNode:
		l, r := unmergeServices(v.L), unmergeServices(v.R)
		if l == v.L && r == v.R {
			return v
		}
		c := *v
		c.L, c.R = l, r
		return &c
	case *FilterNode:
		ch := unmergeServices(v.Child)
		if ch == v.Child {
			return v
		}
		c := *v
		c.Child = ch
		return &c
	case *UnionNode:
		changed := false
		children := make([]PlanNode, len(v.Children))
		for i, ch := range v.Children {
			children[i] = unmergeServices(ch)
			changed = changed || children[i] != ch
		}
		if !changed {
			return v
		}
		return &UnionNode{Children: children}
	default:
		return n
	}
}

// unmerged memoizes splitMergedService on the node: the chain is read-only,
// so every clustered execution of a cached plan shares it and the
// single-star requests inside keep one fingerprint for the plan's lifetime.
func (n *ServiceNode) unmerged() PlanNode {
	if p := n.split.Load(); p != nil {
		return *p
	}
	chain := splitMergedService(n)
	n.split.CompareAndSwap(nil, &chain)
	return *n.split.Load()
}

// splitMergedService turns one merged multi-star service into a left-deep
// chain of symmetric-hash joins over single-star services. Pushed filters
// follow the first star that covers their variables; filters spanning
// stars lift to an engine-level FilterNode above the chain.
func splitMergedService(v *ServiceNode) PlanNode {
	stars := v.Req.Stars
	starVars := make([]map[string]bool, len(stars))
	for i, s := range stars {
		set := make(map[string]bool)
		for _, vn := range s.Vars() {
			set[vn] = true
		}
		starVars[i] = set
	}

	perStar := make([][]sparql.Expr, len(stars))
	var lifted []sparql.Expr
	for _, f := range v.Req.Filters {
		placed := false
		for i := range stars {
			covered := true
			for _, fv := range f.Vars() {
				if !starVars[i][fv] {
					covered = false
					break
				}
			}
			if covered {
				perStar[i] = append(perStar[i], f)
				placed = true
				break
			}
		}
		if !placed {
			lifted = append(lifted, f)
		}
	}

	var node PlanNode
	acc := make(map[string]bool)
	for i, st := range stars {
		svc := &ServiceNode{
			SourceID: v.SourceID,
			Req:      &wrapper.Request{Stars: []*wrapper.StarQuery{st}, Filters: perStar[i]},
		}
		if node == nil {
			node = svc
			for vn := range starVars[i] {
				acc[vn] = true
			}
			continue
		}
		var joinVars []string
		for vn := range starVars[i] {
			if acc[vn] {
				joinVars = append(joinVars, vn)
			}
		}
		sort.Strings(joinVars)
		node = &JoinNode{L: node, R: svc, JoinVars: joinVars, Op: JoinSymmetricHash}
		for vn := range starVars[i] {
			acc[vn] = true
		}
	}
	if len(lifted) > 0 {
		node = &FilterNode{Child: node, Exprs: lifted}
	}
	return node
}
