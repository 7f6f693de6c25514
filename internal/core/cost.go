package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ontario/internal/rdf"
	"ontario/internal/stats"
	"ontario/internal/wrapper"
)

// Estimate is the cost model's prediction for one plan node.
type Estimate struct {
	// Card is the estimated number of output bindings.
	Card float64
	// Msgs is the estimated number of simulated network messages needed to
	// produce the node's output.
	Msgs float64
	// Cost is the scalar optimization objective in millisecond-equivalents:
	// message latency under the active network profile plus transferred-
	// binding volume.
	Cost float64
}

// explain appends the estimate to an EXPLAIN line.
func (e *Estimate) explain(b *strings.Builder) {
	if e == nil {
		return
	}
	fmt.Fprintf(b, "  {est card=%.0f msgs=%.0f cost=%.1f}", e.Card, e.Msgs, e.Cost)
}

const (
	// unknownCard is the pessimistic cardinality for shapes the statistics
	// cannot describe; overestimating keeps batching the safe default.
	unknownCard = 1e7
	// perBindingMS prices shipping and processing one binding, so transfer
	// volume matters even on a zero-latency profile.
	perBindingMS = 0.01
	// minRTTMS floors the per-message latency so message counts keep
	// steering the optimizer under the No Delay profile.
	minRTTMS = 0.05
	// filterSelectivity is the flat selectivity charged per filter
	// expression (the model does not inspect filter shapes).
	filterSelectivity = 0.25
	// dpMaxLeaves bounds the dynamic-programming join ordering; above it
	// the ordering falls back to cost-greedy accumulation.
	dpMaxLeaves = 8
)

// costModel estimates cardinality, message count and cost for plan nodes
// from the statistics provider, pricing messages with the active network
// profile's mean latency.
type costModel struct {
	prov  stats.Provider
	opts  Options
	rtt   float64 // per-message latency, ms
	block int
	conc  int
}

func newCostModel(prov stats.Provider, opts Options) *costModel {
	rtt := float64(opts.Network.MeanLatency()) / float64(time.Millisecond)
	if rtt < minRTTMS {
		rtt = minRTTMS
	}
	return &costModel{
		prov:  prov,
		opts:  opts,
		rtt:   rtt,
		block: opts.EffectiveBindBlockSize(),
		conc:  opts.EffectiveBindConcurrency(),
	}
}

// rttFor resolves the per-message latency to price a service node with:
// the source's measured latency (a remote source's observed EWMA, inflated
// by its failure rate) when Options.MeasuredLatency knows it, the static
// network profile's mean otherwise.
func (cm *costModel) rttFor(n PlanNode) float64 {
	svc, ok := n.(*ServiceNode)
	if !ok || cm.opts.MeasuredLatency == nil {
		return cm.rtt
	}
	d, ok := cm.opts.MeasuredLatency(svc.SourceID)
	if !ok {
		return cm.rtt
	}
	ms := float64(d) / float64(time.Millisecond)
	if ms < minRTTMS {
		ms = minRTTMS
	}
	return ms
}

// estimate derives the estimate of a sub-plan, caching it on service and
// join nodes so EXPLAIN can render it.
func (cm *costModel) estimate(n PlanNode) Estimate {
	switch v := n.(type) {
	case *ServiceNode:
		if v.Est == nil {
			e := cm.serviceEstimate(v)
			v.Est = &e
		}
		return *v.Est
	case *JoinNode:
		if v.Est == nil {
			e := cm.operatorEstimate(v.Op, v.L, v.R, v.JoinVars)
			v.Est = &e
		}
		return *v.Est
	case *LeftJoinNode:
		l, r := cm.estimate(v.L), cm.estimate(v.R)
		return Estimate{Card: l.Card, Msgs: l.Msgs + r.Msgs, Cost: l.Cost + r.Cost}
	case *FilterNode:
		e := cm.estimate(v.Child)
		e.Card = math.Max(e.Card*filterSelectivity, 1)
		return e
	case *UnionNode:
		var out Estimate
		for _, c := range v.Children {
			e := cm.estimate(c)
			out.Card += e.Card
			out.Msgs += e.Msgs
			out.Cost += e.Cost
		}
		return out
	default:
		return Estimate{Card: unknownCard, Msgs: unknownCard, Cost: unknownCard * perBindingMS}
	}
}

// serviceEstimate prices a full scan of the request: every answer crosses
// the network as one message.
func (cm *costModel) serviceEstimate(n *ServiceNode) Estimate {
	card := unknownCard
	if src := cm.prov.Source(n.SourceID); src != nil {
		card = cm.requestCard(src, n.Req)
	}
	return Estimate{Card: card, Msgs: card, Cost: card * (cm.rttFor(n) + perBindingMS)}
}

// requestCard estimates a wrapper request's answers: per-star extents scaled
// by pattern selectivities; merged stars (Heuristic 1) join on an indexed
// attribute, approximated by the most selective star; pushed filters apply
// last.
func (cm *costModel) requestCard(src *stats.SourceStats, req *wrapper.Request) float64 {
	card := -1.0
	for _, star := range req.Stars {
		sc := cm.starCard(src, star)
		if card < 0 {
			card = sc
		} else {
			card = math.Max(math.Min(card, sc), 1)
		}
	}
	if card < 0 {
		card = unknownCard
	}
	for range req.Filters {
		card = math.Max(card*filterSelectivity, 1)
	}
	return card
}

// starCard estimates one star's answers at a source from the class extent
// and per-predicate statistics: variable objects multiply by the
// predicate's coverage×fanout, constant objects additionally divide by the
// distinct object count (equality selectivity).
func (cm *costModel) starCard(src *stats.SourceStats, star *wrapper.StarQuery) float64 {
	cs := src.Class(star.Class)
	if cs == nil {
		cs = src.Class("")
	}
	if cs == nil {
		return unknownCard
	}
	extent := math.Max(float64(cs.Extent), 1)
	card := extent
	if star.SubjectVar == "" {
		card = 1 // constant subject: one entity's star
	}
	for _, tp := range star.Patterns {
		if tp.P.IsVar || tp.P.Term.Value == rdf.RDFType {
			continue
		}
		ps := cs.Predicate(tp.P.Term.Value)
		if ps == nil {
			continue
		}
		var mult float64
		if star.SubjectVar == "" {
			mult = ps.Fanout()
		} else {
			mult = float64(ps.Count) / extent
		}
		if !tp.O.IsVar {
			mult /= math.Max(float64(ps.DistinctObjects), 1)
		}
		card *= mult
	}
	return math.Max(card, 1)
}

// joinCard estimates a join's output with the classic independence
// assumption |L ⋈ R| = |L|·|R| / max(V(L,v), V(R,v)), using per-variable
// distinct-value estimates so fanouts (one left value matching several
// right rows) grow the result instead of being clamped to the smaller
// input.
func (cm *costModel) joinCard(lNode, rNode PlanNode, joinVars []string) float64 {
	l, r := cm.estimate(lNode), cm.estimate(rNode)
	if len(joinVars) == 0 {
		return l.Card * r.Card
	}
	maxV := 1.0
	for _, v := range joinVars {
		dv := math.Max(cm.distinctOf(lNode, v), cm.distinctOf(rNode, v))
		if dv > maxV {
			maxV = dv
		}
	}
	return math.Max(l.Card*r.Card/maxV, 1)
}

// distinctOf estimates how many distinct values the sub-plan's output binds
// for variable v, capped by the output cardinality.
func (cm *costModel) distinctOf(n PlanNode, v string) float64 {
	card := cm.estimate(n).Card
	switch node := n.(type) {
	case *ServiceNode:
		if src := cm.prov.Source(node.SourceID); src != nil {
			if d := serviceDistinct(src, node.Req, v); d > 0 {
				return math.Min(d, card)
			}
		}
		return card
	case *JoinNode:
		return math.Min(cm.childDistinct(node.L, node.R, v), card)
	case *LeftJoinNode:
		return math.Min(cm.childDistinct(node.L, node.R, v), card)
	case *FilterNode:
		return math.Min(cm.distinctOf(node.Child, v), card)
	case *UnionNode:
		total := 0.0
		for _, c := range node.Children {
			total += cm.distinctOf(c, v)
		}
		return math.Min(math.Max(total, 1), card)
	default:
		return card
	}
}

func (cm *costModel) childDistinct(l, r PlanNode, v string) float64 {
	lHas, rHas := hasVar(l.Vars(), v), hasVar(r.Vars(), v)
	switch {
	case lHas && rHas:
		return math.Min(cm.distinctOf(l, v), cm.distinctOf(r, v))
	case lHas:
		return cm.distinctOf(l, v)
	case rHas:
		return cm.distinctOf(r, v)
	default:
		return 1
	}
}

func hasVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// serviceDistinct reads the distinct-value statistic backing v in the
// request's stars: the class extent when v is a star subject, the
// predicate's distinct object count when v is a pattern object; 0 when the
// statistics do not cover v.
func serviceDistinct(src *stats.SourceStats, req *wrapper.Request, v string) float64 {
	for _, star := range req.Stars {
		cs := src.Class(star.Class)
		if cs == nil {
			cs = src.Class("")
		}
		if cs == nil {
			continue
		}
		if star.SubjectVar == v {
			return math.Max(float64(cs.Extent), 1)
		}
		for _, tp := range star.Patterns {
			if tp.O.IsVar && tp.O.Var == v && !tp.P.IsVar {
				if ps := cs.Predicate(tp.P.Term.Value); ps != nil {
					return math.Max(float64(ps.DistinctObjects), 1)
				}
			}
		}
	}
	return 0
}

// operatorEstimate prices a join under one physical operator. Dependent
// operators require a plain service on the right; the executor falls back
// to the hash join otherwise, and so does the estimate.
func (cm *costModel) operatorEstimate(op JoinOperator, lNode, rNode PlanNode, joinVars []string) Estimate {
	if op == JoinBind || op == JoinBlockBind {
		if _, ok := rNode.(*ServiceNode); ok {
			if op == JoinBlockBind {
				return cm.blockBindEstimate(lNode, rNode, joinVars)
			}
			return cm.bindEstimate(lNode, rNode, joinVars)
		}
	}
	return cm.hashEstimate(lNode, rNode, joinVars)
}

// hashEstimate: both inputs stream in full and are merged at the engine.
func (cm *costModel) hashEstimate(lNode, rNode PlanNode, joinVars []string) Estimate {
	l, r := cm.estimate(lNode), cm.estimate(rNode)
	card := cm.joinCard(lNode, rNode, joinVars)
	return Estimate{
		Card: card,
		Msgs: l.Msgs + r.Msgs,
		Cost: l.Cost + r.Cost + card*perBindingMS,
	}
}

// bindEstimate: one instantiated request per left binding, strictly
// sequential; every right answer crosses as its own message, and each
// request round-trips before the next.
func (cm *costModel) bindEstimate(lNode, rNode PlanNode, joinVars []string) Estimate {
	l := cm.estimate(lNode)
	card := cm.joinCard(lNode, rNode, joinVars)
	rtt := cm.rttFor(rNode)
	return Estimate{
		Card: card,
		Msgs: l.Msgs + card,
		Cost: l.Cost + l.Card*(rtt+perBindingMS) + card*(rtt+perBindingMS),
	}
}

// blockBindEstimate: ⌈|L|/B⌉ multi-seed requests, one response message per
// block; the whole left side ships to the source as seed bindings.
func (cm *costModel) blockBindEstimate(lNode, rNode PlanNode, joinVars []string) Estimate {
	l := cm.estimate(lNode)
	card := cm.joinCard(lNode, rNode, joinVars)
	blocks := math.Max(math.Ceil(l.Card/float64(cm.block)), 1)
	return Estimate{
		Card: card,
		Msgs: l.Msgs + blocks,
		Cost: l.Cost + blocks*cm.rttFor(rNode) + l.Card*perBindingMS + card*perBindingMS,
	}
}

// chooseJoin builds the cheapest join of l and r on their shared variables:
// a forced Options.JoinOperator is honored as-is (the ablation override);
// otherwise the symmetric hash join is weighed against seeding the right
// side. The dependent candidate is the block bind join, whose block grows
// from one seed, so it never bets on the left estimate reaching a block;
// the sequential bind join stands in only when blocks hold one seed.
func (cm *costModel) chooseJoin(l, r *orderedPlan, shared []string) *orderedPlan {
	op := JoinSymmetricHash
	est := cm.hashEstimate(l.node, r.node, shared)
	if cm.opts.JoinOperator != JoinSymmetricHash {
		op = cm.opts.JoinOperator
		est = cm.operatorEstimate(op, l.node, r.node, shared)
	} else if _, isSvc := r.node.(*ServiceNode); isSvc && len(shared) > 0 {
		depOp := JoinBlockBind
		if cm.block == 1 {
			depOp = JoinBind
		}
		depEst := cm.operatorEstimate(depOp, l.node, r.node, shared)
		if depEst.Cost < est.Cost {
			op, est = depOp, depEst
		}
	}
	node := &JoinNode{L: l.node, R: r.node, JoinVars: shared, Op: op, Est: &est}
	return &orderedPlan{node: node, est: est}
}

// partitionVars returns the set of variables the node's output stream is
// hash-partitioned by under cluster execution, or nil when the output is
// scattered. A single-star unseeded service is partitioned by its
// subject variable (PartitionLake routes every model's rows by the
// subject-term hash); a symmetric-hash join whose sides share a
// partition variable among its join variables keeps both sides' keys; a
// filter inherits its child; a union keeps the variables all children
// agree on. A non-nil result also proves the subtree serializes as a
// worker fragment: only those four node kinds can produce one.
//
// The analysis runs at execution time, not planning time: plans are
// cluster-agnostic (Options.Cluster is an execution option), so a cached
// plan shared between clustered and single-node runs carries no
// partition assumptions.
func partitionVars(n PlanNode) map[string]bool {
	switch v := n.(type) {
	case *ServiceNode:
		if v.Req == nil || len(v.Req.Stars) != 1 || v.Req.Seeds.Rows > 0 {
			return nil
		}
		s := v.Req.Stars[0]
		if s.SubjectVar == "" {
			return nil
		}
		return map[string]bool{s.SubjectVar: true}
	case *JoinNode:
		if v.Op != JoinSymmetricHash {
			return nil
		}
		pl := partitionVars(v.L)
		if pl == nil {
			return nil
		}
		pr := partitionVars(v.R)
		if pr == nil {
			return nil
		}
		aligned := false
		for _, u := range v.JoinVars {
			if pl[u] && pr[u] {
				aligned = true
				break
			}
		}
		if !aligned {
			return nil
		}
		// Joined rows co-reside with both inputs, so every partition
		// variable of either side still locates the row's worker.
		out := make(map[string]bool, len(pl)+len(pr))
		for u := range pl {
			out[u] = true
		}
		for u := range pr {
			out[u] = true
		}
		return out
	case *FilterNode:
		return partitionVars(v.Child)
	case *UnionNode:
		if len(v.Children) == 0 {
			return nil
		}
		acc := partitionVars(v.Children[0])
		for _, c := range v.Children[1:] {
			if acc == nil {
				return nil
			}
			p := partitionVars(c)
			if p == nil {
				return nil
			}
			for u := range acc {
				if !p[u] {
					delete(acc, u)
				}
			}
		}
		if len(acc) == 0 {
			return nil
		}
		return acc
	default:
		return nil
	}
}

// coPartitioned reports whether the join's matching row pairs provably
// co-reside on single workers — both sides partitioned by a common join
// variable — so each worker can join its partition locally and ship only
// results: zero shuffled batches.
func coPartitioned(v *JoinNode) bool { return partitionVars(v) != nil }
