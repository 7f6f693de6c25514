package core

import (
	"math/bits"

	"ontario/internal/sparql"
)

// orderedPlan pairs a plan (sub-)tree with its estimate during ordering.
type orderedPlan struct {
	node PlanNode
	est  Estimate
}

// orderJoins builds the join tree over the leaves with the cost model:
// exact dynamic programming over connected sub-plans up to dpMaxLeaves
// leaves, cost-greedy accumulation above. Cross products are admitted only
// for leaf sets no variable-connected split can join.
func (cm *costModel) orderJoins(leaves []PlanNode) PlanNode {
	if len(leaves) == 0 {
		return nil
	}
	plans := make([]*orderedPlan, len(leaves))
	for i, l := range leaves {
		plans[i] = &orderedPlan{node: l, est: cm.estimate(l)}
	}
	if len(plans) == 1 {
		return plans[0].node
	}
	if len(plans) <= dpMaxLeaves {
		return cm.orderDP(plans)
	}
	return cm.orderGreedy(plans)
}

// orderDP is textbook DP over leaf bitmasks: best[mask] is the cheapest
// tree covering exactly the leaves of mask. Both orientations of every
// split are enumerated (the split and its complement each occur as the
// left side), so dependent operators see every candidate right service.
func (cm *costModel) orderDP(plans []*orderedPlan) PlanNode {
	n := len(plans)
	best := make([]*orderedPlan, 1<<n)
	for i, p := range plans {
		best[1<<i] = p
	}
	for mask := 1; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		// First pass admits only variable-connected splits; the second,
		// reached when the mask's leaves cannot be connected, admits cross
		// products so planning never fails.
		for pass := 0; pass < 2 && best[mask] == nil; pass++ {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				l, r := best[sub], best[mask^sub]
				if l == nil || r == nil {
					continue
				}
				shared := sparql.SharedVars(l.node.Vars(), r.node.Vars())
				if pass == 0 && len(shared) == 0 {
					continue
				}
				cand := cm.chooseJoin(l, r, shared)
				if best[mask] == nil || cand.est.Cost < best[mask].est.Cost {
					best[mask] = cand
				}
			}
		}
	}
	return best[(1<<n)-1].node
}

// orderGreedy accumulates a join tree left-to-right: it starts from the
// cheapest leaf and repeatedly attaches the variable-connected leaf whose
// join is cheapest (falling back to a cross product only when nothing
// connects).
func (cm *costModel) orderGreedy(plans []*orderedPlan) PlanNode {
	rootIdx := 0
	for i, p := range plans {
		if p.est.Cost < plans[rootIdx].est.Cost {
			rootIdx = i
		}
	}
	root := plans[rootIdx]
	remaining := append(append([]*orderedPlan(nil), plans[:rootIdx]...), plans[rootIdx+1:]...)
	for len(remaining) > 0 {
		bestIdx := -1
		var bestJoin *orderedPlan
		for pass := 0; pass < 2 && bestIdx == -1; pass++ {
			for i, cand := range remaining {
				shared := sparql.SharedVars(root.node.Vars(), cand.node.Vars())
				if pass == 0 && len(shared) == 0 {
					continue
				}
				j := cm.chooseJoin(root, cand, shared)
				if bestIdx == -1 || j.est.Cost < bestJoin.est.Cost {
					bestIdx, bestJoin = i, j
				}
			}
		}
		root = bestJoin
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return root.node
}

// orderJoinsGreedyVars is the legacy physical-design-unaware ordering: a
// left-deep tree built greedily by shared-variable count with one global
// operator.
func orderJoinsGreedyVars(leaves []PlanNode, op JoinOperator) PlanNode {
	if len(leaves) == 0 {
		return nil
	}
	root := leaves[0]
	remaining := append([]PlanNode(nil), leaves[1:]...)
	for len(remaining) > 0 {
		best := -1
		var bestShared []string
		for i, cand := range remaining {
			shared := sparql.SharedVars(root.Vars(), cand.Vars())
			if best == -1 || len(shared) > len(bestShared) {
				best, bestShared = i, shared
			}
		}
		next := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		root = &JoinNode{L: root, R: next, JoinVars: bestShared, Op: op}
	}
	return root
}
