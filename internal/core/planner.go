package core

import (
	"fmt"

	"ontario/internal/catalog"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/stats"
	"ontario/internal/wrapper"
)

// Planner generates query execution plans over a data-lake catalog.
type Planner struct {
	cat  *catalog.Catalog
	prov *stats.CatalogProvider
}

// NewPlanner returns a planner for the catalog.
func NewPlanner(cat *catalog.Catalog) *Planner {
	return &Planner{cat: cat, prov: stats.NewProvider(cat)}
}

// Stats exposes the planner's statistics provider (shared across plans, so
// per-source statistics are computed once per catalog).
func (p *Planner) Stats() stats.Provider { return p.prov }

// unit is one plan-generation unit: a set of stars bound to a candidate.
type unit struct {
	stars []*SSQ
	// classes holds the resolved class per star (parallel to stars); it is
	// authoritative for single-candidate and merged units.
	classes []string
	// cands holds the alternative (class, source) pairs; merging only
	// happens for single-candidate units.
	cands  []Candidate
	merged bool
}

// Plan decomposes, selects sources, applies the heuristics per opts, and
// returns the execution plan. A forced Options.JoinOperator is kept as
// given on every join; otherwise the cost optimizer's per-join choice
// (chooseJoin) is the only place bind and block bind joins are decided.
func (p *Planner) Plan(q *sparql.Query, opts Options) (*Plan, error) {
	root, err := p.planGroup(q, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{Query: q, Root: root, Opts: opts}, nil
}

// planGroup plans one group graph pattern: its basic graph pattern
// (decomposition, source selection, Heuristic 1, filter placement, leaves
// and join tree), joined with its UNION groups and left-joined with its
// OPTIONAL groups. UNION branches and OPTIONAL groups are planned as
// groups of their own patterns, with no filters to place: a branch's
// filters run at the engine over the branch, an OPTIONAL group's follow
// SPARQL LeftJoin semantics (evaluated over the merged binding).
func (p *Planner) planGroup(q *sparql.Query, opts Options) (PlanNode, error) {
	ssqs := Decompose(q)
	cands, err := SelectSources(p.cat, ssqs)
	if err != nil {
		return nil, err
	}
	units := make([]*unit, len(ssqs))
	for i := range ssqs {
		u := &unit{stars: []*SSQ{ssqs[i]}, cands: cands[i]}
		if len(cands[i]) == 1 {
			u.classes = []string{cands[i][0].Class}
		}
		units[i] = u
	}

	// Heuristic 1: combine SSQs over the same relational endpoint when the
	// join attribute is indexed.
	if opts.Aware {
		units = p.applyHeuristic1(units)
	}

	// Filter placement (Heuristic 2 family).
	policy := FilterAtEngine
	if opts.Aware {
		policy = opts.FilterPolicy
	}
	pushed := make([][]sparql.Expr, len(units))
	var engineFilters []sparql.Expr
	for _, f := range q.Filters {
		ui := p.placeFilter(f, units, policy, opts)
		if ui >= 0 {
			pushed[ui] = append(pushed[ui], f)
		} else {
			engineFilters = append(engineFilters, f)
		}
	}

	leaves := make([]PlanNode, len(units))
	for i, u := range units {
		leaves[i] = p.unitNode(u, pushed[i])
	}

	// Join ordering: cost-based (DP/cost-greedy with per-join operator
	// selection) or the legacy shared-variable greedy tree; nil when the
	// group has no triple patterns of its own.
	var root PlanNode
	if opts.Optimizer == OptimizerCost {
		root = newCostModel(p.prov, opts).orderJoins(leaves)
	} else {
		root = orderJoinsGreedyVars(leaves, opts.JoinOperator)
	}

	for _, ug := range q.Unions {
		un := &UnionNode{}
		for _, br := range ug.Branches {
			sub, err := p.planGroup(&sparql.Query{Patterns: br.Patterns}, opts)
			if err != nil {
				return nil, err
			}
			if len(br.Filters) > 0 {
				sub = &FilterNode{Child: sub, Exprs: br.Filters}
			}
			un.Children = append(un.Children, sub)
		}
		if root == nil {
			root = un
			continue
		}
		root = &JoinNode{
			L: root, R: un,
			JoinVars: sparql.SharedVars(root.Vars(), un.Vars()),
			Op:       opts.JoinOperator,
		}
	}
	if root == nil {
		return nil, fmt.Errorf("core: query has no triple patterns")
	}

	for _, og := range q.Optionals {
		sub, err := p.planGroup(&sparql.Query{Patterns: og.Patterns}, opts)
		if err != nil {
			return nil, err
		}
		root = &LeftJoinNode{L: root, R: sub, Filters: og.Filters}
	}

	// Engine-level filters go on top of the group (filters one unit
	// covers were pushed by placeFilter).
	if len(engineFilters) > 0 {
		root = &FilterNode{Child: root, Exprs: engineFilters}
	}
	return root, nil
}

// applyHeuristic1 merges star units pairwise (transitively) when they have
// a single candidate over the same relational source, share a join
// variable, and the attribute backing that variable is indexed on both
// sides.
func (p *Planner) applyHeuristic1(units []*unit) []*unit {
	changed := true
	for changed {
		changed = false
	outer:
		for i := 0; i < len(units); i++ {
			for j := i + 1; j < len(units); j++ {
				if p.mergeable(units[i], units[j]) {
					units[i].stars = append(units[i].stars, units[j].stars...)
					units[i].classes = append(units[i].classes, units[j].classes...)
					units[i].merged = true
					units = append(units[:j], units[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return units
}

// mergeable implements Heuristic 1's precondition.
func (p *Planner) mergeable(a, b *unit) bool {
	if len(a.cands) != 1 || len(b.cands) != 1 {
		return false
	}
	ca, cb := a.cands[0], b.cands[0]
	if ca.SourceID != cb.SourceID {
		return false
	}
	src := p.cat.Source(ca.SourceID)
	if src == nil || src.Model != catalog.ModelRelational {
		return false
	}
	shared := sparql.SharedVars(varsOfStars(a.stars), varsOfStars(b.stars))
	if len(shared) == 0 {
		return false
	}
	// The join attribute must be indexed on both sides for at least one
	// shared variable.
	for _, v := range shared {
		if p.varIndexedInUnit(src, a, v) && p.varIndexedInUnit(src, b, v) {
			return true
		}
	}
	return false
}

func varsOfStars(stars []*SSQ) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range stars {
		for _, v := range s.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// varIndexedInUnit reports whether, in every star of the unit where v
// occurs, the storage column backing v is indexed at src.
func (p *Planner) varIndexedInUnit(src *catalog.Source, u *unit, v string) bool {
	occurs := false
	for si, star := range u.stars {
		class := u.cands[0].Class
		if si < len(u.classes) {
			class = u.classes[si]
		}
		cm := src.Mapping(class)
		if cm == nil {
			return false
		}
		if star.SubjectVar == v {
			occurs = true
			if !src.SubjectIndexed(cm) {
				return false
			}
			continue
		}
		for _, tp := range star.Patterns {
			if tp.O.IsVar && tp.O.Var == v {
				occurs = true
				if tp.P.IsVar {
					return false
				}
				if tp.P.Term.Value == rdf.RDFType {
					continue
				}
				if !src.HasIndexOn(cm, tp.P.Term.Value, false) {
					return false
				}
			}
		}
	}
	return occurs
}

// placeFilter decides where a filter runs. It returns the index of the
// unit to push it into, or -1 for engine-level evaluation.
func (p *Planner) placeFilter(f sparql.Expr, units []*unit, policy FilterPolicy, opts Options) int {
	fvars := f.Vars()
	if len(fvars) == 0 {
		return -1
	}
	// Find the unique unit covering all filter variables.
	owner := -1
	for i, u := range units {
		if coversAll(varsOfStars(u.stars), fvars) {
			if owner >= 0 {
				return -1 // ambiguous: evaluate at engine
			}
			owner = i
		}
	}
	if owner < 0 {
		return -1
	}
	u := units[owner]
	if len(u.cands) != 1 {
		return -1 // unioned star: engine level
	}
	src := p.cat.Source(u.cands[0].SourceID)
	if src == nil {
		return -1
	}
	if src.Model == catalog.ModelRDF {
		// RDF endpoints accept the filter as part of the sub-query in both
		// plan types; pushing costs nothing model-wise. The paper's
		// heuristics only concern relational sources.
		if policy == FilterAtEngine {
			return -1
		}
		return owner
	}
	indexed := p.filterAttrsIndexed(src, u, fvars)
	switch policy {
	case FilterAtSourceIfIndexed:
		if indexed {
			return owner
		}
		return -1
	case FilterHeuristic2:
		if indexed && opts.Network.IsSlow() {
			return owner
		}
		return -1
	default:
		return -1
	}
}

func coversAll(have, need []string) bool {
	set := map[string]bool{}
	for _, v := range have {
		set[v] = true
	}
	for _, v := range need {
		if !set[v] {
			return false
		}
	}
	return true
}

// filterAttrsIndexed reports whether every filter variable is backed by an
// indexed column in the unit's stars.
func (p *Planner) filterAttrsIndexed(src *catalog.Source, u *unit, fvars []string) bool {
	for _, v := range fvars {
		if !p.varIndexedInUnit(src, u, v) {
			return false
		}
	}
	return true
}

// unitNode builds the plan node for a unit: a ServiceNode per candidate,
// wrapped in a Union when several candidates exist.
func (p *Planner) unitNode(u *unit, pushed []sparql.Expr) PlanNode {
	mkService := func(c Candidate) *ServiceNode {
		req := &wrapper.Request{Filters: pushed}
		for si, star := range u.stars {
			class := c.Class
			if si < len(u.classes) {
				class = u.classes[si]
			}
			if tc, ok := star.TypeClass(); ok {
				class = tc
			}
			req.Stars = append(req.Stars, &wrapper.StarQuery{
				SubjectVar: star.SubjectVar,
				Class:      class,
				Patterns:   starPatterns(star),
			})
		}
		return &ServiceNode{SourceID: c.SourceID, Req: req, Merged: u.merged}
	}
	if len(u.cands) == 1 {
		return mkService(u.cands[0])
	}
	un := &UnionNode{}
	for _, c := range u.cands {
		un.Children = append(un.Children, mkService(c))
	}
	return un
}

func starPatterns(star *SSQ) []sparql.TriplePattern {
	return append([]sparql.TriplePattern(nil), star.Patterns...)
}
