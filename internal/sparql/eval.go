package sparql

import (
	"sort"

	"ontario/internal/rdf"
)

// EvalBGP evaluates a basic graph pattern against a graph and returns the
// solution bindings. Patterns are reordered greedily by estimated
// selectivity (bound positions first) before evaluation. It is the
// reference the RDF wrapper's dictionary-ID walk reproduces row for row.
func EvalBGP(g *rdf.Graph, patterns []TriplePattern) []Binding {
	solutions := []Binding{NewBinding()}
	for _, tp := range OrderPatterns(g, patterns, map[string]bool{}) {
		var next []Binding
		for _, b := range solutions {
			next = append(next, matchPattern(g, tp, b)...)
		}
		solutions = next
		if len(solutions) == 0 {
			return nil
		}
	}
	return solutions
}

// EvalQuery evaluates a full query (BGP + filters + modifiers) against a
// single graph. It is used by the RDF source wrapper and in tests as a
// reference implementation.
func EvalQuery(g *rdf.Graph, q *Query) []Binding {
	sols := EvalBGP(g, q.Patterns)
	for _, ug := range q.Unions {
		var ub []Binding
		for _, br := range ug.Branches {
			brSols := EvalBGP(g, br.Patterns)
			for _, b := range brSols {
				ok := true
				for _, f := range br.Filters {
					if !EvalBool(f, b) {
						ok = false
						break
					}
				}
				if ok {
					ub = append(ub, b)
				}
			}
		}
		sols = JoinBindings(sols, ub)
	}
	for _, og := range q.Optionals {
		sols = LeftJoinBindings(sols, EvalBGP(g, og.Patterns), og.Filters)
	}
	if len(q.Filters) > 0 {
		var kept []Binding
		for _, b := range sols {
			ok := true
			for _, f := range q.Filters {
				if !EvalBool(f, b) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, b)
			}
		}
		sols = kept
	}
	if len(q.SelectVars) > 0 {
		for i, b := range sols {
			sols[i] = b.Project(q.SelectVars)
		}
	}
	if q.Distinct {
		seen := map[string]bool{}
		var kept []Binding
		for _, b := range sols {
			k := b.FullKey()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, b)
			}
		}
		sols = kept
	}
	if len(q.OrderBy) > 0 {
		SortBindings(sols, q.OrderBy)
	}
	if q.Offset > 0 {
		if q.Offset >= len(sols) {
			sols = nil
		} else {
			sols = sols[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	return sols
}

// JoinBindings joins two solution sequences on compatibility (the SPARQL
// Join operator).
func JoinBindings(left, right []Binding) []Binding {
	var out []Binding
	for _, l := range left {
		for _, r := range right {
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
	}
	return out
}

// LeftJoinBindings implements the SPARQL LeftJoin operator: every left
// binding is extended with each compatible right binding that satisfies the
// filters; left bindings with no such extension survive unextended.
func LeftJoinBindings(left, right []Binding, filters []Expr) []Binding {
	var out []Binding
	for _, l := range left {
		matched := false
		for _, r := range right {
			if !l.Compatible(r) {
				continue
			}
			m := l.Merge(r)
			ok := true
			for _, f := range filters {
				if !EvalBool(f, m) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, m)
				matched = true
			}
		}
		if !matched {
			out = append(out, l)
		}
	}
	return out
}

// SortBindings sorts bindings in place by the given order keys.
func SortBindings(sols []Binding, keys []OrderKey) {
	sort.SliceStable(sols, func(i, j int) bool {
		for _, k := range keys {
			c := compareTermsForOrder(sols[i][k.Var], sols[j][k.Var])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// CompareOrderTerms compares two terms with ORDER BY semantics (numeric
// when both coerce to numbers, lexical otherwise); it backs SortBindings
// and the columnar ORDER BY operator.
func CompareOrderTerms(a, b rdf.Term) int { return compareTermsForOrder(a, b) }

func compareTermsForOrder(a, b rdf.Term) int {
	av, bv := TermValue(a), TermValue(b)
	if av.Kind == ValNumber && bv.Kind == ValNumber {
		switch {
		case av.Num < bv.Num:
			return -1
		case av.Num > bv.Num:
			return 1
		default:
			return 0
		}
	}
	al, bl := a.Value, b.Value
	switch {
	case al < bl:
		return -1
	case al > bl:
		return 1
	default:
		return 0
	}
}

// OrderPatterns reorders triple patterns greedily: start with the most
// selective pattern (fewest graph matches), then repeatedly pick the pattern
// sharing a variable with the already-chosen set that has the fewest
// matches, falling back to the globally cheapest remaining pattern. bound
// holds the variables bound before the first pattern; it is updated.
func OrderPatterns(g *rdf.Graph, patterns []TriplePattern, bound map[string]bool) []TriplePattern {
	if len(patterns) <= 1 {
		return patterns
	}
	remaining := append([]TriplePattern(nil), patterns...)
	cost := func(tp TriplePattern) int {
		s, p, o := boundTerm(tp.S), boundTerm(tp.P), boundTerm(tp.O)
		return g.Count(s, p, o)
	}
	var out []TriplePattern
	pick := func(onlyConnected bool) int {
		best, bestCost := -1, 0
		for i, tp := range remaining {
			if onlyConnected && !sharesVar(tp, bound) {
				continue
			}
			c := cost(tp)
			if best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		return best
	}
	for len(remaining) > 0 {
		i := -1
		if len(bound) > 0 {
			i = pick(true)
		}
		if i == -1 {
			i = pick(false)
		}
		tp := remaining[i]
		remaining = append(remaining[:i], remaining[i+1:]...)
		out = append(out, tp)
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return out
}

func sharesVar(tp TriplePattern, bound map[string]bool) bool {
	for _, v := range tp.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

func boundTerm(n Node) *rdf.Term {
	if n.IsVar {
		return nil
	}
	t := n.Term
	return &t
}

// matchPattern extends binding b with all matches of tp in g.
func matchPattern(g *rdf.Graph, tp TriplePattern, b Binding) []Binding {
	s := resolve(tp.S, b)
	p := resolve(tp.P, b)
	o := resolve(tp.O, b)
	triples := g.Match(s, p, o)
	out := make([]Binding, 0, len(triples))
	for _, t := range triples {
		nb := b
		copied := false
		ok := true
		for _, bind := range []struct {
			n Node
			t rdf.Term
		}{{tp.S, t.S}, {tp.P, t.P}, {tp.O, t.O}} {
			if !bind.n.IsVar {
				continue
			}
			if cur, bound := nb[bind.n.Var]; bound {
				if cur != bind.t {
					ok = false
					break
				}
				continue
			}
			if !copied {
				nb = nb.Copy()
				copied = true
			}
			nb[bind.n.Var] = bind.t
		}
		if ok {
			if !copied {
				nb = nb.Copy()
			}
			out = append(out, nb)
		}
	}
	return out
}

func resolve(n Node, b Binding) *rdf.Term {
	if !n.IsVar {
		t := n.Term
		return &t
	}
	if t, ok := b[n.Var]; ok {
		return &t
	}
	return nil
}
