package rdf

import (
	"sort"
	"sync"
)

// Graph is an in-memory triple store. It maintains three hash indexes
// (SPO, POS, OSP) so that any triple pattern with at least one bound
// position can be answered without a full scan. Graph is safe for
// concurrent readers; writes must not run concurrently with reads.
type Graph struct {
	mu      sync.RWMutex
	triples []Triple
	spo     map[Term]map[Term][]int // subject -> predicate -> triple ids
	pos     map[Term]map[Term][]int // predicate -> object -> triple ids
	osp     map[Term]map[Term][]int // object -> subject -> triple ids
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		spo: make(map[Term]map[Term][]int),
		pos: make(map[Term]map[Term][]int),
		osp: make(map[Term]map[Term][]int),
	}
}

// Add inserts the triple, ignoring exact duplicates. It reports whether the
// triple was newly added.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.find(t) >= 0 {
		return false
	}
	id := len(g.triples)
	g.triples = append(g.triples, t)
	addIdx(g.spo, t.S, t.P, id)
	addIdx(g.pos, t.P, t.O, id)
	addIdx(g.osp, t.O, t.S, id)
	return true
}

// find returns the ID of triple t, or -1 when the graph does not hold it.
// osp[O][S] lists one triple per predicate linking S to O, so the scan is
// short.
func (g *Graph) find(t Triple) int {
	for _, id := range g.osp[t.O][t.S] {
		if g.triples[id].P == t.P {
			return id
		}
	}
	return -1
}

// AddAll inserts every triple in ts.
func (g *Graph) AddAll(ts []Triple) {
	for _, t := range ts {
		g.Add(t)
	}
}

func addIdx(idx map[Term]map[Term][]int, a, b Term, id int) {
	m := idx[a]
	if m == nil {
		m = make(map[Term][]int)
		idx[a] = m
	}
	m[b] = append(m[b], id)
}

// Len returns the number of distinct triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.triples)
}

// Contains reports whether the graph holds the exact triple.
func (g *Graph) Contains(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.find(t) >= 0
}

// Match returns all triples matching the pattern. A nil position is a
// wildcard. The result order is deterministic (insertion order).
func (g *Graph) Match(s, p, o *Term) []Triple {
	var out []Triple
	g.ForEachMatch(s, p, o, func(_ int, t *Triple) { out = append(out, *t) })
	return out
}

// ForEachMatch calls fn with the ID (insertion index) and the triple of
// every match of the pattern, in Match's order, without copying the
// matches out. fn must not modify the graph or call back into it.
func (g *Graph) ForEachMatch(s, p, o *Term, fn func(id int, t *Triple)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, id := range g.matchIDs(s, p, o) {
		fn(id, &g.triples[id])
	}
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (g *Graph) Count(s, p, o *Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	// One bound position is a whole index entry: add up its id lists
	// instead of merging and sorting them as matchIDs must.
	var entry map[Term][]int
	switch {
	case s != nil && p == nil && o == nil:
		entry = g.spo[*s]
	case s == nil && p != nil && o == nil:
		entry = g.pos[*p]
	case s == nil && p == nil && o != nil:
		entry = g.osp[*o]
	case s == nil && p == nil && o == nil:
		return len(g.triples)
	default:
		return len(g.matchIDs(s, p, o))
	}
	n := 0
	for _, ids := range entry {
		n += len(ids)
	}
	return n
}

func (g *Graph) matchIDs(s, p, o *Term) []int {
	switch {
	case s != nil && p != nil && o != nil:
		if id := g.find(Triple{*s, *p, *o}); id >= 0 {
			return []int{id}
		}
		return nil
	case s != nil && p != nil:
		return g.spo[*s][*p]
	case p != nil && o != nil:
		return g.pos[*p][*o]
	case s != nil && o != nil:
		return filterIDs(g.osp[*o][*s], nil)
	case s != nil:
		return sortedUnion(g.spo[*s])
	case p != nil:
		return sortedUnion(g.pos[*p])
	case o != nil:
		return sortedUnion(g.osp[*o])
	default:
		ids := make([]int, len(g.triples))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
}

func filterIDs(ids []int, keep func(int) bool) []int {
	if keep == nil {
		return ids
	}
	var out []int
	for _, id := range ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}

func sortedUnion(m map[Term][]int) []int {
	var out []int
	for _, ids := range m {
		out = append(out, ids...)
	}
	sort.Ints(out)
	return out
}

// Subjects returns the distinct subjects of triples with predicate p and
// object o (either may be nil as a wildcard).
func (g *Graph) Subjects(p, o *Term) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, t := range g.Match(nil, p, o) {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
	}
	return out
}

// Predicates returns the distinct predicates appearing in the graph, sorted
// by IRI for determinism.
func (g *Graph) Predicates() []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Term, 0, len(g.pos))
	for p := range g.pos {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// Objects returns the distinct objects of triples with subject s and
// predicate p (either may be nil as a wildcard).
func (g *Graph) Objects(s, p *Term) []Term {
	seen := make(map[Term]bool)
	var out []Term
	for _, t := range g.Match(s, p, nil) {
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
	}
	return out
}

// ForEach calls fn on every triple in insertion order, under the graph's
// read lock and without copying the triple list; fn must not write to the
// graph.
func (g *Graph) ForEach(fn func(Triple)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, t := range g.triples {
		fn(t)
	}
}

// Triples returns a copy of all triples in insertion order.
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Triple, len(g.triples))
	copy(out, g.triples)
	return out
}
