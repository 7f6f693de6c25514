package wrapper

import (
	"encoding/binary"
	"slices"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// walkEntry answers a missed RDF request in dictionary IDs, reading the
// graph's terms through view. Solutions are flat rows over req.Vars(),
// walked as sparql.EvalBGP walks them — patterns in OrderPatterns' order,
// each one's matches in the graph's index order. A seeded request starts
// from its seeds' projections (blockStarts); the row check then re-checks
// the rows against the seeds by ID, so they bind the seeded variables with
// the graph's own terms, runs the pushed filters on the rows that reach
// them and places the kept rows at their schema positions.
func walkEntry(g *rdf.Graph, view idView, req *Request, schema *engine.Schema, d *dict.Dict) *respEntry {
	vars := req.Vars()
	var patterns []sparql.TriplePattern
	for _, s := range req.Stars {
		patterns = append(patterns, s.Patterns...)
	}
	// Rows keep at least one cell, so a variable-free row still counts.
	wk := &bgpWalk{g: g, view: view, d: d, stride: max(len(vars), 1)}
	bound := map[string]bool{}
	wk.cur = blockStarts(req.Seeds, vars, wk.stride, bound)
	rows := wk.run(sparql.OrderPatterns(g, patterns, bound), vars)

	rc := newRowCheck(req.Seeds, req.Filters, engine.NewSchema(vars), schema, d)
	for r := 0; r < len(rows); r += wk.stride {
		rc.add(rows[r : r+wk.stride])
	}
	return rc.entry()
}

// bgpWalk extends flat ID rows pattern by pattern in two reused buffers.
type bgpWalk struct {
	g         *rdf.Graph
	view      idView
	d         *dict.Dict
	stride    int
	cur, next []dict.ID

	// For extend: the row being extended, and per pattern position its
	// variable's column, or -1 for a constant or a variable the row binds
	// (the index probe fixed those).
	base  []dict.ID
	cols  [3]int
	probe [3]rdf.Term
}

func (wk *bgpWalk) run(patterns []sparql.TriplePattern, vars []string) []dict.ID {
	extend := wk.extend
	for _, tp := range patterns {
		nodes := [3]sparql.Node{tp.S, tp.P, tp.O}
		cols := [3]int{-1, -1, -1}
		for k, n := range nodes {
			if n.IsVar {
				cols[k] = slices.Index(vars, n.Var)
			}
		}
		wk.next = wk.next[:0]
		for r := 0; r < len(wk.cur); r += wk.stride {
			wk.base = wk.cur[r : r+wk.stride]
			var at [3]*rdf.Term
			for k, c := range cols {
				wk.cols[k] = -1
				switch {
				case c < 0:
					wk.probe[k] = nodes[k].Term
				case wk.base[c] != dict.Unbound:
					wk.probe[k] = wk.d.MustLookup(wk.base[c])
				default:
					wk.cols[k] = c
					continue
				}
				at[k] = &wk.probe[k]
			}
			wk.g.ForEachMatch(at[0], at[1], at[2], extend)
		}
		wk.cur, wk.next = wk.next, wk.cur
		if len(wk.cur) == 0 {
			return nil
		}
	}
	return wk.cur
}

// extend appends the current row extended by one match, checking the
// unprobed variable positions in order: a variable repeated inside the
// pattern binds at its first position and must agree at the next.
func (wk *bgpWalk) extend(tid int, t *rdf.Triple) {
	start := len(wk.next)
	wk.next = append(wk.next, wk.base...)
	row := wk.next[start:]
	for k, term := range [3]*rdf.Term{&t.S, &t.P, &t.O} {
		c := wk.cols[k]
		if c < 0 {
			continue
		}
		if id := wk.id(3*tid+k, term); row[c] == dict.Unbound {
			row[c] = id
		} else if row[c] != id {
			wk.next = wk.next[:start]
			return
		}
	}
}

// id returns the ID of t, the term in slot i of the graph's view.
func (wk *bgpWalk) id(i int, t *rdf.Term) dict.ID {
	id := wk.view.load(i)
	if id == dict.Unbound {
		id = wk.d.Intern(*t)
		wk.view.store(i, id)
	}
	return id
}

// blockStarts returns a walk's first rows: the distinct projections of
// the seeds onto the request variables the first seed binds (marked in
// bound), so each solution extends at most one of them. Without seeds, or
// when some seed does not bind all of those — a seed binding no request
// variable is compatible with every solution — the walk starts from the
// empty row.
func blockStarts(seeds engine.Seeds, vars []string, stride int, bound map[string]bool) []dict.ID {
	var on, from []int
	for i, v := range vars {
		if c := slices.Index(seeds.Vars, v); c >= 0 && seeds.Rows > 0 && seeds.Row(0)[c] != dict.Unbound {
			on, from = append(on, i), append(from, c)
		}
	}
	empty := make([]dict.ID, stride)
	if len(on) == 0 {
		return empty
	}
	var rows []dict.ID
	seen := make(map[string]bool, seeds.Rows)
	var key []byte
	for r := 0; r < seeds.Rows; r++ {
		seed := seeds.Row(r)
		key = key[:0]
		for _, c := range from {
			if seed[c] == dict.Unbound {
				return empty
			}
			key = binary.LittleEndian.AppendUint64(key, uint64(seed[c]))
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			rows = append(rows, empty...)
			for k, i := range on {
				rows[len(rows)-stride+i] = seed[from[k]]
			}
		}
	}
	for _, i := range on {
		bound[vars[i]] = true
	}
	return rows
}
