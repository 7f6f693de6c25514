package rdb

import (
	"slices"
	"strings"

	"ontario/internal/sql"
)

// relSet is an intermediate relation in row ordinals. A base relation
// holds one ordinal per tuple, a row of its one slot; a join output holds
// one per relation slot of the statement, at the slot's index, so a
// compiled predicate reads every joined tuple the same way.
type relSet struct {
	ords  []int32
	width int   // ordinals per tuple: 1 for a base relation
	order []int // the slots covered, in join order
	// raw, when set, marks an unfiltered base relation: ords is the
	// table's own ordinal list — read it, never reorder it — and an index
	// nested-loop join can probe the table instead.
	raw  *Table
	plan *PlanNode
}

func (rs *relSet) len() int { return len(rs.ords) / rs.width }

func (rs *relSet) has(slot int) bool { return slices.Contains(rs.order, slot) }

// covers reports whether rs holds every relation p reads.
func (rs *relSet) covers(p *pred) bool {
	for _, s := range p.slots {
		if !rs.has(s) {
			return false
		}
	}
	return true
}

// ord returns tuple i's ordinal for a slot rs covers.
func (rs *relSet) ord(i, slot int) int32 {
	if rs.width == 1 {
		return rs.ords[i]
	}
	return rs.ords[i*rs.width+slot]
}

// tuple returns tuple i over every slot; a base relation's is written
// into buf, which holds one ordinal per slot.
func (rs *relSet) tuple(i int, buf []int32) []int32 {
	if rs.width < len(buf) {
		buf[rs.order[0]] = rs.ords[i]
		return buf
	}
	return rs.ords[i*rs.width : (i+1)*rs.width]
}

// filter keeps, in order, the tuples that pass every predicate.
func (ex *execution) filter(rs *relSet, preds []*pred, op string) *relSet {
	kept := rs.ords[:0] // in place: only a raw relation's ordinals are shared
	if rs.raw != nil {
		kept = nil
	}
	buf := make([]int32, len(ex.rels))
next:
	for i, n := 0, rs.len(); i < n; i++ {
		t := rs.tuple(i, buf)
		for _, p := range preds {
			if !p.eval(t) {
				continue next
			}
		}
		kept = append(kept, rs.ords[i*rs.width:(i+1)*rs.width]...)
	}
	return &relSet{ords: kept, width: rs.width, order: rs.order, plan: &PlanNode{
		Op:       op,
		EstRows:  float64(len(kept) / rs.width),
		Children: []*PlanNode{rs.plan},
		detail: func() string {
			details := make([]string, len(preds))
			for i, p := range preds {
				details[i] = p.expr.String()
			}
			return strings.Join(details, " AND ")
		},
	}}
}

// join combines cur with next, a base relation, using the cross
// predicates that connect them. It prefers an index nested-loop join when
// next is a raw base relation with an index on its join column, then a
// hash join, and falls back to a nested-loop cross product.
//
// Consumed predicates are nil-ed out of cross.
func (ex *execution) join(cur, next *relSet, cross []*pred) *relSet {
	ns := next.order[0]
	// Equi-join predicates connecting cur and next: cur's column, next's.
	type eqPred struct {
		idx       int
		cur, next colRef
	}
	var eqs []eqPred
	for i, p := range cross {
		if p == nil {
			continue
		}
		cmp, ok := p.expr.(*sql.Comparison)
		if !ok || cmp.Op != sql.CmpEq || !cmp.L.IsCol || !cmp.R.IsCol {
			continue
		}
		l, _ := ex.resolveCol(cmp.L.Col)
		r, _ := ex.resolveCol(cmp.R.Col)
		switch {
		case cur.has(l.slot) && r.slot == ns:
			eqs = append(eqs, eqPred{i, l, r})
		case cur.has(r.slot) && l.slot == ns:
			eqs = append(eqs, eqPred{i, r, l})
		}
	}

	w := len(ex.rels)
	out := &relSet{width: w, order: append(slices.Clone(cur.order), ns)}
	buf := make([]int32, w)
	emit := func(t []int32, ord int32) {
		out.ords = append(out.ords, t...)
		out.ords[len(out.ords)-w+ns] = ord
	}
	children := []*PlanNode{cur.plan, next.plan}

	if len(eqs) == 0 {
		// Cross product.
		for i, n := 0, cur.len(); i < n; i++ {
			t := cur.tuple(i, buf)
			for _, o := range next.ords {
				emit(t, o)
			}
		}
		out.plan = &PlanNode{Op: "NestedLoopJoin", detail: text("cross"),
			EstRows: float64(cur.len()) * float64(next.len()), Children: children}
		return out
	}

	// Join on the first equi predicate; remaining ones become residual
	// checks on the joined tuples.
	first := eqs[0]
	cross[first.idx] = nil
	col := first.next.table.Schema.Columns[first.next.col].Name
	on := ex.rels[ns].name + "." + col

	// Index nested-loop: next is a raw base relation whose join column is
	// indexed, so the table is probed per left tuple and never copied.
	if t := next.raw; t != nil && t.HasIndexOn(col) && cur.len() <= next.len() {
		limit := len(ex.rels[ns].rows)
		for i, n := 0, cur.len(); i < n; i++ {
			tup := cur.tuple(i, buf)
			v := first.cur.at(tup)
			if v.Null {
				continue
			}
			ids, _ := t.lookupEq(col, *v)
			for _, id := range ids {
				if id < limit {
					emit(tup, int32(id))
				}
			}
		}
		out.plan = &PlanNode{Op: "IndexNLJoin", detail: text(on), Children: children}
	} else {
		// Hash join, built on the smaller side and keyed on typed values:
		// each key's chain runs in build order, the probe in its own order.
		build, probe, bcol, pcol := next, cur, first.next, first.cur
		swapped := cur.len() < next.len()
		if swapped {
			build, probe, bcol, pcol = cur, next, first.cur, first.next
		}
		head := make(map[valueKey]int32)
		chain := make([]int32, build.len())
		for i := len(chain) - 1; i >= 0; i-- { // backwards, so chains run forwards
			v := bcol.of(build.ord(i, bcol.slot))
			if v.Null {
				continue
			}
			k := v.key()
			chain[i] = -1
			if h, ok := head[k]; ok {
				chain[i] = h
			}
			head[k] = int32(i)
		}
		for j, n := 0, probe.len(); j < n; j++ {
			v := pcol.of(probe.ord(j, pcol.slot))
			if v.Null {
				continue
			}
			h, ok := head[v.key()]
			for b := int(h); ok && b >= 0; b = int(chain[b]) {
				if swapped {
					emit(cur.tuple(b, buf), next.ords[j])
				} else {
					emit(cur.tuple(j, buf), next.ords[b])
				}
			}
		}
		out.plan = &PlanNode{Op: "HashJoin", detail: text(on + " = probe"), Children: children}
	}
	out.plan.EstRows = float64(out.len())

	// Residual equi predicates between the two inputs, then every other
	// pending predicate the output now covers.
	var residual []*pred
	for _, e := range eqs[1:] {
		residual = append(residual, cross[e.idx])
		cross[e.idx] = nil
	}
	residual = append(residual, takeCovered(out, cross)...)
	if len(residual) > 0 {
		return ex.filter(out, residual, "JoinFilter")
	}
	return out
}
