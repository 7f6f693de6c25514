package rdb

import (
	"fmt"
	"slices"
	"strings"

	"ontario/internal/sql"
)

// join combines cur with next using the cross predicates that connect them.
// It prefers an index nested-loop join when next is a raw base relation
// with an index on its join column, then a hash join, and falls back to a
// nested-loop cross product with residual filtering.
//
// Consumed predicates are nil-ed out of crossPreds.
func (ex *execution) join(cur, next *tupleSet, crossPreds []sql.BoolExpr, crossRels [][]string) (*tupleSet, error) {
	// Collect equi-join predicates connecting cur and next.
	type eqPred struct {
		idx        int
		curCol     int // index into cur.cols
		nextCol    int // index into next.cols
		nextColRef boundCol
	}
	var eqs []eqPred
	for i, p := range crossPreds {
		if p == nil {
			continue
		}
		cmp, ok := p.(*sql.Comparison)
		if !ok || cmp.Op != sql.CmpEq || !cmp.L.IsCol || !cmp.R.IsCol {
			continue
		}
		covered := true
		for _, r := range crossRels[i] {
			if !cur.rels[r] && !next.rels[r] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		lIdx, lIn := findCol(cur, next, cmp.L.Col)
		rIdx, rIn := findCol(cur, next, cmp.R.Col)
		if lIn == 0 || rIn == 0 || lIn == rIn {
			continue
		}
		if lIn == 1 { // L in cur, R in next
			eqs = append(eqs, eqPred{idx: i, curCol: lIdx, nextCol: rIdx, nextColRef: next.cols[rIdx]})
		} else {
			eqs = append(eqs, eqPred{idx: i, curCol: rIdx, nextCol: lIdx, nextColRef: next.cols[lIdx]})
		}
	}

	outCols := append(append([]boundCol{}, cur.cols...), next.cols...)
	outRels := map[string]bool{}
	for r := range cur.rels {
		outRels[r] = true
	}
	for r := range next.rels {
		outRels[r] = true
	}

	out := &tupleSet{cols: outCols, rels: outRels}

	if len(eqs) == 0 {
		// Cross product.
		for _, lt := range cur.tuples {
			for _, rt := range next.tuples {
				out.tuples = append(out.tuples, concatTuple(lt, rt))
			}
		}
		out.plan = &PlanNode{
			Op:       "NestedLoopJoin",
			Detail:   "cross",
			EstRows:  float64(len(cur.tuples)) * float64(len(next.tuples)),
			Children: []*PlanNode{cur.plan, next.plan},
		}
		return out, nil
	}

	// Hash join on the first equi predicate; remaining ones become
	// residual checks on the joined tuples.
	first := eqs[0]
	crossPreds[first.idx] = nil

	// Index nested-loop: next is a raw base relation whose join column is
	// indexed, so the table is probed per left tuple and never copied.
	if t := next.raw; t != nil && t.HasIndexOn(first.nextColRef.column) && len(cur.tuples) <= len(next.tuples) {
		for _, lt := range cur.tuples {
			v := lt[first.curCol]
			if v.Null {
				continue
			}
			ids, _ := t.lookupEq(first.nextColRef.column, v)
			for _, id := range ids {
				out.tuples = append(out.tuples, concatTuple(lt, t.Row(id)))
			}
		}
		out.plan = &PlanNode{
			Op: "IndexNLJoin",
			Detail: fmt.Sprintf("%s.%s", first.nextColRef.rel,
				first.nextColRef.column),
			EstRows:  float64(len(out.tuples)),
			Children: []*PlanNode{cur.plan, next.plan},
		}
	} else {
		// Hash join: build on the smaller side.
		build, probe := next.tuples, cur.tuples
		buildCol, probeCol := first.nextCol, first.curCol
		swapped := false
		if len(probe) < len(build) {
			build, probe = probe, build
			buildCol, probeCol = probeCol, buildCol
			swapped = true
		}
		ht := make(map[string][]Row, len(build))
		for _, bt := range build {
			v := bt[buildCol]
			if v.Null {
				continue
			}
			k := v.IndexKey()
			ht[k] = append(ht[k], bt)
		}
		for _, pt := range probe {
			v := pt[probeCol]
			if v.Null {
				continue
			}
			for _, bt := range ht[v.IndexKey()] {
				if swapped {
					// build side is cur (left of output)
					out.tuples = append(out.tuples, concatTuple(bt, pt))
				} else {
					out.tuples = append(out.tuples, concatTuple(pt, bt))
				}
			}
		}
		out.plan = &PlanNode{
			Op:       "HashJoin",
			Detail:   fmt.Sprintf("%s.%s = probe", first.nextColRef.rel, first.nextColRef.column),
			EstRows:  float64(len(out.tuples)),
			Children: []*PlanNode{cur.plan, next.plan},
		}
	}

	// Residual equi predicates between the two inputs.
	var residual []sql.BoolExpr
	for _, e := range eqs[1:] {
		if crossPreds[e.idx] != nil {
			residual = append(residual, crossPreds[e.idx])
			crossPreds[e.idx] = nil
		}
	}
	// Also any non-equi cross predicate now fully covered.
	for i, p := range crossPreds {
		if p == nil {
			continue
		}
		covered := true
		for _, r := range crossRels[i] {
			if !outRels[r] {
				covered = false
				break
			}
		}
		if covered {
			residual = append(residual, p)
			crossPreds[i] = nil
		}
	}
	if len(residual) > 0 {
		return ex.filterTuples(out, residual, "JoinFilter")
	}
	return out, nil
}

// findCol locates a column reference in cur (returns in=1) or next (in=2);
// in=0 when not found or ambiguous without qualification.
func findCol(cur, next *tupleSet, c sql.ColumnRef) (idx, in int) {
	if c.Table != "" {
		if i := cur.colIndex(c.Table, c.Column); i >= 0 {
			return i, 1
		}
		if i := next.colIndex(c.Table, c.Column); i >= 0 {
			return i, 2
		}
		return -1, 0
	}
	found, where := -1, 0
	for i, bc := range cur.cols {
		if bc.column == c.Column {
			if found >= 0 {
				return -1, 0
			}
			found, where = i, 1
		}
	}
	for i, bc := range next.cols {
		if bc.column == c.Column {
			if found >= 0 && where != 0 {
				// present in both inputs: ambiguous
				if where == 1 {
					return -1, 0
				}
			}
			if found >= 0 {
				return -1, 0
			}
			found, where = i, 2
		}
	}
	return found, where
}

func concatTuple(a, b []Value) []Value {
	out := make([]Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// finalize applies projection, DISTINCT, ORDER BY, LIMIT/OFFSET.
func (ex *execution) finalize(ts *tupleSet) (*Result, error) {
	sel := ex.sel

	// Resolve projection.
	type proj struct {
		name string
		idx  int
	}
	var projs []proj
	if len(sel.Columns) == 0 {
		for i, c := range ts.cols {
			projs = append(projs, proj{name: c.column, idx: i})
		}
	} else {
		for _, item := range sel.Columns {
			idx := -1
			if item.Col.Table != "" {
				idx = ts.colIndex(item.Col.Table, item.Col.Column)
			} else {
				for i, bc := range ts.cols {
					if bc.column == item.Col.Column {
						if idx >= 0 {
							return nil, fmt.Errorf("rdb: ambiguous projected column %s", item.Col.Column)
						}
						idx = i
					}
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("rdb: unknown projected column %s", item.Col)
			}
			name := item.Alias
			if name == "" {
				name = item.Col.Column
			}
			projs = append(projs, proj{name: name, idx: idx})
		}
	}

	// ORDER BY must be resolved against the pre-projection tuple.
	type order struct {
		idx  int
		desc bool
	}
	var orders []order
	for _, o := range sel.OrderBy {
		idx := -1
		if o.Col.Table != "" {
			idx = ts.colIndex(o.Col.Table, o.Col.Column)
		} else {
			for i, bc := range ts.cols {
				if bc.column == o.Col.Column {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("rdb: unknown ORDER BY column %s", o.Col)
		}
		orders = append(orders, order{idx: idx, desc: o.Desc})
	}

	tuples := ts.tuples
	if len(orders) > 0 {
		if ts.raw != nil {
			tuples = slices.Clone(tuples) // the table's own rows keep their order
		}
		sortTuples(tuples, func(a, b []Value) int {
			for _, o := range orders {
				c, ok := a[o.idx].Compare(b[o.idx])
				if !ok {
					// Sort NULLs first.
					switch {
					case a[o.idx].Null && b[o.idx].Null:
						continue
					case a[o.idx].Null:
						c = -1
					default:
						c = 1
					}
				}
				if c == 0 {
					continue
				}
				if o.desc {
					return -c
				}
				return c
			}
			return 0
		})
	}

	res := &Result{Plan: ts.plan}
	for _, p := range projs {
		res.Columns = append(res.Columns, p.name)
	}
	seen := map[string]bool{}
	for _, tup := range tuples {
		row := make(Row, len(projs))
		for i, p := range projs {
			row[i] = tup[p.idx]
		}
		if sel.Distinct {
			k := rowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		res.Rows = append(res.Rows, row)
	}
	if sel.Offset > 0 {
		if sel.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(res.Rows) {
		res.Rows = res.Rows[:sel.Limit]
	}

	detail := make([]string, len(projs))
	for i, p := range projs {
		detail[i] = p.name
	}
	res.Plan = &PlanNode{
		Op:       "Project",
		Detail:   strings.Join(detail, ", "),
		EstRows:  float64(len(res.Rows)),
		Children: []*PlanNode{ts.plan},
	}
	return res, nil
}

func rowKey(r Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.Null {
			b.WriteString("\x00N")
		} else {
			b.WriteString(v.IndexKey())
		}
		b.WriteByte('\x01')
	}
	return b.String()
}

// sortTuples is a stable merge sort over tuples with a three-way
// comparator.
func sortTuples(ts []Row, cmp func(a, b []Value) int) {
	if len(ts) < 2 {
		return
	}
	buf := make([]Row, len(ts))
	mergeSort(ts, buf, cmp)
}

func mergeSort(ts, buf []Row, cmp func(a, b []Value) int) {
	if len(ts) < 2 {
		return
	}
	mid := len(ts) / 2
	mergeSort(ts[:mid], buf[:mid], cmp)
	mergeSort(ts[mid:], buf[mid:], cmp)
	copy(buf, ts)
	i, j, k := 0, mid, 0
	for i < mid && j < len(ts) {
		if cmp(buf[i], buf[j]) <= 0 {
			ts[k] = buf[i]
			i++
		} else {
			ts[k] = buf[j]
			j++
		}
		k++
	}
	for i < mid {
		ts[k] = buf[i]
		i++
		k++
	}
	// remaining right side already in place
}
