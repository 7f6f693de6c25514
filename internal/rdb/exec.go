package rdb

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"

	"ontario/internal/sql"
)

// Result is a materialized query result.
type Result struct {
	// Columns are the output column names in projection order.
	Columns []string
	// Rows are the result rows.
	Rows []Row
	// Plan is the physical plan that produced the result.
	Plan *PlanNode
}

// PlanNode describes one physical operator for EXPLAIN-style output.
type PlanNode struct {
	Op       string  // e.g. "IndexLookup", "SeqScan", "HashJoin"
	EstRows  float64 // planner cardinality estimate
	Children []*PlanNode
	// detail renders the operator-specific description. It runs only when
	// the plan is printed, so a statement nobody explains formats no
	// literal and no predicate.
	detail func() string
}

// text is the detail of an operator whose description is already a string.
func text(s string) func() string { return func() string { return s } }

// String renders the plan as an indented tree.
func (p *PlanNode) String() string {
	var b strings.Builder
	p.write(&b, 0)
	return b.String()
}

func (p *PlanNode) write(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(p.Op)
	if p.detail != nil {
		if d := p.detail(); d != "" {
			b.WriteString("(" + d + ")")
		}
	}
	fmt.Fprintf(b, " est=%.1f", p.EstRows)
	b.WriteByte('\n')
	for _, c := range p.Children {
		c.write(b, depth+1)
	}
}

// UsesIndex reports whether any node in the plan tree uses an index access
// path or index join.
func (p *PlanNode) UsesIndex() bool {
	if strings.HasPrefix(p.Op, "Index") {
		return true
	}
	for _, c := range p.Children {
		if c.UsesIndex() {
			return true
		}
	}
	return false
}

// Rows is an executed statement in row ordinals: each output row is a
// tuple holding, per relation of the statement, the ordinal of the row it
// takes from that relation's table, and each output column names the
// relation and column it reads. No Value is copied to build it.
type Rows struct {
	// Columns are the output column names in projection order.
	Columns []string
	// Plan is the physical plan that produced the rows.
	Plan   *PlanNode
	cols   []colRef
	tuples []int32 // Len() tuples of stride ordinals each
	stride int
}

// Len returns the number of output rows.
func (r *Rows) Len() int { return len(r.tuples) / r.stride }

// Source returns the table output column c reads and the column's ordinal
// in its schema.
func (r *Rows) Source(c int) (*Table, int) { return r.cols[c].table, r.cols[c].col }

// Ord returns the ordinal, in Source(c)'s table, of the row output row i
// reads column c from.
func (r *Rows) Ord(i, c int) int32 { return r.tuples[i*r.stride+r.cols[c].slot] }

// Value returns output row i's cell in column c. It points into the
// table: read it, never write it.
func (r *Rows) Value(i, c int) *Value { return r.cols[c].of(r.Ord(i, c)) }

// Query parses and executes a SELECT statement and materializes its rows.
// There is no statement cache: repeated requests are answered above the
// database, by the wrapper response cache.
func (db *Database) Query(stmt string) (*Result, error) {
	sel, err := sql.Parse(stmt)
	if err != nil {
		return nil, err
	}
	rs, err := db.Execute(sel)
	if err != nil {
		return nil, err
	}
	n, w := rs.Len(), len(rs.cols)
	res := &Result{Columns: rs.Columns, Plan: rs.Plan, Rows: make([]Row, n)}
	cells := make([]Value, n*w)
	for i := range res.Rows {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for c := range row {
			row[c] = *rs.Value(i, c)
		}
		res.Rows[i] = row
	}
	return res, nil
}

// Execute runs a parsed SELECT statement and returns its rows as ordinals.
func (db *Database) Execute(sel *sql.Select) (*Rows, error) {
	ex, err := newExecution(db, sel)
	if err != nil {
		return nil, err
	}
	return ex.run()
}

// Explain plans the statement without running the final projection; it
// returns the physical plan.
func (db *Database) Explain(stmt string) (*PlanNode, error) {
	res, err := db.Query(stmt)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// relation is one bound FROM/JOIN entry, its slot in the statement.
type relation struct {
	name  string // alias or table name, unique within the query
	table *Table
	// rows and ords are the table's rows and their ordinals when the
	// statement started; a lookup never yields an ordinal past them.
	rows []Row
	ords []int32
}

// colRef is a resolved column: column col of the relation in slot.
type colRef struct {
	table     *Table
	rows      []Row
	slot, col int
}

// of returns the column's cell in row ord.
func (c colRef) of(ord int32) *Value { return &c.rows[ord][c.col] }

// at returns the column's cell in a tuple over every slot.
func (c colRef) at(t []int32) *Value { return c.of(t[c.slot]) }

type execution struct {
	sel  *sql.Select
	rels []relation
	all  []int // every slot, in statement order
	// conjuncts of WHERE plus all JOIN ... ON conditions
	preds []sql.BoolExpr
}

func newExecution(db *Database, sel *sql.Select) (*execution, error) {
	ex := &execution{sel: sel}
	add := func(ref sql.TableRef) error {
		t := db.Table(ref.Table)
		if t == nil {
			return fmt.Errorf("rdb: %s: unknown table %s", db.Name, ref.Table)
		}
		name := ref.Name()
		for _, r := range ex.rels {
			if r.name == name {
				return fmt.Errorf("rdb: duplicate table name/alias %s", name)
			}
		}
		rows, ords := t.snapshot()
		ex.all = append(ex.all, len(ex.rels))
		ex.rels = append(ex.rels, relation{name: name, table: t, rows: rows, ords: ords})
		return nil
	}
	for _, ref := range sel.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range sel.Joins {
		if err := add(j.Table); err != nil {
			return nil, err
		}
		ex.preds = append(ex.preds, sql.Conjuncts(j.On)...)
	}
	ex.preds = append(ex.preds, sql.Conjuncts(sel.Where)...)
	return ex, nil
}

// lookup finds column c among the given slots, in their order: the first
// match and the number of matches.
func (ex *execution) lookup(slots []int, c sql.ColumnRef) (ref colRef, n int) {
	for _, s := range slots {
		r := &ex.rels[s]
		if c.Table != "" && r.name != c.Table {
			continue
		}
		if ci := r.table.Schema.ColumnIndex(c.Column); ci >= 0 {
			if n == 0 {
				ref = colRef{table: r.table, rows: r.rows, slot: s, col: ci}
			}
			n++
		}
	}
	return ref, n
}

// resolveCol resolves a predicate's column reference against the whole
// statement.
func (ex *execution) resolveCol(c sql.ColumnRef) (colRef, error) {
	ref, n := ex.lookup(ex.all, c)
	switch {
	case n == 1:
		return ref, nil
	case n > 1:
		return ref, fmt.Errorf("rdb: ambiguous column %s", c.Column)
	case c.Table == "":
		return ref, fmt.Errorf("rdb: unknown column %s", c.Column)
	}
	for _, r := range ex.rels {
		if r.name == c.Table {
			return ref, fmt.Errorf("rdb: table %s has no column %s", c.Table, c.Column)
		}
	}
	return ref, fmt.Errorf("rdb: unknown table %s in column reference", c.Table)
}

func (ex *execution) run() (*Rows, error) {
	// Compile every predicate first: an unresolved column fails the
	// statement before any row is read. Per-relation local predicates and
	// cross-relation predicates.
	local := make([][]*pred, len(ex.rels))
	var cross []*pred
	for _, e := range ex.preds {
		p, err := ex.compile(e)
		if err != nil {
			return nil, err
		}
		switch {
		case len(p.slots) > 1:
			cross = append(cross, p)
		case len(p.slots) == 1:
			local[p.slots[0]] = append(local[p.slots[0]], p)
		default:
			local[0] = append(local[0], p) // constant predicate: attach to first
		}
	}

	// Build base relations with access-path selection.
	bases := make([]*relSet, len(ex.rels))
	for s := range ex.rels {
		bases[s] = ex.scanRelation(s, local[s])
	}

	// Greedy join order: start from the smallest base; repeatedly join the
	// connected base with the smallest cardinality.
	cur, rest := pickSmallest(bases)
	for len(rest) > 0 {
		bestIdx := -1
		bestConnected := false
		for i, rs := range rest {
			connected := connectedTo(cur, rs, cross)
			switch {
			case bestIdx == -1,
				connected && !bestConnected,
				connected == bestConnected && rs.len() < rest[bestIdx].len():
				bestIdx, bestConnected = i, connected
			}
		}
		next := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		cur = ex.join(cur, next, cross)
	}

	// Any remaining cross predicates (e.g. left by a cross product) are
	// applied as residual filters.
	if residual := takeCovered(cur, cross); len(residual) > 0 {
		cur = ex.filter(cur, residual, "ResidualFilter")
	}
	return ex.finalize(cur)
}

func pickSmallest(sets []*relSet) (*relSet, []*relSet) {
	best := 0
	for i, rs := range sets {
		if rs.len() < sets[best].len() {
			best = i
		}
	}
	cur := sets[best]
	rest := append(append([]*relSet{}, sets[:best]...), sets[best+1:]...)
	return cur, rest
}

// connectedTo reports whether a pending cross predicate reads cur and
// other and no third relation.
func connectedTo(cur, other *relSet, cross []*pred) bool {
	for _, p := range cross {
		if p == nil {
			continue
		}
		hitCur, hitOther, miss := false, false, false
		for _, s := range p.slots {
			switch {
			case cur.has(s):
				hitCur = true
			case other.has(s):
				hitOther = true
			default:
				miss = true
			}
		}
		if hitCur && hitOther && !miss {
			return true
		}
	}
	return false
}

// takeCovered removes from cross, and returns, the pending predicates
// every relation of which rs covers.
func takeCovered(rs *relSet, cross []*pred) []*pred {
	var out []*pred
	for i, p := range cross {
		if p != nil && rs.covers(p) {
			out = append(out, p)
			cross[i] = nil
		}
	}
	return out
}

// finalize applies projection, ORDER BY, DISTINCT and LIMIT/OFFSET.
func (ex *execution) finalize(rs *relSet) (*Rows, error) {
	sel, w := ex.sel, len(ex.rels)
	out := &Rows{stride: w}
	if len(sel.Columns) == 0 {
		for _, s := range rs.order {
			r := &ex.rels[s]
			for ci, c := range r.table.Schema.Columns {
				out.cols = append(out.cols, colRef{table: r.table, rows: r.rows, slot: s, col: ci})
				out.Columns = append(out.Columns, c.Name)
			}
		}
	}
	for _, item := range sel.Columns {
		ref, n := ex.lookup(rs.order, item.Col)
		switch {
		case n > 1:
			return nil, fmt.Errorf("rdb: ambiguous projected column %s", item.Col.Column)
		case n == 0:
			return nil, fmt.Errorf("rdb: unknown projected column %s", item.Col)
		}
		name := item.Alias
		if name == "" {
			name = item.Col.Column
		}
		out.cols = append(out.cols, ref)
		out.Columns = append(out.Columns, name)
	}

	// ORDER BY is resolved against every relation, unprojected columns
	// included; an unqualified name takes its first relation in join order.
	orders := make([]colRef, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		ref, n := ex.lookup(rs.order, o.Col)
		if n == 0 {
			return nil, fmt.Errorf("rdb: unknown ORDER BY column %s", o.Col)
		}
		orders[i] = ref
	}

	tuples := rs.ords
	if len(orders) > 0 {
		perm := make([]int32, len(tuples)/w)
		for i := range perm {
			perm[i] = int32(i)
		}
		mergeSort(perm, make([]int32, len(perm)), func(a, b int32) int {
			for k, o := range orders {
				x, y := o.of(tuples[int(a)*w+o.slot]), o.of(tuples[int(b)*w+o.slot])
				c, ok := x.Compare(*y)
				if !ok {
					// Sort NULLs first.
					switch {
					case x.Null && y.Null:
						continue
					case x.Null:
						c = -1
					default:
						c = 1
					}
				}
				if c == 0 {
					continue
				}
				if sel.OrderBy[k].Desc {
					return -c
				}
				return c
			}
			return 0
		})
		sorted := make([]int32, 0, len(tuples))
		for _, i := range perm {
			sorted = append(sorted, tuples[int(i)*w:int(i+1)*w]...)
		}
		tuples = sorted
	}
	if sel.Distinct {
		tuples = distinct(out.cols, tuples, w)
	}
	n := len(tuples) / w
	lo, hi := min(max(sel.Offset, 0), n), n
	if sel.Limit >= 0 && lo+sel.Limit < hi {
		hi = lo + sel.Limit
	}
	out.tuples = tuples[lo*w : hi*w]

	out.Plan = &PlanNode{
		Op:       "Project",
		EstRows:  float64(hi - lo),
		Children: []*PlanNode{rs.plan},
		detail:   func() string { return strings.Join(out.Columns, ", ") },
	}
	return out, nil
}

var distinctSeed = maphash.MakeSeed()

// distinct keeps the first tuple of every run of equal projected cells
// (equal as IndexKey compares them, NULL equal to NULL), in order: cells
// are hashed, and tuples sharing a hash are chained and compared.
func distinct(cols []colRef, tuples []int32, w int) []int32 {
	var h maphash.Hash
	h.SetSeed(distinctSeed)
	head := make(map[uint64]int32)
	var chain []int32 // per kept tuple, the previous kept one with its hash
	out := make([]int32, 0, len(tuples))
	same := func(a, b []int32) bool {
		for i := range cols {
			if cols[i].at(a).key() != cols[i].at(b).key() {
				return false
			}
		}
		return true
	}
next:
	for i := 0; i < len(tuples); i += w {
		t := tuples[i : i+w]
		h.Reset()
		for c := range cols {
			k := cols[c].at(t).key()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], k.bits)
			h.WriteByte(k.kind)
			h.Write(b[:])
			h.WriteString(k.str)
		}
		sum := h.Sum64()
		prev, ok := head[sum]
		if !ok {
			prev = -1
		}
		for k := prev; k >= 0; k = chain[k] {
			if same(t, out[int(k)*w:]) {
				continue next
			}
		}
		head[sum] = int32(len(chain))
		chain = append(chain, prev)
		out = append(out, t...)
	}
	return out
}

// mergeSort is a stable merge sort with a three-way comparator.
func mergeSort[T any](ts, buf []T, cmp func(a, b T) int) {
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
