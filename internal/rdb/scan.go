package rdb

import (
	"fmt"
	"strings"

	"ontario/internal/sql"
)

// scanRelation builds one base relation, choosing the best access path for
// the local predicates: a point lookup (primary key, hash or ordered
// index) when a predicate pins an indexed column to a finite set of
// values — an equality or an IN list; an ordered-index range scan for
// inequalities on an ordered-indexed column; else a sequential scan.
// Remaining predicates are applied as a residual filter, and a relation
// without predicates stays the table's own ordinal list (raw).
func (ex *execution) scanRelation(slot int, preds []*pred) *relSet {
	r := ex.rels[slot]
	schema := r.table.Schema
	rs := &relSet{width: 1, order: []int{slot}}
	stats := r.table.Stats()

	var point *pointCand
	var rng *rangeCand
	for i, p := range preds {
		if c := pointCandFor(r, p.expr); c != nil {
			c.pred = i
			c.est = float64(stats.RowCount) * stats.Selectivity(c.column) * float64(len(c.vals))
			if point == nil || c.est < point.est {
				point = c
			}
		}
		rng = rng.narrow(r, i, p.expr)
	}

	used := make([]bool, len(preds))
	switch {
	case point != nil:
		rs.ords = r.table.lookupIn(point.column, point.vals, len(r.rows))
		used[point.pred] = true
		op := "IndexLookup/IN"
		if !point.multi {
			op = "IndexLookup"
		}
		if point.column == schema.PrimaryKey {
			op += "/PK"
		}
		rs.plan = &PlanNode{Op: op, EstRows: point.est, detail: func() string {
			shown := make([]string, len(point.vals))
			for i, v := range point.vals {
				shown[i] = v.String()
			}
			if !point.multi {
				return r.name + "." + point.column + " = " + shown[0]
			}
			return r.name + "." + point.column + " IN (" + strings.Join(shown, ", ") + ")"
		}}
	case rng != nil:
		rs.ords = r.table.lookupRange(rng.column, rng.lo, rng.loIncl, rng.hi, rng.hiIncl, len(r.rows))
		for _, i := range rng.preds {
			used[i] = true
		}
		rs.plan = &PlanNode{Op: "IndexRangeScan", EstRows: float64(stats.RowCount) / 3, detail: func() string {
			return fmt.Sprintf("%s.%s %s", r.name, rng.column, rangeDetail(rng.lo, rng.loIncl, rng.hi, rng.hiIncl))
		}}
	default:
		rs.ords, rs.raw = r.ords, r.table
		rs.plan = &PlanNode{Op: "SeqScan", detail: text(r.name), EstRows: float64(stats.RowCount)}
	}

	var residual []*pred
	for i, p := range preds {
		if !used[i] {
			residual = append(residual, p)
		}
	}
	if len(residual) > 0 {
		return ex.filter(rs, residual, "Filter")
	}
	return rs
}

// pointCand is an index lookup for the finite set of values a predicate
// pins one indexed column to.
type pointCand struct {
	pred   int
	column string
	vals   []Value
	multi  bool    // an IN list, reported as IndexLookup/IN
	est    float64 // estimated rows
}

// pointCandFor returns the point lookup predicate p allows on r's indexes:
// `col = literal` or `col IN (literals)` on an indexed column. An OR stays
// on the filter path.
func pointCandFor(r relation, p sql.BoolExpr) *pointCand {
	var col sql.ColumnRef
	var lits []sql.Literal
	multi := false
	switch v := p.(type) {
	case *sql.In:
		if v.Not {
			return nil
		}
		col, lits, multi = v.Col, v.List, true
	case *sql.Comparison:
		c, lit, op, ok := normalizeComparison(v)
		if !ok || op != sql.CmpEq {
			return nil
		}
		col, lits = c, []sql.Literal{lit}
	default:
		return nil
	}
	typ, hash, ordered := indexedColumn(r, col)
	if !hash && !ordered {
		return nil
	}
	vals := make([]Value, 0, len(lits))
	for _, lit := range lits {
		if !multi {
			v, exact := coerceExact(lit, typ)
			if !exact {
				return nil // a lone equality keeps the filter's own comparison rules
			}
			vals = append(vals, v)
		} else if v, err := FromLiteral(lit, typ); err == nil {
			// A literal that does not coerce to the column type equals no
			// stored value.
			vals = append(vals, v)
		}
	}
	return &pointCand{column: col.Column, vals: vals, multi: multi}
}

// coerceExact coerces lit to typ for an index probe; exact is false unless
// the result is the value a filter, which types literals naturally, would
// compare against: 3.7 is no INTEGER, and '5' no DOUBLE.
func coerceExact(lit sql.Literal, typ Type) (v Value, exact bool) {
	v, err := FromLiteral(lit, typ)
	c, ok := v.Compare(literalValue(lit))
	return v, err == nil && (v.Null || ok && c == 0)
}

// indexedColumn resolves a column reference against relation r and reports
// its type and index kinds; both kinds are false when the column belongs
// to another relation, does not exist or has no index.
func indexedColumn(r relation, col sql.ColumnRef) (typ Type, hash, ordered bool) {
	if col.Table != "" && col.Table != r.name {
		return 0, false, false
	}
	typ, err := r.table.Schema.ColumnType(col.Column)
	if err != nil {
		return 0, false, false
	}
	hash, ordered = r.table.indexKindOn(col.Column)
	return typ, hash, ordered
}

// rangeCand is an ordered-index range scan assembled from the inequalities
// on one ordered-indexed column.
type rangeCand struct {
	preds          []int
	column         string
	lo, hi         *Value
	loIncl, hiIncl bool
}

// narrow folds predicate i into the candidate when it is an inequality
// against a literal on an ordered-indexed column of r: a bound on the
// candidate's own column tightens it, a bound on another column starts a
// new candidate.
func (rc *rangeCand) narrow(r relation, i int, p sql.BoolExpr) *rangeCand {
	cmp, ok := p.(*sql.Comparison)
	if !ok {
		return rc
	}
	col, lit, op, ok := normalizeComparison(cmp)
	if !ok || op == sql.CmpEq || op == sql.CmpNeq {
		return rc
	}
	typ, _, ordered := indexedColumn(r, col)
	v, exact := coerceExact(lit, typ)
	if !ordered || !exact || v.Null {
		return rc
	}
	if rc == nil || rc.column != col.Column {
		rc = &rangeCand{column: col.Column}
	}
	rc.preds = append(rc.preds, i)
	incl := op == sql.CmpGe || op == sql.CmpLe
	// tighter reports whether v beats the bound held so far; want is the
	// sign of v.Compare(old) that narrows the range on this side.
	tighter := func(old *Value, oldIncl bool, want int) bool {
		if old == nil {
			return true
		}
		c, _ := v.Compare(*old)
		return c == want || c == 0 && oldIncl && !incl
	}
	if op == sql.CmpGt || op == sql.CmpGe {
		if tighter(rc.lo, rc.loIncl, 1) {
			rc.lo, rc.loIncl = &v, incl
		}
	} else if tighter(rc.hi, rc.hiIncl, -1) {
		rc.hi, rc.hiIncl = &v, incl
	}
	return rc
}

func rangeDetail(lo *Value, loIncl bool, hi *Value, hiIncl bool) string {
	var parts []string
	if lo != nil {
		op := ">"
		if loIncl {
			op = ">="
		}
		parts = append(parts, op+" "+lo.String())
	}
	if hi != nil {
		op := "<"
		if hiIncl {
			op = "<="
		}
		parts = append(parts, op+" "+hi.String())
	}
	return strings.Join(parts, " AND ")
}

// normalizeComparison rewrites "lit op col" to "col op' lit" and returns
// the parts; ok is false unless exactly one side is a column and the other
// a literal.
func normalizeComparison(c *sql.Comparison) (col sql.ColumnRef, lit sql.Literal, op sql.CmpOp, ok bool) {
	switch {
	case c.L.IsCol && !c.R.IsCol:
		return c.L.Col, c.R.Lit, c.Op, true
	case !c.L.IsCol && c.R.IsCol:
		return c.R.Col, c.L.Lit, flipOp(c.Op), true
	default:
		return sql.ColumnRef{}, sql.Literal{}, 0, false
	}
}

func flipOp(op sql.CmpOp) sql.CmpOp {
	switch op {
	case sql.CmpLt:
		return sql.CmpGt
	case sql.CmpLe:
		return sql.CmpGe
	case sql.CmpGt:
		return sql.CmpLt
	case sql.CmpGe:
		return sql.CmpLe
	default:
		return op
	}
}
