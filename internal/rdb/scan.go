package rdb

import (
	"fmt"
	"strings"

	"ontario/internal/sql"
)

// scanRelation builds one base relation, choosing the best access path for
// the local predicates: a point lookup (primary key, hash or B+tree) when
// a predicate pins an indexed column to a finite set of values — an
// equality or an IN list; a B+tree range scan for inequalities on a
// tree-indexed column; else a sequential scan. Remaining predicates are
// applied as a residual filter, and a relation without predicates stays
// the table's own rows (raw).
func (ex *execution) scanRelation(r relation, preds []sql.BoolExpr) (*tupleSet, error) {
	schema := r.table.Schema
	cols := make([]boundCol, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = boundCol{rel: r.name, column: c.Name, typ: c.Type}
	}
	ts := &tupleSet{cols: cols, rels: map[string]bool{r.name: true}}
	stats := r.table.Stats()

	var point *pointCand
	var rng *rangeCand
	for i, p := range preds {
		if c := pointCandFor(r, p); c != nil {
			c.pred = i
			c.est = float64(stats.RowCount) * stats.Selectivity(c.column) * float64(len(c.vals))
			if point == nil || c.est < point.est {
				point = c
			}
		}
		rng = rng.narrow(r, i, p)
	}

	used := make([]bool, len(preds))
	switch {
	case point != nil:
		ts.tuples = r.table.lookupIn(point.column, point.vals)
		used[point.pred] = true
		shown := make([]string, len(point.vals))
		for i, v := range point.vals {
			shown[i] = v.String()
		}
		op, detail := "IndexLookup/IN", " IN ("+strings.Join(shown, ", ")+")"
		if !point.multi {
			op, detail = "IndexLookup", " = "+shown[0]
		}
		if point.column == schema.PrimaryKey {
			op += "/PK"
		}
		ts.plan = &PlanNode{Op: op, Detail: r.name + "." + point.column + detail, EstRows: point.est}
	case rng != nil:
		ts.tuples = r.table.lookupRange(rng.column, rng.lo, rng.loIncl, rng.hi, rng.hiIncl)
		for _, i := range rng.preds {
			used[i] = true
		}
		ts.plan = &PlanNode{
			Op:      "IndexRangeScan",
			Detail:  fmt.Sprintf("%s.%s %s", r.name, rng.column, rangeDetail(rng.lo, rng.loIncl, rng.hi, rng.hiIncl)),
			EstRows: float64(stats.RowCount) / 3,
		}
	default:
		ts.tuples, ts.raw = r.table.snapshot(), r.table
		ts.plan = &PlanNode{Op: "SeqScan", Detail: r.name, EstRows: float64(stats.RowCount)}
	}

	var residual []sql.BoolExpr
	for i, p := range preds {
		if !used[i] {
			residual = append(residual, p)
		}
	}
	if len(residual) > 0 {
		return ex.filterTuples(ts, residual, "Filter")
	}
	return ts, nil
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
	typ, hash, tree := indexedColumn(r, col)
	if !hash && !tree {
		return nil
	}
	vals := make([]Value, 0, len(lits))
	for _, lit := range lits {
		// A literal that does not coerce to the column type equals no
		// stored value.
		if v, err := FromLiteral(lit, typ); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 && !multi {
		return nil // a lone equality keeps the filter's own coercion rules
	}
	return &pointCand{column: col.Column, vals: vals, multi: multi}
}

// indexedColumn resolves a column reference against relation r and reports
// its type and index kinds; both kinds are false when the column belongs
// to another relation, does not exist or has no index.
func indexedColumn(r relation, col sql.ColumnRef) (typ Type, hash, tree bool) {
	if col.Table != "" && col.Table != r.name {
		return 0, false, false
	}
	typ, err := r.table.Schema.ColumnType(col.Column)
	if err != nil {
		return 0, false, false
	}
	hash, tree = r.table.indexKindOn(col.Column)
	return typ, hash, tree
}

// rangeCand is a B+tree range scan assembled from the inequalities on one
// tree-indexed column.
type rangeCand struct {
	preds          []int
	column         string
	lo, hi         *Value
	loIncl, hiIncl bool
}

// narrow folds predicate i into the candidate when it is an inequality
// against a literal on a tree-indexed column of r: a bound on the
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
	typ, _, tree := indexedColumn(r, col)
	v, err := FromLiteral(lit, typ)
	if !tree || err != nil || v.Null {
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

// filterTuples applies the predicates to every tuple.
func (ex *execution) filterTuples(ts *tupleSet, preds []sql.BoolExpr, opName string) (*tupleSet, error) {
	out := &tupleSet{cols: ts.cols, rels: ts.rels}
	var kept []Row
	for _, tup := range ts.tuples {
		ok := true
		for _, p := range preds {
			v, err := ex.evalPredicate(p, ts, tup)
			if err != nil {
				return nil, err
			}
			if !v {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, tup)
		}
	}
	out.tuples = kept
	details := make([]string, len(preds))
	for i, p := range preds {
		details[i] = p.String()
	}
	out.plan = &PlanNode{
		Op:       opName,
		Detail:   strings.Join(details, " AND "),
		EstRows:  float64(len(kept)),
		Children: []*PlanNode{ts.plan},
	}
	return out, nil
}

// evalPredicate evaluates a boolean expression over a tuple. NULL
// comparisons yield false (SQL unknown treated as not-satisfied).
func (ex *execution) evalPredicate(e sql.BoolExpr, ts *tupleSet, tup []Value) (bool, error) {
	switch v := e.(type) {
	case *sql.Comparison:
		lv, err := operandValue(v.L, ts, tup)
		if err != nil {
			return false, err
		}
		rv, err := operandValue(v.R, ts, tup)
		if err != nil {
			return false, err
		}
		c, ok := lv.Compare(rv)
		if !ok {
			return false, nil
		}
		switch v.Op {
		case sql.CmpEq:
			return c == 0, nil
		case sql.CmpNeq:
			return c != 0, nil
		case sql.CmpLt:
			return c < 0, nil
		case sql.CmpLe:
			return c <= 0, nil
		case sql.CmpGt:
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case *sql.Like:
		val, err := columnValue(v.Col, ts, tup)
		if err != nil {
			return false, err
		}
		if val.Null || val.Type != TypeString {
			return false, nil
		}
		m := likeMatch(v.Pattern, val.Str)
		if v.Not {
			m = !m
		}
		return m, nil
	case *sql.In:
		val, err := columnValue(v.Col, ts, tup)
		if err != nil {
			return false, err
		}
		if val.Null {
			return false, nil
		}
		set, ok := ex.inSets[v]
		if !ok {
			// Coerced once per statement; a literal that does not coerce to
			// the column type, like NULL, equals no value.
			set = make(map[Value]bool, len(v.List))
			for _, lit := range v.List {
				if lv, err := FromLiteral(lit, val.Type); err == nil && !lv.Null {
					set[lv] = true
				}
			}
			if ex.inSets == nil {
				ex.inSets = make(map[*sql.In]map[Value]bool)
			}
			ex.inSets[v] = set
		}
		return set[val] != v.Not, nil
	case *sql.IsNull:
		val, err := columnValue(v.Col, ts, tup)
		if err != nil {
			return false, err
		}
		if v.Not {
			return !val.Null, nil
		}
		return val.Null, nil
	case *sql.And:
		l, err := ex.evalPredicate(v.L, ts, tup)
		if err != nil || !l {
			return false, err
		}
		return ex.evalPredicate(v.R, ts, tup)
	case *sql.Or:
		l, err := ex.evalPredicate(v.L, ts, tup)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return ex.evalPredicate(v.R, ts, tup)
	case *sql.Not:
		x, err := ex.evalPredicate(v.X, ts, tup)
		if err != nil {
			return false, err
		}
		return !x, nil
	default:
		return false, fmt.Errorf("rdb: unsupported predicate %T", e)
	}
}

func operandValue(o sql.Operand, ts *tupleSet, tup []Value) (Value, error) {
	if o.IsCol {
		return columnValue(o.Col, ts, tup)
	}
	// Untyped literal: infer a natural type.
	switch o.Lit.Kind {
	case sql.LitString:
		return StringValue(o.Lit.Str), nil
	case sql.LitInt:
		return IntValue(o.Lit.Int), nil
	case sql.LitFloat:
		return FloatValue(o.Lit.Float), nil
	case sql.LitBool:
		return BoolValue(o.Lit.Bool), nil
	default:
		return NullValue(TypeString), nil
	}
}

func columnValue(c sql.ColumnRef, ts *tupleSet, tup []Value) (Value, error) {
	if c.Table != "" {
		i := ts.colIndex(c.Table, c.Column)
		if i < 0 {
			return Value{}, fmt.Errorf("rdb: unresolved column %s", c)
		}
		return tup[i], nil
	}
	found := -1
	for i, bc := range ts.cols {
		if bc.column == c.Column {
			if found >= 0 {
				return Value{}, fmt.Errorf("rdb: ambiguous column %s", c.Column)
			}
			found = i
		}
	}
	if found < 0 {
		return Value{}, fmt.Errorf("rdb: unresolved column %s", c.Column)
	}
	return tup[found], nil
}

// likeMatch implements SQL LIKE: '%' matches any run, '_' one character.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			// collapse consecutive %
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if p == "" {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if s == "" {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if s == "" || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
}
