package rdb

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"ontario/internal/sql"
)

// pred is a predicate compiled once per statement: every column is
// resolved to its relation slot and column ordinal, and literals, IN sets
// and LIKE patterns are prepared, so eval tests a tuple of row ordinals —
// one per slot — without a name lookup. NULL comparisons yield false (SQL
// unknown treated as not-satisfied).
type pred struct {
	expr  sql.BoolExpr
	slots []int // the relations it reads
	eval  func(t []int32) bool
}

func (ex *execution) compile(e sql.BoolExpr) (*pred, error) {
	p := &pred{expr: e}
	var err error
	p.eval, err = ex.compileExpr(e, p)
	return p, err
}

// column resolves c and records its relation in p.
func (ex *execution) column(c sql.ColumnRef, p *pred) (colRef, error) {
	ref, err := ex.resolveCol(c)
	if err == nil && !slices.Contains(p.slots, ref.slot) {
		p.slots = append(p.slots, ref.slot)
	}
	return ref, err
}

func (ex *execution) compileExpr(e sql.BoolExpr, p *pred) (func(t []int32) bool, error) {
	switch v := e.(type) {
	case *sql.Comparison:
		var cols [2]colRef
		var lits [2]Value
		for i, o := range [2]sql.Operand{v.L, v.R} {
			var err error
			if !o.IsCol {
				lits[i] = literalValue(o.Lit)
			} else if cols[i], err = ex.column(o.Col, p); err != nil {
				return nil, err
			}
		}
		l, r, lv, rv, op := cols[0], cols[1], lits[0], lits[1], v.Op
		switch {
		case v.L.IsCol && v.R.IsCol && l.slot == r.slot && l.col == r.col:
			// A cell compared with itself, as a repeated variable's
			// translation does: it is equal to itself unless NULL.
			eq := holds(op, 0)
			return func(t []int32) bool { return eq && !l.at(t).Null }, nil
		case v.L.IsCol && v.R.IsCol:
			return func(t []int32) bool { c, ok := l.at(t).Compare(*r.at(t)); return ok && holds(op, c) }, nil
		case v.L.IsCol:
			return func(t []int32) bool { c, ok := l.at(t).Compare(rv); return ok && holds(op, c) }, nil
		case v.R.IsCol:
			return func(t []int32) bool { c, ok := lv.Compare(*r.at(t)); return ok && holds(op, c) }, nil
		}
		c, ok := lv.Compare(rv)
		res := ok && holds(op, c)
		return func([]int32) bool { return res }, nil
	case *sql.Like:
		c, err := ex.column(v.Col, p)
		if err != nil || c.typ() != TypeString {
			return func([]int32) bool { return false }, err
		}
		match := likeMatcher(v.Pattern)
		return func(t []int32) bool { x := c.at(t); return !x.Null && match(x.Str) != v.Not }, nil
	case *sql.In:
		c, err := ex.column(v.Col, p)
		if err != nil {
			return nil, err
		}
		// A literal that does not coerce to the column type, like NULL,
		// equals no value.
		set := make(map[Value]bool, len(v.List))
		for _, lit := range v.List {
			if lv, err := FromLiteral(lit, c.typ()); err == nil && !lv.Null {
				set[lv] = true
			}
		}
		return func(t []int32) bool { x := c.at(t); return !x.Null && set[*x] != v.Not }, nil
	case *sql.IsNull:
		c, err := ex.column(v.Col, p)
		return func(t []int32) bool { return c.at(t).Null != v.Not }, err
	case *sql.And:
		l, r, err := ex.compilePair(v.L, v.R, p)
		return func(t []int32) bool { return l(t) && r(t) }, err
	case *sql.Or:
		l, r, err := ex.compilePair(v.L, v.R, p)
		return func(t []int32) bool { return l(t) || r(t) }, err
	case *sql.Not:
		x, err := ex.compileExpr(v.X, p)
		return func(t []int32) bool { return !x(t) }, err
	default:
		return nil, fmt.Errorf("rdb: unsupported predicate %T", e)
	}
}

func (ex *execution) compilePair(a, b sql.BoolExpr, p *pred) (l, r func(t []int32) bool, err error) {
	if l, err = ex.compileExpr(a, p); err == nil {
		r, err = ex.compileExpr(b, p)
	}
	return l, r, err
}

func (c colRef) typ() Type { return c.table.Schema.Columns[c.col].Type }

// holds applies a comparison operator to a three-way comparison result.
func holds(op sql.CmpOp, c int) bool {
	switch op {
	case sql.CmpEq:
		return c == 0
	case sql.CmpNeq:
		return c != 0
	case sql.CmpLt:
		return c < 0
	case sql.CmpLe:
		return c <= 0
	case sql.CmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// literalValue gives an untyped literal its natural type.
func literalValue(l sql.Literal) Value {
	switch l.Kind {
	case sql.LitString:
		return StringValue(l.Str)
	case sql.LitInt:
		return IntValue(l.Int)
	case sql.LitFloat:
		return FloatValue(l.Float)
	case sql.LitBool:
		return BoolValue(l.Bool)
	default:
		return NullValue(TypeString)
	}
}

// likeMatcher compiles a SQL LIKE pattern: '%' matches any run of
// characters, '_' exactly one character (a rune, not a byte). A pattern
// whose only wildcards are '%' at its ends is a string comparison; any
// other is matched iteratively, resuming after the last '%' on a
// mismatch, in O(len(pattern)·len(s)).
func likeMatcher(pattern string) func(string) bool {
	if lit := strings.Trim(pattern, "%"); !strings.ContainsAny(lit, "%_") {
		switch pre, suf := strings.HasPrefix(pattern, "%"), strings.HasSuffix(pattern, "%"); {
		case pre && suf:
			return func(s string) bool { return strings.Contains(s, lit) }
		case pre:
			return func(s string) bool { return strings.HasSuffix(s, lit) }
		case suf:
			return func(s string) bool { return strings.HasPrefix(s, lit) }
		default:
			return func(s string) bool { return s == lit }
		}
	}
	p := []rune(pattern)
	return func(s string) bool {
		pi, si := 0, 0
		star, mark := -1, 0 // the last '%' and where in s its run ends
		for si < len(s) {
			if pi < len(p) && p[pi] == '%' {
				star, mark = pi, si
				pi++
				continue
			}
			r, n := utf8.DecodeRuneInString(s[si:])
			switch {
			case pi < len(p) && (p[pi] == '_' || p[pi] == r):
				pi, si = pi+1, si+n
			case star >= 0: // let the last '%' swallow one more rune
				_, n = utf8.DecodeRuneInString(s[mark:])
				mark += n
				pi, si = star+1, mark
			default:
				return false
			}
		}
		for pi < len(p) && p[pi] == '%' {
			pi++
		}
		return pi == len(p)
	}
}
