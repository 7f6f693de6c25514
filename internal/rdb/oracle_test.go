package rdb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ontario/internal/sql"
)

// oracleCols lists the columns of the property-test schema (buildPair)
// with the literals a generated predicate compares them against.
var oracleCols = map[string][]string{
	"l": {"id", "k", "s", "f"},
	"r": {"id", "k", "v"},
}

// stmtGen draws SELECT statements over buildPair's tables: one to three
// relations (self-joins through aliases), JOIN ... ON or comma joins with
// equi and non-equi conditions, WHERE conjuncts built from = <> < <= > >=,
// LIKE, IN, NOT IN, IS [NOT] NULL, OR and NOT, DISTINCT, ORDER BY (NULLs
// included), LIMIT/OFFSET and SELECT *.
type stmtGen struct {
	rng    *rand.Rand
	tables []string // per alias t0, t1, ...
}

func (g *stmtGen) col(a int) string {
	cols := oracleCols[g.tables[a]]
	return fmt.Sprintf("t%d.%s", a, cols[g.rng.Intn(len(cols))])
}

// lit returns a literal for column c: usually of its type, sometimes of
// another (incomparable or coerced) or NULL.
func (g *stmtGen) lit(c string) string {
	switch g.rng.Intn(12) {
	case 0:
		return "NULL"
	case 1:
		return "'abc'"
	case 2:
		return fmt.Sprintf("%d.5", g.rng.Intn(25))
	}
	switch {
	case strings.HasSuffix(c, ".s"):
		return fmt.Sprintf("'s%02d'", g.rng.Intn(42))
	case strings.HasSuffix(c, ".v"):
		return fmt.Sprintf("'v%d'", g.rng.Intn(11))
	case strings.HasSuffix(c, ".f"):
		return fmt.Sprint(g.rng.Intn(100))
	default:
		return fmt.Sprint(g.rng.Intn(30))
	}
}

var (
	oracleOps   = []string{"=", "<>", "<", "<=", ">", ">="}
	oracleLikes = []string{"s1%", "%5", "%0%", "s_5", "_1%", "v_", "%", "s%1%", "v%", "%_"}
)

// atom is one predicate over alias a, or over a and b when b >= 0.
func (g *stmtGen) atom(a, b int) string {
	if b >= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("t%d.k = t%d.k", a, b)
		case 1:
			return fmt.Sprintf("t%d.id = t%d.k", a, b)
		case 2:
			return fmt.Sprintf("%s %s %s", g.col(a), oracleOps[g.rng.Intn(len(oracleOps))], g.col(b))
		default:
			return fmt.Sprintf("(%s OR %s)", g.atom(a, -1), g.atom(b, -1))
		}
	}
	c := g.col(a)
	switch g.rng.Intn(10) {
	case 0, 1:
		return fmt.Sprintf("%s %s %s", c, oracleOps[g.rng.Intn(len(oracleOps))], g.lit(c))
	case 2:
		col := "s"
		if g.tables[a] == "r" {
			col = "v"
		}
		not := ""
		if g.rng.Intn(3) == 0 {
			not = "NOT "
		}
		return fmt.Sprintf("t%d.%s %sLIKE '%s'", a, col, not, oracleLikes[g.rng.Intn(len(oracleLikes))])
	case 3:
		var lits []string
		for i := 0; i <= g.rng.Intn(5); i++ {
			lits = append(lits, g.lit(c))
		}
		not := ""
		if g.rng.Intn(3) == 0 {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sIN (%s)", c, not, strings.Join(lits, ", "))
	case 4:
		if g.rng.Intn(2) == 0 {
			return c + " IS NULL"
		}
		return c + " IS NOT NULL"
	case 5:
		return fmt.Sprintf("(%s OR %s)", g.atom(a, -1), g.atom(a, -1))
	case 6:
		return fmt.Sprintf("NOT (%s)", g.atom(a, -1))
	case 7: // a column against itself, as a repeated variable translates
		return fmt.Sprintf("%s %s %s", c, oracleOps[g.rng.Intn(len(oracleOps))], c)
	default:
		return fmt.Sprintf("%s = %s", c, g.lit(c))
	}
}

// next returns a statement and whether its ORDER BY is a total order
// (ending in every relation's primary key), which makes the row sequence
// exact.
func (g *stmtGen) next() (string, bool) {
	n := 1 + g.rng.Intn(3)
	g.tables = g.tables[:0]
	for i := 0; i < n; i++ {
		g.tables = append(g.tables, []string{"l", "r"}[g.rng.Intn(2)])
	}
	// Comma-joined relations come before the JOIN clauses, as the grammar
	// wants; conditions may name any alias.
	var from, joins strings.Builder
	var where []string
	fmt.Fprintf(&from, "%s t0", g.tables[0])
	for i := 1; i < n; i++ {
		cond := g.atom(g.rng.Intn(i), i)
		switch g.rng.Intn(4) {
		case 0: // comma join, no condition: a cross product
			fmt.Fprintf(&from, ", %s t%d", g.tables[i], i)
		case 1:
			fmt.Fprintf(&from, ", %s t%d", g.tables[i], i)
			where = append(where, cond)
		default:
			fmt.Fprintf(&joins, " JOIN %s t%d ON %s", g.tables[i], i, cond)
			if g.rng.Intn(3) == 0 {
				fmt.Fprintf(&joins, " AND %s", g.atom(g.rng.Intn(i), i))
			}
		}
	}
	from.WriteString(joins.String())
	for i := 0; i < g.rng.Intn(4); i++ {
		where = append(where, g.atom(g.rng.Intn(n), -1))
	}
	if n == 3 && g.rng.Intn(3) == 0 { // a predicate over all three relations
		where = append(where, fmt.Sprintf("(t0.k < t1.k OR t2.id = %d)", g.rng.Intn(20)))
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	if g.rng.Intn(3) == 0 {
		b.WriteString("DISTINCT ")
	}
	if g.rng.Intn(6) == 0 {
		b.WriteString("*")
	} else {
		var cols []string
		for i := 0; i <= g.rng.Intn(4); i++ {
			cols = append(cols, g.col(g.rng.Intn(n)))
		}
		b.WriteString(strings.Join(cols, ", "))
	}
	b.WriteString(" FROM " + from.String())
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	total := false
	if g.rng.Intn(2) == 0 {
		var keys []string
		for i := 0; i <= g.rng.Intn(2); i++ {
			k := g.col(g.rng.Intn(n))
			if g.rng.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		if total = g.rng.Intn(3) > 0; total {
			for i := 0; i < n; i++ {
				keys = append(keys, fmt.Sprintf("t%d.id", i))
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if total && g.rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", g.rng.Intn(30))
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.rng.Intn(20))
		}
	}
	return b.String(), total
}

// refQuery evaluates sel by brute force over Values: every combination of
// rows in statement order, every predicate tested on every combination,
// then a stable sort, projection, DISTINCT and LIMIT/OFFSET.
func refQuery(t *testing.T, db *Database, sel *sql.Select) (cols []string, rows []Row) {
	t.Helper()
	type rel struct {
		name string
		t    *Table
	}
	var rels []rel
	preds := sql.Conjuncts(sel.Where)
	for _, ref := range sel.From {
		rels = append(rels, rel{ref.Name(), db.Table(ref.Table)})
	}
	for _, j := range sel.Joins {
		rels = append(rels, rel{j.Table.Name(), db.Table(j.Table.Table)})
		preds = append(preds, sql.Conjuncts(j.On)...)
	}
	get := func(tup []Row, c sql.ColumnRef) Value {
		for i, r := range rels {
			if ci := r.t.Schema.ColumnIndex(c.Column); r.name == c.Table && ci >= 0 {
				return tup[i][ci]
			}
		}
		t.Fatalf("reference: unresolved column %s", c)
		return Value{}
	}
	operand := func(tup []Row, o sql.Operand) Value {
		if o.IsCol {
			return get(tup, o.Col)
		}
		switch o.Lit.Kind {
		case sql.LitString:
			return StringValue(o.Lit.Str)
		case sql.LitInt:
			return IntValue(o.Lit.Int)
		case sql.LitFloat:
			return FloatValue(o.Lit.Float)
		case sql.LitBool:
			return BoolValue(o.Lit.Bool)
		}
		return NullValue(TypeString)
	}
	var eval func(tup []Row, e sql.BoolExpr) bool
	eval = func(tup []Row, e sql.BoolExpr) bool {
		switch v := e.(type) {
		case *sql.Comparison:
			c, ok := operand(tup, v.L).Compare(operand(tup, v.R))
			switch v.Op {
			case sql.CmpEq:
				return ok && c == 0
			case sql.CmpNeq:
				return ok && c != 0
			case sql.CmpLt:
				return ok && c < 0
			case sql.CmpLe:
				return ok && c <= 0
			case sql.CmpGt:
				return ok && c > 0
			}
			return ok && c >= 0
		case *sql.Like:
			x := get(tup, v.Col)
			return !x.Null && x.Type == TypeString && refLike([]rune(v.Pattern), []rune(x.Str)) != v.Not
		case *sql.In:
			x := get(tup, v.Col)
			found := false
			for _, l := range v.List {
				lv, err := FromLiteral(l, x.Type)
				found = found || err == nil && !lv.Null && lv == x
			}
			return !x.Null && found != v.Not
		case *sql.IsNull:
			return get(tup, v.Col).Null != v.Not
		case *sql.And:
			return eval(tup, v.L) && eval(tup, v.R)
		case *sql.Or:
			return eval(tup, v.L) || eval(tup, v.R)
		case *sql.Not:
			return !eval(tup, v.X)
		}
		t.Fatalf("reference: predicate %T", e)
		return false
	}

	var tuples [][]Row
	var walk func(tup []Row)
	walk = func(tup []Row) {
		if len(tup) == len(rels) {
			for _, p := range preds {
				if !eval(tup, p) {
					return
				}
			}
			tuples = append(tuples, slices.Clone(tup))
			return
		}
		for _, r := range rels[len(tup)].t.snapshotRows() {
			walk(append(tup, r))
		}
	}
	walk(make([]Row, 0, len(rels)))

	slices.SortStableFunc(tuples, func(a, b []Row) int {
		for _, o := range sel.OrderBy {
			x, y := get(a, o.Col), get(b, o.Col)
			c := 0
			switch {
			case x.Null && y.Null:
			case x.Null:
				c = -1
			case y.Null:
				c = 1
			default:
				c, _ = x.Compare(y)
			}
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	var proj []sql.ColumnRef
	if len(sel.Columns) == 0 {
		for _, r := range rels {
			for _, c := range r.t.Schema.Columns {
				proj = append(proj, sql.ColumnRef{Table: r.name, Column: c.Name})
				cols = append(cols, c.Name)
			}
		}
	}
	for _, it := range sel.Columns {
		proj = append(proj, it.Col)
		cols = append(cols, it.Col.Column)
	}
	seen := map[string]bool{}
	for _, tup := range tuples {
		row := make(Row, len(proj))
		var key strings.Builder
		for i, c := range proj {
			row[i] = get(tup, c)
			key.WriteString(row[i].IndexKey() + "\x01")
		}
		if sel.Distinct {
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
		}
		rows = append(rows, row)
	}
	rows = rows[min(sel.Offset, len(rows)):]
	if sel.Limit >= 0 && sel.Limit < len(rows) {
		rows = rows[:sel.Limit]
	}
	return cols, rows
}

// snapshotRows returns the table's rows (test helper).
func (t *Table) snapshotRows() []Row {
	rows, _ := t.snapshot()
	return rows
}

// refLike is LIKE by definition: '%' any run of runes, '_' one rune.
func refLike(p, s []rune) bool {
	if len(p) == 0 {
		return len(s) == 0
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if refLike(p[1:], s[i:]) {
				return true
			}
		}
		return false
	case '_':
		return len(s) > 0 && refLike(p[1:], s[1:])
	default:
		return len(s) > 0 && s[0] == p[0] && refLike(p[1:], s[1:])
	}
}

// canonRows renders rows for comparison. Under SELECT * the engine lists
// the relations in its join order, so each row's per-relation chunks
// (every table's first column is id) are sorted; without an exact order
// the rows themselves are sorted too.
func canonRows(cols []string, rows []Row, star, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var chunks []string
		for j, v := range r {
			if j == 0 || star && cols[j] == "id" {
				chunks = append(chunks, "")
			}
			chunks[len(chunks)-1] += fmt.Sprintf("%v|", v)
		}
		if star {
			slices.Sort(chunks)
		}
		out[i] = strings.Join(chunks, " ")
	}
	if !ordered {
		slices.Sort(out)
	}
	return out
}

// TestQuickMatchesReference: generated statements return, on the indexed
// and on the index-less database, the rows a brute-force evaluation over
// Values returns — as a multiset, and as the exact sequence when the
// ORDER BY is total.
func TestQuickMatchesReference(t *testing.T) {
	indexed, plain := buildPair(t, 5, 24)
	g := &stmtGen{rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 300; i++ {
		q, total := g.next()
		sel, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wantCols, want := refQuery(t, plain, sel)
		star := len(sel.Columns) == 0
		wantKey := canonRows(wantCols, want, star, total)
		for _, db := range []*Database{indexed, plain} {
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !star && !slices.Equal(got.Columns, wantCols) {
				t.Fatalf("%s: columns %v, want %v", q, got.Columns, wantCols)
			}
			if gotKey := canonRows(got.Columns, got.Rows, star, total); !slices.Equal(gotKey, wantKey) {
				t.Fatalf("%s (indexed=%v):\ngot %d rows, reference %d\n%s", q, db == indexed, len(gotKey), len(wantKey), got.Plan)
			}
		}
	}
}
