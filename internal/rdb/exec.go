package rdb

import (
	"fmt"
	"sort"
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
	Detail   string  // operator-specific description
	EstRows  float64 // planner cardinality estimate
	Children []*PlanNode
}

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
	if p.Detail != "" {
		b.WriteString("(" + p.Detail + ")")
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

// Query parses and executes a SELECT statement.
func (db *Database) Query(stmt string) (*Result, error) {
	sel, err := sql.Parse(stmt)
	if err != nil {
		return nil, err
	}
	return db.QueryAST(sel)
}

// QueryAST executes a parsed SELECT statement. There is no statement
// cache: repeated requests are answered above the database, by the
// wrapper response cache.
func (db *Database) QueryAST(sel *sql.Select) (*Result, error) {
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

// relation is one bound FROM/JOIN entry.
type relation struct {
	name  string // alias or table name, unique within the query
	table *Table
}

// boundCol is one column of the flattened intermediate tuple.
type boundCol struct {
	rel    string
	column string
	typ    Type
}

type execution struct {
	db   *Database
	sel  *sql.Select
	rels []relation
	// conjuncts of WHERE plus all JOIN ... ON conditions
	preds []sql.BoolExpr
	// inSets holds each IN list coerced to its column's type, built on the
	// first tuple the filter tests.
	inSets map[*sql.In]map[Value]bool
}

func newExecution(db *Database, sel *sql.Select) (*execution, error) {
	ex := &execution{db: db, sel: sel}
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
		ex.rels = append(ex.rels, relation{name: name, table: t})
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

// resolveCol finds the relation and column ordinal for a reference.
func (ex *execution) resolveCol(c sql.ColumnRef) (relName string, err error) {
	if c.Table != "" {
		for _, r := range ex.rels {
			if r.name == c.Table {
				if r.table.Schema.ColumnIndex(c.Column) < 0 {
					return "", fmt.Errorf("rdb: table %s has no column %s", c.Table, c.Column)
				}
				return r.name, nil
			}
		}
		return "", fmt.Errorf("rdb: unknown table %s in column reference", c.Table)
	}
	var found string
	for _, r := range ex.rels {
		if r.table.Schema.ColumnIndex(c.Column) >= 0 {
			if found != "" {
				return "", fmt.Errorf("rdb: ambiguous column %s", c.Column)
			}
			found = r.name
		}
	}
	if found == "" {
		return "", fmt.Errorf("rdb: unknown column %s", c.Column)
	}
	return found, nil
}

// predRels returns the distinct relation names a predicate references.
func (ex *execution) predRels(e sql.BoolExpr) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	addCol := func(c sql.ColumnRef) error {
		rel, err := ex.resolveCol(c)
		if err != nil {
			return err
		}
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
		return nil
	}
	var walk func(e sql.BoolExpr) error
	walk = func(e sql.BoolExpr) error {
		switch v := e.(type) {
		case *sql.Comparison:
			if v.L.IsCol {
				if err := addCol(v.L.Col); err != nil {
					return err
				}
			}
			if v.R.IsCol {
				if err := addCol(v.R.Col); err != nil {
					return err
				}
			}
		case *sql.Like:
			return addCol(v.Col)
		case *sql.In:
			return addCol(v.Col)
		case *sql.IsNull:
			return addCol(v.Col)
		case *sql.And:
			if err := walk(v.L); err != nil {
				return err
			}
			return walk(v.R)
		case *sql.Or:
			if err := walk(v.L); err != nil {
				return err
			}
			return walk(v.R)
		case *sql.Not:
			return walk(v.X)
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// tupleSet is an intermediate relation: a flattened schema of bound columns
// plus tuples.
type tupleSet struct {
	cols   []boundCol
	tuples []Row
	// raw, when set, marks an unfiltered base relation: tuples is the
	// table's own row slice — read it, never reorder it — and an index
	// nested-loop join can probe the table instead.
	raw  *Table
	plan *PlanNode
	// rels are the relation names this set covers.
	rels map[string]bool
}

func (ts *tupleSet) colIndex(rel, column string) int {
	for i, c := range ts.cols {
		if c.rel == rel && c.column == column {
			return i
		}
	}
	return -1
}

func (ex *execution) run() (*Result, error) {
	// Validate predicates early (resolve all columns).
	type classified struct {
		expr sql.BoolExpr
		rels []string
	}
	var preds []classified
	for _, p := range ex.preds {
		rels, err := ex.predRels(p)
		if err != nil {
			return nil, err
		}
		preds = append(preds, classified{expr: p, rels: rels})
	}

	// Per-relation local predicates and cross-relation predicates.
	local := map[string][]sql.BoolExpr{}
	var cross []classified
	for _, p := range preds {
		if len(p.rels) <= 1 {
			rel := ""
			if len(p.rels) == 1 {
				rel = p.rels[0]
			} else if len(ex.rels) > 0 {
				rel = ex.rels[0].name // constant predicate: attach to first
			}
			local[rel] = append(local[rel], p.expr)
		} else {
			cross = append(cross, p)
		}
	}

	// Build base tuple sets with access-path selection.
	bases := make([]*tupleSet, 0, len(ex.rels))
	for _, r := range ex.rels {
		ts, err := ex.scanRelation(r, local[r.name])
		if err != nil {
			return nil, err
		}
		bases = append(bases, ts)
	}

	// Greedy join order: start from the smallest base; repeatedly join the
	// connected base with the smallest cardinality.
	crossPreds := make([]sql.BoolExpr, len(cross))
	crossRels := make([][]string, len(cross))
	for i, c := range cross {
		crossPreds[i] = c.expr
		crossRels[i] = c.rels
	}
	cur, rest := pickSmallest(bases)
	for len(rest) > 0 {
		bestIdx := -1
		bestConnected := false
		for i, ts := range rest {
			connected := connectedTo(cur, ts, crossRels)
			switch {
			case bestIdx == -1,
				connected && !bestConnected,
				connected == bestConnected && len(ts.tuples) < len(rest[bestIdx].tuples):
				bestIdx, bestConnected = i, connected
			}
		}
		next := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		joined, err := ex.join(cur, next, crossPreds, crossRels)
		if err != nil {
			return nil, err
		}
		cur = joined
	}

	// Any remaining cross predicates (e.g. referencing 3+ relations or not
	// consumed during joins) are applied as residual filters.
	residual, err := ex.residualPreds(cur, crossPreds, crossRels)
	if err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		cur, err = ex.filterTuples(cur, residual, "ResidualFilter")
		if err != nil {
			return nil, err
		}
	}

	return ex.finalize(cur)
}

func pickSmallest(sets []*tupleSet) (*tupleSet, []*tupleSet) {
	best := 0
	for i, ts := range sets {
		if len(ts.tuples) < len(sets[best].tuples) {
			best = i
		}
	}
	cur := sets[best]
	rest := append(append([]*tupleSet{}, sets[:best]...), sets[best+1:]...)
	return cur, rest
}

func connectedTo(cur, other *tupleSet, crossRels [][]string) bool {
	for _, rels := range crossRels {
		if rels == nil {
			continue
		}
		hitCur, hitOther, miss := false, false, false
		for _, r := range rels {
			switch {
			case cur.rels[r]:
				hitCur = true
			case other.rels[r]:
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

// residualPreds returns the cross predicates fully covered by ts that have
// not been nil-ed out by join consumption.
func (ex *execution) residualPreds(ts *tupleSet, crossPreds []sql.BoolExpr, crossRels [][]string) ([]sql.BoolExpr, error) {
	var out []sql.BoolExpr
	for i, p := range crossPreds {
		if p == nil {
			continue
		}
		covered := true
		for _, r := range crossRels[i] {
			if !ts.rels[r] {
				covered = false
				break
			}
		}
		if covered {
			out = append(out, p)
			crossPreds[i] = nil
		}
	}
	return out, nil
}
