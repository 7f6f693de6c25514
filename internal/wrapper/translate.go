package wrapper

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// colInfo describes where a SPARQL variable lives in the translated SQL
// query.
type colInfo struct {
	ref      sql.ColumnRef
	typ      rdb.Type
	template string // non-empty when the column stores an IRI key
	nullable bool
}

// translation is the result of translating a request into one SQL query.
type translation struct {
	sel *sql.Select
	// varOrder lists the variables in projection order (c0, c1, ...).
	varOrder []string
	// varCols maps variable name to its column info.
	varCols map[string]colInfo
	// constBindings are variables bound to constants (e.g. ?t from
	// "?s a ?t" with a known class).
	constBindings sparql.Binding
	// localFilters could not be pushed into SQL and must run in the
	// wrapper.
	localFilters []sparql.Expr
	// empty marks a provably empty result (e.g. subject IRI outside the
	// mapping's namespace).
	empty bool
}

// leafMemo is what the requests of one plan leaf share of their SQL
// translation. WithSeeds hands the leaf's memo to every seeded form, so
// the stars and filters are translated once per source the leaf goes to,
// and a seeded request only builds its seed condition (withSeeds). The
// memo lives and dies with the leaf's request.
type leafMemo struct {
	mu    sync.Mutex
	bySrc map[*catalog.Source]*leafTranslation
}

// leafTranslation is one source's translation of a leaf: the immutable
// base statement, and the seed slot of the seed variables the leaf was
// first seeded with.
type leafTranslation struct {
	tl       *translation
	slotVars []string
	slot     []seedCol
}

// memo returns the memo r shares with the other requests of its leaf,
// creating it on first use.
func (r *Request) memo() *leafMemo {
	if m := r.leaf.Load(); m != nil {
		return m
	}
	r.leaf.CompareAndSwap(nil, &leafMemo{})
	return r.leaf.Load()
}

// translated returns the leaf's base translation at src and the seed slot
// of r's seed variables. The leaf's first request to src translates its
// stars and filters; every later one, from any goroutine, shares that.
func (r *Request) translated(src *catalog.Source) (*translation, []seedCol, error) {
	m := r.memo()
	m.mu.Lock()
	defer m.mu.Unlock()
	lt := m.bySrc[src]
	if lt == nil {
		tl, err := translateRequest(src, r.Stars, r.Filters)
		if err != nil {
			return nil, nil, err
		}
		if m.bySrc == nil {
			m.bySrc = make(map[*catalog.Source]*leafTranslation)
		}
		lt = &leafTranslation{tl: tl}
		m.bySrc[src] = lt
	}
	if r.Seeds.Rows == 0 {
		return lt.tl, nil, nil
	}
	if lt.slotVars == nil {
		lt.slotVars, lt.slot = r.Seeds.Vars, lt.tl.seedSlot(r.Seeds.Vars)
	}
	if !slices.Equal(lt.slotVars, r.Seeds.Vars) {
		// A leaf resolved from its shape alone can be seeded on other
		// variables by another plan.
		return lt.tl, lt.tl.seedSlot(r.Seeds.Vars), nil
	}
	return lt.tl, lt.slot, nil
}

// translate returns the statement r runs at src: its leaf's translation
// with r's seeds pushed into the WHERE clause. The translation is nil when
// it proves the result empty before touching the database.
func (r *Request) translate(src *catalog.Source, d *dict.Dict) (*translation, error) {
	base, slot, err := r.translated(src)
	if err != nil || base.empty {
		return nil, err
	}
	if tl, empty := base.withSeeds(slot, r.Seeds, d); !empty {
		return tl, nil
	}
	return nil, nil
}

// translator builds a SQL query for one or more stars over one relational
// source.
type translator struct {
	src     *catalog.Source
	sel     *sql.Select
	varCols map[string]colInfo
	varSeen []string
	aliasN  int
	empty   bool
	// extraEq accumulates equality conditions from repeated variables.
	conds []sql.BoolExpr
	// notNull tracks direct nullable columns that must be IS NOT NULL, in
	// the order the variables bind them, so a request always translates
	// to the same text.
	notNull []sql.ColumnRef
	consts  sparql.Binding
}

// translateRequest translates the stars and as many filters as possible
// into a single SQL SELECT (the optimized translation of the paper's
// future-work discussion).
func translateRequest(src *catalog.Source, stars []*StarQuery, filters []sparql.Expr) (*translation, error) {
	tr := &translator{
		src:     src,
		sel:     &sql.Select{Limit: -1},
		varCols: map[string]colInfo{},
		consts:  sparql.NewBinding(),
	}
	for _, star := range stars {
		if err := tr.addStar(star); err != nil {
			return nil, err
		}
	}
	// A variable bound both by a class (?s a ?t) and by a column must be
	// stored there as the class IRI.
	for _, v := range tr.varSeen {
		if class, ok := tr.consts[v]; ok {
			tr.eqConst(tr.varCols[v], class)
		}
	}
	out := &translation{
		varCols:       tr.varCols,
		constBindings: tr.consts,
		empty:         tr.empty,
	}
	// Push translatable filters.
	for _, f := range filters {
		if cond, ok := tr.translateFilter(f); ok {
			tr.conds = append(tr.conds, cond)
		} else {
			out.localFilters = append(out.localFilters, f)
		}
	}
	// NOT NULL guards for nullable direct columns bound to variables.
	for _, ref := range tr.notNull {
		tr.conds = append(tr.conds, &sql.IsNull{Col: ref, Not: true})
	}
	tr.sel.Where = sql.AndAll(tr.conds)
	// Projection: one output column per variable, in first-seen order.
	for i, v := range tr.varSeen {
		info := tr.varCols[v]
		tr.sel.Columns = append(tr.sel.Columns, sql.SelectItem{
			Col:   info.ref,
			Alias: fmt.Sprintf("c%d", i),
		})
	}
	if len(tr.sel.Columns) == 0 && len(tr.sel.From) > 0 {
		// Constant-only request: project the first base table's PK so the
		// row count survives.
		base := tr.sel.From[0]
		t := src.DB.Table(base.Table)
		tr.sel.Columns = append(tr.sel.Columns, sql.SelectItem{
			Col:   sql.ColumnRef{Table: base.Name(), Column: t.Schema.PrimaryKey},
			Alias: "c_probe",
		})
	}
	out.varOrder = tr.varSeen
	out.sel = tr.sel
	return out, nil
}

func (tr *translator) nextAlias() string {
	tr.aliasN++
	return fmt.Sprintf("t%d", tr.aliasN)
}

// bindVar records that variable v is stored at info; a repeated occurrence
// in another column adds an equality condition once (one in the same
// column, such as a star's shared subject, adds none).
func (tr *translator) bindVar(v string, info colInfo) {
	if prev, ok := tr.varCols[v]; ok {
		if prev.ref == info.ref || tr.hasColEq(prev.ref, info.ref) {
			return
		}
		tr.conds = append(tr.conds, &sql.Comparison{
			Op: sql.CmpEq,
			L:  sql.ColOperand(prev.ref),
			R:  sql.ColOperand(info.ref),
		})
		return
	}
	tr.varCols[v] = info
	tr.varSeen = append(tr.varSeen, v)
	if info.nullable && !slices.Contains(tr.notNull, info.ref) {
		tr.notNull = append(tr.notNull, info.ref)
	}
}

// hasColEq reports whether the conditions already equate columns a and b,
// in either orientation.
func (tr *translator) hasColEq(a, b sql.ColumnRef) bool {
	for _, c := range tr.conds {
		if cmp, ok := c.(*sql.Comparison); ok && cmp.Op == sql.CmpEq && cmp.L.IsCol && cmp.R.IsCol &&
			(cmp.L.Col == a && cmp.R.Col == b || cmp.L.Col == b && cmp.R.Col == a) {
			return true
		}
	}
	return false
}

func (tr *translator) addStar(star *StarQuery) error {
	cm := tr.src.Mapping(star.Class)
	if cm == nil {
		return fmt.Errorf("wrapper: source %s has no mapping for class %s", tr.src.ID, star.Class)
	}
	baseTable := tr.src.DB.Table(cm.Table)
	if baseTable == nil {
		return fmt.Errorf("wrapper: source %s: mapped table %s missing", tr.src.ID, cm.Table)
	}
	baseAlias := tr.nextAlias()
	tr.sel.From = append(tr.sel.From, sql.TableRef{Table: cm.Table, Alias: baseAlias})
	if cm.Denormalized {
		// Wide-table layouts repeat the subject across rows; de-duplicate
		// to recover RDF set semantics.
		tr.sel.Distinct = true
	}
	pkType, _ := baseTable.Schema.ColumnType(cm.SubjectColumn)
	subjectRef := sql.ColumnRef{Table: baseAlias, Column: cm.SubjectColumn}
	subjectInfo := colInfo{ref: subjectRef, typ: pkType, template: cm.SubjectTemplate}

	for _, tp := range star.Patterns {
		// Subject position.
		switch {
		case tp.S.IsVar:
			if tp.S.Var != star.SubjectVar {
				return fmt.Errorf("wrapper: pattern %s does not share star subject ?%s", tp, star.SubjectVar)
			}
			tr.bindVar(tp.S.Var, subjectInfo)
		default:
			if !tr.eqConst(subjectInfo, tp.S.Term) {
				continue
			}
		}

		// Predicate must be a constant IRI at a relational source.
		if tp.P.IsVar {
			return fmt.Errorf("wrapper: variable predicates are not supported over relational sources (%s)", tp)
		}
		pred := tp.P.Term.Value

		// rdf:type pattern.
		if pred == rdf.RDFType {
			switch {
			case tp.O.IsVar:
				class := rdf.NewIRI(star.Class)
				if prev, ok := tr.consts[tp.O.Var]; ok && prev != class {
					tr.empty = true
				}
				tr.consts[tp.O.Var] = class
			case tp.O.Term.IsIRI():
				if tp.O.Term.Value != star.Class {
					tr.empty = true
				}
			default:
				tr.empty = true
			}
			continue
		}

		pm := cm.Property(pred)
		if pm == nil {
			// The molecule does not carry this predicate: empty result.
			tr.empty = true
			continue
		}

		var valRef sql.ColumnRef
		var valType rdb.Type
		var nullable bool
		if pm.IsJoin() {
			jt := tr.src.DB.Table(pm.JoinTable)
			if jt == nil {
				return fmt.Errorf("wrapper: source %s: join table %s missing", tr.src.ID, pm.JoinTable)
			}
			alias := tr.nextAlias()
			tr.sel.Joins = append(tr.sel.Joins, sql.Join{
				Table: sql.TableRef{Table: pm.JoinTable, Alias: alias},
				On: &sql.Comparison{
					Op: sql.CmpEq,
					L:  sql.ColOperand(sql.ColumnRef{Table: alias, Column: pm.JoinFK}),
					R:  sql.ColOperand(subjectRef),
				},
			})
			valRef = sql.ColumnRef{Table: alias, Column: pm.ValueColumn}
			valType, _ = jt.Schema.ColumnType(pm.ValueColumn)
		} else {
			valRef = sql.ColumnRef{Table: baseAlias, Column: pm.Column}
			valType, _ = baseTable.Schema.ColumnType(pm.Column)
			ci := baseTable.Schema.ColumnIndex(pm.Column)
			nullable = !baseTable.Schema.Columns[ci].NotNull
		}

		info := colInfo{ref: valRef, typ: valType, template: pm.ObjectTemplate, nullable: nullable}
		if tp.O.IsVar {
			tr.bindVar(tp.O.Var, info)
		} else {
			tr.eqConst(info, tp.O.Term)
		}
	}
	return nil
}

// eqConst requires the column info to store the constant t. A constant
// the column cannot hold makes the result provably empty, and eqConst
// reports false.
func (tr *translator) eqConst(info colInfo, t rdf.Term) bool {
	lit, ok := info.literal(t)
	if !ok {
		tr.empty = true
		return false
	}
	tr.conds = append(tr.conds, eqLit(info.ref, lit))
	return true
}

// literal returns the SQL literal of the stored value that stands for t in
// the column (catalog.TermValue); ok is false when the column holds no
// such value.
func (info colInfo) literal(t rdf.Term) (sql.Literal, bool) {
	v, ok := catalog.TermValue(t, info.typ, info.template)
	if !ok {
		return sql.Literal{}, false
	}
	switch v.Type {
	case rdb.TypeInt:
		return sql.Literal{Kind: sql.LitInt, Int: v.Int}, true
	case rdb.TypeFloat:
		return sql.Literal{Kind: sql.LitFloat, Float: v.Float}, true
	case rdb.TypeBool:
		return sql.Literal{Kind: sql.LitBool, Bool: v.Bool}, true
	default:
		return sql.Literal{Kind: sql.LitString, Str: v.Str}, true
	}
}

// eqLit is the condition col = lit.
func eqLit(col sql.ColumnRef, lit sql.Literal) sql.BoolExpr {
	return &sql.Comparison{Op: sql.CmpEq, L: sql.ColOperand(col), R: sql.LitOperand(lit)}
}

// translateFilter converts a SPARQL filter into a SQL predicate over the
// translated columns; ok is false when the filter must stay in the
// wrapper/engine.
func (tr *translator) translateFilter(e sparql.Expr) (sql.BoolExpr, bool) {
	switch v := e.(type) {
	case *sparql.CompareExpr:
		return tr.translateCompare(v)
	case *sparql.LogicExpr:
		l, ok := tr.translateFilter(v.L)
		if !ok {
			return nil, false
		}
		r, ok := tr.translateFilter(v.R)
		if !ok {
			return nil, false
		}
		if v.Op == sparql.OpAnd {
			return &sql.And{L: l, R: r}, true
		}
		return &sql.Or{L: l, R: r}, true
	case *sparql.NotExpr:
		x, ok := tr.translateFilter(v.X)
		if !ok {
			return nil, false
		}
		return &sql.Not{X: x}, true
	case *sparql.FuncExpr:
		return tr.translateFunc(v)
	default:
		return nil, false
	}
}

func (tr *translator) translateCompare(c *sparql.CompareExpr) (sql.BoolExpr, bool) {
	ve, konst, op, ok := splitVarConst(c)
	if !ok {
		return nil, false
	}
	info, bound := tr.varCols[ve.Name]
	if !bound || (info.template != "" || info.typ == rdb.TypeBool) && op != sql.CmpEq && op != sql.CmpNeq {
		// SPARQL orders neither IRIs nor booleans: only equality is pushed
		// on their columns.
		return nil, false
	}
	lit, ok := info.literal(konst)
	if !ok {
		// The column holds no value standing for the constant; the
		// wrapper's row check evaluates the filter on the terms.
		return nil, false
	}
	return &sql.Comparison{Op: op, L: sql.ColOperand(info.ref), R: sql.LitOperand(lit)}, true
}

// splitVarConst normalizes a comparison to (variable, constant, op).
func splitVarConst(c *sparql.CompareExpr) (*sparql.VarExpr, rdf.Term, sql.CmpOp, bool) {
	toSQLOp := func(op sparql.CompareOp) sql.CmpOp {
		switch op {
		case sparql.OpEq:
			return sql.CmpEq
		case sparql.OpNeq:
			return sql.CmpNeq
		case sparql.OpLt:
			return sql.CmpLt
		case sparql.OpLe:
			return sql.CmpLe
		case sparql.OpGt:
			return sql.CmpGt
		default:
			return sql.CmpGe
		}
	}
	flip := func(op sql.CmpOp) sql.CmpOp {
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
	if v, ok := c.L.(*sparql.VarExpr); ok {
		if k, ok2 := c.R.(*sparql.ConstExpr); ok2 {
			return v, k.Term, toSQLOp(c.Op), true
		}
	}
	if v, ok := c.R.(*sparql.VarExpr); ok {
		if k, ok2 := c.L.(*sparql.ConstExpr); ok2 {
			return v, k.Term, flip(toSQLOp(c.Op)), true
		}
	}
	return nil, rdf.Term{}, 0, false
}

func (tr *translator) translateFunc(f *sparql.FuncExpr) (sql.BoolExpr, bool) {
	if len(f.Args) != 2 {
		return nil, false
	}
	v, ok := f.Args[0].(*sparql.VarExpr)
	if !ok {
		return nil, false
	}
	// Only a simple-literal needle becomes LIKE: with a language-tagged or
	// non-string needle the function is a type error (SPARQL 1.1 argument
	// compatibility), which the row check evaluates.
	k, ok := f.Args[1].(*sparql.ConstExpr)
	if !ok || !k.Term.IsLiteral() || k.Term.Lang != "" || k.Term.Datatype != "" && k.Term.Datatype != rdf.XSDString {
		return nil, false
	}
	info, bound := tr.varCols[v.Name]
	if !bound || info.template != "" || info.typ != rdb.TypeString {
		return nil, false
	}
	s := k.Term.Value
	// SQL LIKE lacks an escape in our subset; bail out when the constant
	// contains wildcard characters.
	if strings.ContainsAny(s, "%_") {
		return nil, false
	}
	var pattern string
	switch f.Name {
	case "CONTAINS":
		pattern = "%" + s + "%"
	case "STRSTARTS":
		pattern = s + "%"
	case "STRENDS":
		pattern = "%" + s
	default:
		return nil, false
	}
	return &sql.Like{Col: info.ref, Pattern: pattern}, true
}

// seedCol is one seed variable a translation can push down: its index in
// Seeds.Vars and the column that stores it.
type seedCol struct {
	at   int
	info colInfo
}

// seedSlot lists the seed variables that map to translated columns, in
// sorted-variable order — the order a seed's equalities are conjoined in.
func (t *translation) seedSlot(vars []string) []seedCol {
	var slot []seedCol
	for i, v := range vars {
		if info, ok := t.varCols[v]; ok {
			slot = append(slot, seedCol{at: i, info: info})
		}
	}
	slices.SortFunc(slot, func(a, b seedCol) int { return strings.Compare(vars[a.at], vars[b.at]) })
	return slot
}

// withSeeds returns the translation of t's request seeded with seeds: the
// seed condition (seedCond) ANDed into a shallow copy of t's statement.
// t is a leaf's shared base and is never changed. provablyEmpty reports
// that the seeds prove the result empty, so the query need not run at all.
func (t *translation) withSeeds(slot []seedCol, seeds engine.Seeds, d *dict.Dict) (_ *translation, provablyEmpty bool) {
	cond, provablyEmpty := seedCond(slot, seeds, d)
	if provablyEmpty || cond == nil {
		return t, provablyEmpty
	}
	sel := *t.sel
	if sel.Where == nil {
		sel.Where = cond
	} else {
		sel.Where = &sql.And{L: sel.Where, R: cond}
	}
	out := *t
	out.sel = &sel
	return &out, false
}

// seedCond builds the seed pushdown predicate of a bind join straight from
// the seed IDs: a single `col IN (...)` when every satisfiable seed binds
// one slot column, the same one, and an OR of per-seed equality
// conjunctions (in slot order) otherwise. It returns a nil condition when
// the seeds cannot restrict the query (some seed binds no slot column, so
// the disjunction would be trivially true); the caller then relies on the
// post-hoc seed-compatibility check. provablyEmpty reports that every seed
// is unsatisfiable at this source (e.g. all seed IRIs fall outside the
// mapping's namespace), so the query need not run at all.
func seedCond(slot []seedCol, seeds engine.Seeds, d *dict.Dict) (cond sql.BoolExpr, provablyEmpty bool) {
	if seeds.Rows == 0 {
		return nil, false
	}
	lits := make([]sql.Literal, 0, seeds.Rows) // the satisfiable seeds' equalities, seed after seed
	cols := make([]int, 0, seeds.Rows)         // each equality's slot column
	ends := make([]int, 0, seeds.Rows)         // each satisfiable seed's end in lits
	for i := 0; i < seeds.Rows; i++ {
		row := seeds.Row(i)
		start, bound, sat := len(lits), false, true
		for k, c := range slot {
			id := row[c.at]
			if id == dict.Unbound {
				continue
			}
			bound = true
			lit, ok := c.info.literal(d.MustLookup(id))
			if !ok {
				sat = false
				break
			}
			lits, cols = append(lits, lit), append(cols, k)
		}
		switch {
		case !bound:
			// This seed cannot be expressed over the translated columns;
			// ORing a tautology in would defeat the pushdown entirely.
			return nil, false
		case !sat:
			// The seed matches no row of this source; it contributes no
			// disjunct.
			lits, cols = lits[:start], cols[:start]
		default:
			ends = append(ends, len(lits))
		}
	}
	if len(ends) == 0 {
		return nil, true
	}
	if len(lits) == len(ends) && sameColumn(slot, cols) {
		return &sql.In{Col: slot[cols[0]].info.ref, List: lits}, false
	}
	disjuncts := make([]sql.BoolExpr, len(ends))
	conj := make([]sql.BoolExpr, 0, len(slot))
	start := 0
	for i, end := range ends {
		conj = conj[:0]
		for j := start; j < end; j++ {
			conj = append(conj, eqLit(slot[cols[j]].info.ref, lits[j]))
		}
		disjuncts[i], start = sql.AndAll(conj), end
	}
	return orAll(disjuncts), false
}

// sameColumn reports whether the slot columns cols all store in the same
// column.
func sameColumn(slot []seedCol, cols []int) bool {
	for _, k := range cols[1:] {
		if slot[k].info.ref != slot[cols[0]].info.ref {
			return false
		}
	}
	return true
}

// orAll combines the expressions into a right-leaning OR chain.
func orAll(es []sql.BoolExpr) sql.BoolExpr {
	var out sql.BoolExpr
	for i := len(es) - 1; i >= 0; i-- {
		if out == nil {
			out = es[i]
		} else {
			out = &sql.Or{L: es[i], R: out}
		}
	}
	return out
}

// template returns a row in schema order binding only the translation's
// constant bindings: what every decoded row of it starts from.
func (t *translation) template(schema *engine.Schema, d *dict.Dict) []dict.ID {
	row := make([]dict.ID, len(schema.Vars))
	for v, term := range t.constBindings {
		if p := schema.Pos(v); p >= 0 {
			row[p] = d.Intern(term)
		}
	}
	return row
}
