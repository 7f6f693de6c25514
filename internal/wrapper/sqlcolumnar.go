package wrapper

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdb"
)

// cellIDs is one relational column's cells in dictionary IDs, rendered
// through one IRI template: a slot per table row, filled by Intern the
// first time a decode touches it and read with one atomic load afterwards
// — the relational counterpart of tripleIDs. Racing fills store the same
// ID: Intern is idempotent.
type cellIDs struct {
	d    *dict.Dict
	tmpl string
	ids  []atomic.Uint64
}

// id returns the ID of v, the cell in row ord.
func (v *cellIDs) id(ord int32, val *rdb.Value) dict.ID {
	if int(ord) >= len(v.ids) { // the table grew after the view was sized
		return v.d.Intern(valueToTerm(*val, v.tmpl))
	}
	if id := v.ids[ord].Load(); id != 0 {
		return dict.ID(id)
	}
	id := v.d.Intern(valueToTerm(*val, v.tmpl))
	v.ids[ord].Store(uint64(id))
	return id
}

// cellViews holds one cell-ID view per table column, IRI template and
// dictionary, created on the column's first miss.
type cellViews struct {
	mu sync.Mutex
	m  map[cellKey]*cellIDs
}

type cellKey struct {
	t    *rdb.Table
	col  int
	tmpl string
	d    *dict.Dict
}

func (vs *cellViews) get(k cellKey) *cellIDs {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v := vs.m[k]
	if v == nil {
		if vs.m == nil {
			vs.m = make(map[cellKey]*cellIDs)
		}
		v = &cellIDs{d: k.d, tmpl: k.tmpl, ids: make([]atomic.Uint64, k.t.RowCount())}
		vs.m[k] = v
	}
	return v
}

// sqlColDecoder decodes SQL result rows straight into interned ID rows —
// the relational wrapper's native columnar boundary. No sparql.Binding is
// materialized per row and no Value is copied: each projected column
// resolves to a schema position and a cell-ID view once, and each cell is
// read by its row ordinal.
type sqlColDecoder struct {
	rows *rdb.Rows
	// template carries the IDs fixed for every row: the translation's
	// constant bindings.
	template []dict.ID
	cols     []sqlDecoderCol
}

type sqlDecoderCol struct {
	// pos is the schema position the decoded value lands in; -1 when the
	// variable is outside the schema (the column is then only
	// NULL-checked).
	pos  int
	view *cellIDs
}

// newSQLColDecoder builds the decoder of a translation's rows.
func newSQLColDecoder(tl *translation, rows *rdb.Rows, schema *engine.Schema, d *dict.Dict, views *cellViews) *sqlColDecoder {
	dec := &sqlColDecoder{rows: rows, template: make([]dict.ID, len(schema.Vars))}
	dec.cols = make([]sqlDecoderCol, len(tl.varOrder))
	for i, v := range tl.varOrder {
		c := sqlDecoderCol{pos: schema.Pos(v)}
		if c.pos >= 0 {
			t, col := rows.Source(i)
			c.view = views.get(cellKey{t, col, tl.varCols[v].template, d})
		}
		dec.cols[i] = c
	}
	for v, t := range tl.constBindings {
		if p := schema.Pos(v); p >= 0 {
			dec.template[p] = d.Intern(t)
		}
	}
	return dec
}

// decode writes result row i's IDs over the template into ids. It returns
// false when a decoded column is NULL (the property is absent, so the row
// does not match the star).
func (dec *sqlColDecoder) decode(i int, ids []dict.ID) bool {
	for c := range dec.cols {
		if dec.rows.Value(i, c).Null {
			return false
		}
	}
	copy(ids, dec.template)
	for c, col := range dec.cols {
		if col.pos >= 0 {
			ids[col.pos] = col.view.id(dec.rows.Ord(i, c), dec.rows.Value(i, c))
		}
	}
	return true
}

// seedIDCheck is the multi-seed compatibility test over ID rows: one
// (position, ID) pair per translatable seed variable. A row matches a
// seed when every checked position is either unbound (compatible by the
// row model's rules) or equal — dictionary IDs make term equality an
// integer compare.
type seedIDCheck struct {
	pos []int
	ids []dict.ID
}

func buildSeedIDChecks(seeds engine.Seeds, schema *engine.Schema) []seedIDCheck {
	pos := schema.Positions(seeds.Vars)
	out := make([]seedIDCheck, seeds.Rows)
	for r := range out {
		c := &out[r]
		for i, id := range seeds.Row(r) {
			if pos[i] >= 0 && id != dict.Unbound {
				c.pos = append(c.pos, pos[i])
				c.ids = append(c.ids, id)
			}
		}
	}
	return out
}

func matchesAnySeedIDs(ids []dict.ID, checks []seedIDCheck) bool {
	if len(checks) == 0 {
		return true
	}
	for _, c := range checks {
		ok := true
		for i, p := range c.pos {
			if id := ids[p]; id != dict.Unbound && id != c.ids[i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ExecuteColumnar implements Wrapper: the request is translated to SQL,
// its seeds pushed down, and the result rows are decoded straight into
// dictionary IDs (sqlColDecoder), unpushable filters included (see fill).
// Only the naive multi-star translation decodes rows into bindings and
// interns at the boundary.
//
// The decoded response is built as a respEntry and streamed from it, so a
// repeated request — the engine's response cache hits on the request's
// content fingerprint, schema order and seed IDs — skips translation, SQL
// execution and decoding entirely and replays the remembered ID rows
// under the live network simulation.
func (w *SQLWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	if len(req.Stars) == 0 {
		return nil, fmt.Errorf("wrapper %s: empty request", w.src.ID)
	}
	if w.mode == TranslationNaive && len(req.Stars) > 1 && !req.Block {
		// Uncached: the path exists to reproduce the paper's unoptimized
		// behaviour, one latency sample per intermediate star row. Multi-seed
		// block requests always use the single-query translation — the whole
		// point of the block is one pushed-down query per block.
		e, err := w.executeNaive(req, schema, d)
		if err != nil {
			return nil, err
		}
		return e.stream(ctx, nil, true, schema, w.batch), nil
	}
	gen := w.src.DB.Gen()
	var key respKey
	if w.cache != nil {
		key = respKeyFor(w.src.ID, uint8(w.mode), req, schema)
		if e := w.cache.lookup(key, req, schema, gen); e != nil {
			w.replayedSQL(req, d)
			return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
		}
	}
	e, err := w.columnarEntry(req, schema, d)
	if err != nil {
		return nil, err
	}
	e.gen = gen
	if w.cache != nil {
		w.cache.store(key, req, schema, e)
	}
	return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}

// columnarEntry translates, executes and decodes a request into a
// response entry. A provably empty request runs no SQL and answers no
// rows.
func (w *SQLWrapper) columnarEntry(req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	w.resetSQL()
	tl, err := req.translate(w.src, d)
	switch {
	case err != nil:
		return nil, err
	case tl == nil:
		return newColEntry(nil, 0, len(schema.Vars)), nil
	}
	return w.fill(tl, buildSeedIDChecks(req.Seeds, schema), schema, d)
}

// fill runs the translated statement and decodes its rows into an entry
// of ID rows. A row is kept when it matches some seed of checks (by ID) —
// the pushed seed predicate compares values, which a lossy coercion can
// widen — and passes the filters the translation left to the wrapper,
// evaluated over a scratch binding of their variables filled from the
// decoded row.
func (w *SQLWrapper) fill(tl *translation, checks []seedIDCheck, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	w.recordSQL(tl.sel)
	res, err := w.src.DB.Execute(tl.sel)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.src.ID, err)
	}
	views := &w.cells
	if w.cache != nil {
		views = &w.cache.cells
	}
	dec := newSQLColDecoder(tl, res, schema, d, views)
	ev := engine.NewScratchEval(tl.localFilters, schema, d)
	stride := len(schema.Vars)
	var rows []dict.ID
	n := 0
	for i := 0; i < res.Len(); i++ {
		rows = append(rows, dec.template...)
		ids := rows[len(rows)-stride:]
		if !dec.decode(i, ids) || !matchesAnySeedIDs(ids, checks) || !ev.PassesIDs(ids) {
			rows = rows[:len(rows)-stride]
			continue
		}
		n++
	}
	return newColEntry(rows, n, stride), nil
}
