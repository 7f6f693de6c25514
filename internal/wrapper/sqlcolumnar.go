package wrapper

import (
	"context"
	"fmt"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdb"
)

// sqlColDecoder decodes SQL result rows straight into interned ID rows —
// the relational wrapper's native columnar boundary. No sparql.Binding is
// materialized per row and no Value is copied: each projected column
// resolves to a schema position and an ID view once, and each cell is
// read by its row ordinal.
type sqlColDecoder struct {
	rows *rdb.Rows
	d    *dict.Dict
	// row is the decoded row in schema order. It starts as the
	// translation's constant bindings, which every row shares, and each
	// decode overwrites the projected columns' positions.
	row  []dict.ID
	cols []sqlDecoderCol
}

type sqlDecoderCol struct {
	// pos is the schema position the decoded value lands in; -1 when the
	// variable is outside the schema (the column is then only
	// NULL-checked).
	pos  int
	view idView
	tmpl string
}

// newSQLColDecoder builds the decoder of a translation's rows, reading
// the cells' IDs through the cache's views.
func newSQLColDecoder(tl *translation, rows *rdb.Rows, schema *engine.Schema, d *dict.Dict, cache *ResponseCache) *sqlColDecoder {
	dec := &sqlColDecoder{rows: rows, d: d, row: tl.template(schema, d)}
	dec.cols = make([]sqlDecoderCol, len(tl.varOrder))
	for i, v := range tl.varOrder {
		c := sqlDecoderCol{pos: schema.Pos(v), tmpl: tl.varCols[v].template}
		if c.pos >= 0 {
			t, col := rows.Source(i)
			c.view = cache.view(viewKey{t: t, col: col, tmpl: c.tmpl, d: d})
		}
		dec.cols[i] = c
	}
	return dec
}

// decode decodes result row i into dec.row. It returns false when a
// decoded column is NULL (the property is absent, so the row does not
// match the star).
func (dec *sqlColDecoder) decode(i int) bool {
	for c := range dec.cols {
		if dec.rows.Value(i, c).Null {
			return false
		}
	}
	for c, col := range dec.cols {
		if col.pos < 0 {
			continue
		}
		ord := int(dec.rows.Ord(i, c))
		id := col.view.load(ord)
		if id == dict.Unbound {
			id = dec.d.Intern(catalog.ValueTerm(*dec.rows.Value(i, c), col.tmpl))
			col.view.store(ord, id)
		}
		dec.row[col.pos] = id
	}
	return true
}

// ExecuteColumnar implements Wrapper: the request is translated to SQL,
// its seeds pushed down, and the result rows are decoded straight into
// dictionary IDs (sqlColDecoder) and kept by the row check (see fill).
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
		e, crossed, err := w.executeNaive(req, schema, d)
		if err != nil {
			return nil, err
		}
		e.crossed = crossed
		return e.stream(ctx, w.sim, true, schema, w.batch), nil
	}
	gen := w.src.DB.Gen()
	var key respKey
	if w.cache != nil {
		key = respKeyFor(w.src.ID, req, schema)
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
	rc, err := w.fill(tl, req.Seeds, schema, d)
	if err != nil {
		return nil, err
	}
	return rc.entry(), nil
}

// fill runs the translated statement and decodes its rows in schema order
// through the row check: a row is kept when it matches some seed by ID —
// the pushed seed predicate compares values, which a lossy coercion can
// widen — and passes the filters the translation left to the wrapper.
func (w *SQLWrapper) fill(tl *translation, seeds engine.Seeds, schema *engine.Schema, d *dict.Dict) (rowCheck, error) {
	w.recordSQL(tl.sel)
	res, err := w.src.DB.Execute(tl.sel)
	if err != nil {
		return rowCheck{}, fmt.Errorf("wrapper %s: %w", w.src.ID, err)
	}
	dec := newSQLColDecoder(tl, res, schema, d, w.cache)
	rc := newRowCheck(seeds, tl.localFilters, schema, schema, d)
	for i := 0; i < res.Len(); i++ {
		if dec.decode(i) {
			rc.add(dec.row)
		}
	}
	return rc, nil
}
