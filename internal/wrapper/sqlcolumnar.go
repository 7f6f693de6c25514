package wrapper

import (
	"context"
	"fmt"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdb"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// sqlColDecoder decodes SQL result rows straight into interned ID rows —
// the relational wrapper's native columnar boundary. No sparql.Binding is
// materialized per row: each projected column resolves to a schema
// position once, and each cell is converted to a term and interned.
type sqlColDecoder struct {
	d *dict.Dict
	// template carries the IDs fixed for every row: the translation's
	// constant bindings overlaid by the request's seed IDs (seed wins).
	template []dict.ID
	row      []dict.ID
	cols     []sqlDecoderCol
}

type sqlDecoderCol struct {
	// pos is the schema position the decoded value lands in; -1 when the
	// value is seed-overridden or outside the schema (the column is then
	// only NULL-checked).
	pos     int
	iriTmpl string
}

// newSQLColDecoder builds the decoder of a translation; seed is the
// request's seed template (seedTemplate), which becomes the decoder's.
func newSQLColDecoder(tl *translation, seed []dict.ID, schema *engine.Schema, d *dict.Dict) *sqlColDecoder {
	dec := &sqlColDecoder{d: d, template: seed, row: make([]dict.ID, len(schema.Vars))}
	dec.cols = make([]sqlDecoderCol, len(tl.varOrder))
	for i, v := range tl.varOrder {
		pos := schema.Pos(v)
		if pos >= 0 && seed[pos] != dict.Unbound {
			pos = -1
		}
		dec.cols[i] = sqlDecoderCol{pos: pos, iriTmpl: tl.varCols[v].template}
	}
	for v, t := range tl.constBindings {
		if p := schema.Pos(v); p >= 0 && seed[p] == dict.Unbound {
			seed[p] = d.Intern(t)
		}
	}
	return dec
}

// decode interns one result row; ok is false when a decoded column is
// NULL (the property is absent, so the row does not match the star). The
// returned slice is reused by the next call — consumers copy (AppendIDs
// does).
func (dec *sqlColDecoder) decode(row rdb.Row) ([]dict.ID, bool) {
	for i := range dec.cols {
		if row[i].Null {
			return nil, false
		}
	}
	ids := dec.row
	copy(ids, dec.template)
	for i, c := range dec.cols {
		if c.pos >= 0 {
			ids[c.pos] = dec.d.Intern(valueToTerm(row[i], c.iriTmpl))
		}
	}
	return ids, true
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

// blockTranslation translates a multi-seed block request and pushes the
// seed predicate into the WHERE clause; empty is true when the
// translation proves the result empty before touching the database.
func (w *SQLWrapper) blockTranslation(req *Request, seeds []sparql.Binding) (*translation, bool, error) {
	tl, err := translateRequest(w.src, req.Stars, req.Filters)
	if err != nil {
		return nil, false, err
	}
	if tl.empty {
		return nil, true, nil
	}
	seedCond, provablyEmpty := tl.seedPredicate(seeds)
	if provablyEmpty {
		return nil, true, nil
	}
	if seedCond != nil {
		if tl.sel.Where == nil {
			tl.sel.Where = seedCond
		} else {
			tl.sel.Where = &sql.And{L: tl.sel.Where, R: seedCond}
		}
	}
	return tl, false, nil
}

// ExecuteColumnar implements Wrapper: the request is translated to SQL
// and the result rows are decoded straight into dictionary IDs
// (sqlColDecoder), unpushable filters included (see fill). Only the naive
// multi-star translation decodes rows into bindings and interns at the
// boundary.
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
		return e.stream(ctx, nil, schema, w.batch), nil
	}
	gen := w.src.DB.Gen()
	var key respKey
	if w.cache != nil {
		key = respKeyFor(w.src.ID, uint8(w.mode), req, schema)
		if e := w.cache.lookup(key, req, schema, gen); e != nil {
			w.resetSQL()
			for _, stmt := range e.sql {
				w.recordSQL(stmt)
			}
			return e.stream(ctx, w.sim, schema, w.batch), nil
		}
	}
	var (
		e   *respEntry
		err error
	)
	if req.Block {
		e, err = w.columnarBlockEntry(req, schema, d)
	} else {
		e, err = w.columnarEntry(req, schema, d)
	}
	if err != nil {
		return nil, err
	}
	e.gen = gen
	if w.cache != nil {
		w.cache.store(key, req, schema, e)
	}
	return e.stream(ctx, w.sim, schema, w.batch), nil
}

// columnarEntry translates, executes and decodes a per-answer request
// into a response entry (one latency sample per row on replay).
func (w *SQLWrapper) columnarEntry(req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	w.resetSQL()
	tl, err := translateRequest(w.src, seedStars(req, d), req.Filters)
	if err != nil {
		return nil, err
	}
	if tl.empty {
		// Provably empty before touching the database: no SQL, no rows,
		// and on replay no latency samples.
		return newColEntry(true, nil, 0, len(schema.Vars)), nil
	}
	return w.fill(true, tl, seedTemplate(req, schema), nil, schema, d)
}

// columnarBlockEntry answers a multi-seed block request natively: one
// pushed SQL query, and the response decoded as ID rows with the
// (possibly lossy) seed predicate re-checked by integer comparison. The
// response is one simulated network message, sampled on replay.
func (w *SQLWrapper) columnarBlockEntry(req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	w.resetSQL()
	tl, empty, err := w.blockTranslation(req, req.blockSeeds(d))
	if err != nil {
		return nil, err
	}
	if empty {
		// The (empty) response still crosses the network as one message.
		return newColEntry(false, nil, 0, len(schema.Vars)), nil
	}
	return w.fill(false, tl, seedTemplate(req, schema), buildSeedIDChecks(req.Seeds, schema), schema, d)
}

// fill runs the translated statement and decodes its rows into an entry
// of ID rows over the seed template. A row is kept when it matches some
// seed of checks (by ID) and passes the filters the translation left to
// the wrapper, evaluated over a scratch binding of their variables filled
// from the decoded row — constants and the per-answer seed included.
func (w *SQLWrapper) fill(perRow bool, tl *translation, template []dict.ID, checks []seedIDCheck, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	stmt := tl.sel.String()
	w.recordSQL(stmt)
	res, err := w.src.DB.QueryAST(tl.sel)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.src.ID, err)
	}
	dec := newSQLColDecoder(tl, template, schema, d)
	ev := engine.NewScratchEval(tl.localFilters, schema, d)
	var rows []dict.ID
	n := 0
	for _, row := range res.Rows {
		ids, ok := dec.decode(row)
		if !ok || !matchesAnySeedIDs(ids, checks) || !ev.PassesIDs(ids) {
			continue
		}
		rows = append(rows, ids...)
		n++
	}
	e := newColEntry(perRow, rows, n, len(schema.Vars))
	e.sql = []string{stmt}
	return e, nil
}
