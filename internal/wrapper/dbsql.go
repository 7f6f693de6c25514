package wrapper

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/trace"
)

// DBSQLWrapper answers star queries against a live relational database
// through database/sql, reusing the SPARQL-to-SQL translation: the
// catalog source carries the schema in its (row-less) rdb database for
// the translation to plan against, and the generated SQL text executes on
// the wrapped connection. Requests run under the shared resilience layer;
// rows are fully materialized per attempt so retries never replay a
// half-read result set.
type DBSQLWrapper struct {
	src    *catalog.Source
	health *HealthRegistry
	sim    *netsim.Simulator
	batch  int
}

// NewDBSQLWrapper wraps a ModelSQLDatabase source. health must be
// non-nil; sim may carry a message-accounting simulator; batch <= 0 means
// the engine default.
func NewDBSQLWrapper(src *catalog.Source, health *HealthRegistry, sim *netsim.Simulator, batch int) *DBSQLWrapper {
	return &DBSQLWrapper{src: src, health: health, sim: sim, batch: batch}
}

// SourceID implements Wrapper.
func (w *DBSQLWrapper) SourceID() string { return w.src.ID }

// ExecuteColumnar implements Wrapper.
func (w *DBSQLWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	if len(req.Stars) == 0 {
		return nil, fmt.Errorf("wrapper %s: empty request", w.src.ID)
	}
	e, err := w.entry(ctx, req, schema, d)
	if err != nil {
		return nil, err
	}
	return e.stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}

// entry translates the request with its seeds pushed down, runs it on the
// live connection and interns the rows at the boundary, through the row
// check; a request the translation proves empty answers no rows without
// touching the database.
func (w *DBSQLWrapper) entry(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*respEntry, error) {
	tl, err := req.translate(w.src, d)
	if err != nil {
		return nil, err
	}
	if tl == nil {
		return newColEntry(nil, 0, len(schema.Vars)), nil
	}
	rows, err := w.query(ctx, tl)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.src.ID, err)
	}
	rc := newRowCheck(req.Seeds, tl.localFilters, schema, schema, d)
	row := tl.template(schema, d)
	pos := schema.Positions(tl.varOrder)
	for _, r := range rows {
		if slices.ContainsFunc(r, func(v rdb.Value) bool { return v.Null }) {
			continue // the property is absent: the row does not match
		}
		for i, v := range tl.varOrder {
			if pos[i] >= 0 {
				row[pos[i]] = d.Intern(catalog.ValueTerm(r[i], tl.varCols[v].template))
			}
		}
		rc.add(row)
	}
	return rc.entry(), nil
}

// query runs the translated SELECT on the live connection under the
// resilience policy and materializes the rows in translation column order.
// Each call is one hop in the query trace (a database hop has no
// traceparent to forward, but its attempts, breaker state, latency and
// error belong in the federation tree).
func (w *DBSQLWrapper) query(ctx context.Context, tl *translation) ([]rdb.Row, error) {
	stmt := tl.sel.String()
	var out []rdb.Row
	err := w.health.Hop(ctx, w.src.ID, func(actx context.Context, _ *trace.RemoteSpan) error {
		rows, err := w.src.SQLDB.QueryContext(actx, stmt)
		if err != nil {
			return err
		}
		defer rows.Close()
		cols, err := rows.Columns()
		if err != nil {
			return err
		}
		if len(cols) < len(tl.varOrder) {
			return Permanent(fmt.Errorf("result has %d columns, translation expects %d", len(cols), len(tl.varOrder)))
		}
		var got []rdb.Row
		for rows.Next() {
			raw := make([]any, len(cols))
			ptrs := make([]any, len(cols))
			for i := range raw {
				ptrs[i] = &raw[i]
			}
			if err := rows.Scan(ptrs...); err != nil {
				return err
			}
			row := make(rdb.Row, len(tl.varOrder))
			for i, v := range tl.varOrder {
				val, cerr := sqlValueToRDB(raw[i], tl.varCols[v].typ)
				if cerr != nil {
					return Permanent(fmt.Errorf("column %s: %w", cols[i], cerr))
				}
				row[i] = val
			}
			got = append(got, row)
		}
		if err := rows.Err(); err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}

// sqlValueToRDB converts one driver value into the rdb value of the
// declared column type.
func sqlValueToRDB(v any, typ rdb.Type) (rdb.Value, error) {
	if v == nil {
		return rdb.NullValue(typ), nil
	}
	if b, ok := v.([]byte); ok {
		v = string(b)
	}
	switch typ {
	case rdb.TypeInt:
		switch x := v.(type) {
		case int64:
			return rdb.IntValue(x), nil
		case float64:
			return rdb.IntValue(int64(x)), nil
		case string:
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return rdb.Value{}, fmt.Errorf("cannot read %q as integer", x)
			}
			return rdb.IntValue(n), nil
		}
	case rdb.TypeFloat:
		switch x := v.(type) {
		case float64:
			return rdb.FloatValue(x), nil
		case int64:
			return rdb.FloatValue(float64(x)), nil
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return rdb.Value{}, fmt.Errorf("cannot read %q as double", x)
			}
			return rdb.FloatValue(f), nil
		}
	case rdb.TypeString:
		switch x := v.(type) {
		case string:
			return rdb.StringValue(x), nil
		case int64:
			return rdb.StringValue(strconv.FormatInt(x, 10)), nil
		case float64:
			return rdb.StringValue(strconv.FormatFloat(x, 'g', -1, 64)), nil
		case bool:
			return rdb.StringValue(strconv.FormatBool(x)), nil
		}
	case rdb.TypeBool:
		switch x := v.(type) {
		case bool:
			return rdb.BoolValue(x), nil
		case int64:
			return rdb.BoolValue(x != 0), nil
		case string:
			b, err := strconv.ParseBool(x)
			if err != nil {
				return rdb.Value{}, fmt.Errorf("cannot read %q as boolean", x)
			}
			return rdb.BoolValue(b), nil
		}
	}
	return rdb.Value{}, fmt.Errorf("unsupported driver value %T for %s column", v, typ)
}
