package engine

import (
	"context"

	"ontario/internal/dict"
	"ontario/internal/sparql"
)

// CFromBindings returns a closed columnar stream delivering the given
// rows in batches of batch (<= 0 means DefaultBatchSize); the input side
// of operator tests (DecodeBatch is the output side).
func CFromBindings(ctx context.Context, rows []sparql.Binding, schema *Schema, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	out := NewCStream(schema, (len(rows)+batch-1)/batch)
	go func() {
		defer out.Close()
		for len(rows) > 0 {
			n := batch
			if n > len(rows) {
				n = len(rows)
			}
			if !out.SendBatch(ctx, EncodeBatch(rows[:n], schema, d)) {
				return
			}
			rows = rows[n:]
		}
	}()
	return out
}

// AppendBinding appends a row-model binding, interning its terms into d.
// Variables outside the schema are dropped (a batch cannot carry them).
func (b *ColBuilder) AppendBinding(bind sparql.Binding, d *dict.Dict) {
	r := b.growRow()
	for c, v := range b.schema.Vars {
		if t, ok := bind[v]; ok {
			b.cols[c][r] = d.Intern(t)
		}
	}
}

// EncodeBatch converts a row-model batch into a columnar batch over
// schema, interning every term into d.
func EncodeBatch(rows []sparql.Binding, schema *Schema, d *dict.Dict) *ColBatch {
	b := NewColBuilder(schema)
	for _, bind := range rows {
		b.AppendBinding(bind, d)
	}
	return b.Take()
}
