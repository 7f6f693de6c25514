package engine

import (
	"ontario/internal/dict"
	"ontario/internal/sparql"
)

// Schema is the fixed variable layout of a columnar exchange: the plan
// derives one per operator from the node's output variables, and every
// batch flowing through that operator carries its columns in exactly this
// order. Operators resolve variable names to column positions once, at
// construction time — the per-row hot path indexes columns by position
// and never touches a variable name again.
type Schema struct {
	Vars []string
	pos  map[string]int
}

// NewSchema returns a schema over vars (in order).
func NewSchema(vars []string) *Schema {
	s := &Schema{Vars: vars, pos: make(map[string]int, len(vars))}
	for i, v := range vars {
		s.pos[v] = i
	}
	return s
}

// Pos returns the column position of v, or -1 when the schema does not
// carry it.
func (s *Schema) Pos(v string) int {
	if i, ok := s.pos[v]; ok {
		return i
	}
	return -1
}

// Positions resolves a variable list to column positions (-1 for
// variables the schema does not carry).
func (s *Schema) Positions(vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = s.Pos(v)
	}
	return out
}

// ColBatch is one columnar exchange batch: Len solution rows laid out as
// one dictionary-ID column per schema variable. dict.Unbound marks an
// absent value (OPTIONAL leaves columns partially bound), so presence is
// read off the IDs themselves.
//
// Len is explicit rather than derived from a column length because a
// schema may be empty (a cross-product input binding nothing) while the
// batch still carries rows.
type ColBatch struct {
	Schema *Schema
	Len    int
	Cols   [][]dict.ID
}

// Binding materializes row r as a solution mapping, resolving IDs
// through d; unbound columns are omitted, like a row-model binding.
func (b *ColBatch) Binding(r int, d *dict.Dict) sparql.Binding {
	out := make(sparql.Binding, len(b.Schema.Vars))
	for c, col := range b.Cols {
		if id := col[r]; id != dict.Unbound {
			out[b.Schema.Vars[c]] = d.MustLookup(id)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed mixer for
// combining column IDs into a row hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashRowKey combines the IDs of row's key columns (given as column
// positions; -1 contributes Unbound) into the exchange's row hash: the
// bucket hash of the symmetric hash join and the partition hash of the
// distributed shuffle.
func HashRowKey(b *ColBatch, row int, cols []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range cols {
		id := dict.Unbound
		if c >= 0 {
			id = b.Cols[c][row]
		}
		h = mix64(h ^ uint64(id))
	}
	return h
}

// Seeds is a bind join's instantiation of its right side in dictionary-ID
// form: Vars names the join variables and IDs holds Rows seeds of
// len(Vars) IDs each, row-major, dict.Unbound where a seed leaves a
// variable unbound. Rows is explicit because the seeds of a cross product
// bind no variable at all. A request replayed from the response cache
// hashes and compares these integers and never sees a term; only a
// request that evaluates its source materializes them (Bindings).
type Seeds struct {
	Vars []string
	IDs  []dict.ID
	Rows int
}

// Row returns seed i's IDs in Vars order.
func (s Seeds) Row(i int) []dict.ID {
	return s.IDs[i*len(s.Vars) : (i+1)*len(s.Vars)]
}

// Bindings materializes the seeds as row-model bindings through d,
// omitting unbound variables.
func (s Seeds) Bindings(d *dict.Dict) []sparql.Binding {
	out := make([]sparql.Binding, s.Rows)
	for i := range out {
		b := make(sparql.Binding, len(s.Vars))
		for c, id := range s.Row(i) {
			if id != dict.Unbound {
				b[s.Vars[c]] = d.MustLookup(id)
			}
		}
		out[i] = b
	}
	return out
}

// ColBuilder accumulates rows into a ColBatch, one row at a time, for the
// producers that really work a row at a time: a bind-join block spanning
// two left batches, and the cluster shuffle's partition builders. Operators
// that assemble rows from their inputs gather row indices instead and
// build each batch at its exact size (cEmitter, gather). Take hands the
// finished batch over and resets the builder for the next one. Columns
// are made on a builder's first row, so a builder that is done (taken and
// never appended to again) holds and allocates nothing.
type ColBuilder struct {
	schema *Schema
	cols   [][]dict.ID // nil until the first row after creation or Take
	rows   int
	// hint is the expected batch size; alloc seeds each column with a
	// small initial block when it is set (see colBuilderInitCap).
	hint int
}

// NewColBuilder returns an empty builder over the schema.
func NewColBuilder(schema *Schema) *ColBuilder {
	return NewColBuilderCap(schema, 0)
}

// colBuilderInitCap caps the up-front per-column allocation. Most streams
// carry far fewer rows than the exchange batch size (a bind-join request
// answers a handful of rows for its block of seeds), so committing the full batch capacity
// per column per builder costs more allocation and GC work than it saves;
// the builder starts at one small block and append growth reaches the
// full batch capacity only for the streams that actually fill it.
const colBuilderInitCap = 16

// NewColBuilderCap returns an empty builder sized for batches of capacity
// rows (0 means grow from empty). The capacity is a hint: columns start
// at a small initial block (see colBuilderInitCap) and grow on demand.
func NewColBuilderCap(schema *Schema, capacity int) *ColBuilder {
	return &ColBuilder{schema: schema, hint: capacity}
}

// alloc starts fresh column slices at the clamped capacity hint.
func (b *ColBuilder) alloc() {
	b.cols = make([][]dict.ID, len(b.schema.Vars))
	if h := b.hint; h > 0 {
		if h > colBuilderInitCap {
			h = colBuilderInitCap
		}
		for c := range b.cols {
			b.cols[c] = make([]dict.ID, 0, h)
		}
	}
}

// Rows returns the number of buffered rows.
func (b *ColBuilder) Rows() int { return b.rows }

// growRow appends one all-unbound row to every column, returning its
// index; callers then overwrite the bound positions.
func (b *ColBuilder) growRow() int {
	if b.cols == nil {
		b.alloc()
	}
	r := b.rows
	b.rows++
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], dict.Unbound)
	}
	return r
}

// AppendRow appends row src of batch from, mapped into this builder's
// schema: mapping[c] is the source column feeding output column c, or -1
// for an output column the source does not carry (left unbound).
func (b *ColBuilder) AppendRow(from *ColBatch, src int, mapping []int) {
	r := b.growRow()
	for c, fc := range mapping {
		if fc >= 0 {
			b.cols[c][r] = from.Cols[fc][src]
		}
	}
}

// Take returns the accumulated batch and resets the builder: the
// returned batch owns its columns, and the builder makes fresh ones on
// its next row.
func (b *ColBuilder) Take() *ColBatch {
	if b.cols == nil {
		b.alloc() // an empty batch still carries one column per variable
	}
	out := &ColBatch{Schema: b.schema, Len: b.rows, Cols: b.cols}
	b.cols = nil
	b.rows = 0
	return out
}

// View returns the buffered rows as a batch over the builder's own
// columns, valid only until the builder's next append or Reset. It is for
// a consumer that copies the rows out before it returns (the cluster
// encoder); such a builder then calls Reset and refills the same columns.
// A view must never be sent on a CStream.
func (b *ColBuilder) View() *ColBatch {
	return &ColBatch{Schema: b.schema, Len: b.rows, Cols: b.cols}
}

// Reset drops the buffered rows, keeping the columns' storage for reuse.
func (b *ColBuilder) Reset() {
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
	b.rows = 0
}

// DecodeBatch materializes a columnar batch back into row-model bindings
// through d (late materialization: only the consumers that truly need
// terms — the public cursor, filter expressions, ORDER BY keys — pay it).
func DecodeBatch(b *ColBatch, d *dict.Dict) []sparql.Binding {
	out := make([]sparql.Binding, b.Len)
	for r := 0; r < b.Len; r++ {
		out[r] = b.Binding(r, d)
	}
	return out
}
