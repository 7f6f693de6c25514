package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/rdf"
	"ontario/internal/wirefmt"
)

// buildBatch interns the given terms into d and packs them as one batch;
// a nil term leaves the cell unbound (the OPTIONAL case).
func buildBatch(t testing.TB, d *dict.Dict, schema *engine.Schema, rows [][]*rdf.Term) *engine.ColBatch {
	t.Helper()
	b := &engine.ColBatch{Schema: schema, Len: len(rows), Cols: make([][]dict.ID, len(schema.Vars))}
	for c := range b.Cols {
		b.Cols[c] = make([]dict.ID, len(rows))
	}
	for r, row := range rows {
		if len(row) != len(schema.Vars) {
			t.Fatalf("row has %d cells, schema %d", len(row), len(schema.Vars))
		}
		for c, cell := range row {
			if cell != nil {
				b.Cols[c][r] = d.Intern(*cell)
			}
		}
	}
	return b
}

func term(t rdf.Term) *rdf.Term { return &t }

// testRows mixes IRIs, plain/typed/lang literals, blanks and unbound
// cells across enough rows to cross a bitmap byte boundary.
func testRows() [][]*rdf.Term {
	rows := [][]*rdf.Term{
		{term(rdf.NewIRI("http://ex/s1")), term(rdf.NewLiteral("plain")), nil},
		{term(rdf.NewIRI("http://ex/s2")), nil, term(rdf.Term{Kind: rdf.TermLiteral, Value: "42", Datatype: "http://www.w3.org/2001/XMLSchema#integer"})},
		{term(rdf.Term{Kind: rdf.TermBlank, Value: "b0"}), term(rdf.Term{Kind: rdf.TermLiteral, Value: "hi", Lang: "en"}), nil},
		{nil, nil, nil},
	}
	// Push past 8 rows so the presence bitmap spans two bytes.
	for i := 0; i < 7; i++ {
		rows = append(rows, [][]*rdf.Term{{term(rdf.NewIRI("http://ex/s1")), nil, term(rdf.NewLiteral("dup"))}}[0])
	}
	return rows
}

// sideLookup resolves batch schemas by side only, for tests exercising
// the codec on a single stream.
func sideLookup(schemas map[byte]*engine.Schema) SchemaLookup {
	return func(stream uint64, side byte) *engine.Schema { return schemas[side] }
}

// decodeAll runs a decoder over an encoded stream until EOF or failure.
func decodeAll(t *testing.T, raw []byte, d *dict.Dict, schemas map[byte]*engine.Schema) ([]Frame, error) {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(raw), d)
	dec.SetLookup(sideLookup(schemas))
	var frames []Frame
	for {
		f, err := dec.Next()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"s", "name", "age"})
	rows := testRows()
	batch := buildBatch(t, sender, schema, rows)

	var buf bytes.Buffer
	enc := NewEncoder(&buf, sender)
	if err := enc.Batch(7, SideOut, batch); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := enc.Done(7, SideOut); err != nil {
		t.Fatalf("done: %v", err)
	}

	// The receiver's dictionary is independently populated, so the
	// sender's IDs cannot be valid verbatim — decoding must remap through
	// the delta sideband.
	receiver := dict.New()
	for i := 0; i < 5; i++ {
		receiver.Intern(rdf.NewIRI("http://elsewhere/skew"))
	}
	frames, err := decodeAll(t, buf.Bytes(), receiver, map[byte]*engine.Schema{SideOut: schema})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(frames) != 2 || frames[0].Type != frameBatch || frames[1].Type != frameDone {
		t.Fatalf("got %d frames, want batch+done", len(frames))
	}
	if frames[0].Stream != 7 || frames[1].Stream != 7 {
		t.Fatalf("stream IDs %d/%d survived the wire wrong, want 7", frames[0].Stream, frames[1].Stream)
	}
	got := frames[0].Batch
	if got.Len != len(rows) {
		t.Fatalf("decoded %d rows, want %d", got.Len, len(rows))
	}
	for r, row := range rows {
		for c, want := range row {
			id := got.Cols[c][r]
			if want == nil {
				if id != dict.Unbound {
					t.Fatalf("row %d col %d: want unbound, got ID %d", r, c, id)
				}
				continue
			}
			if id == dict.Unbound {
				t.Fatalf("row %d col %d: want bound, got unbound", r, c)
			}
			if have := receiver.MustLookup(id); have != *want {
				t.Fatalf("row %d col %d: decoded %+v, want %+v", r, c, have, *want)
			}
		}
	}
}

// TestWireDictionaryDeltaShipsOncePerLink sends the same terms on two
// different streams of one link: the delta must ship with the first
// batch only — remap state is link-lifetime, not per-task.
func TestWireDictionaryDeltaShipsOncePerLink(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"x"})
	mk := func(vals ...string) *engine.ColBatch {
		col := make([]dict.ID, len(vals))
		for r, v := range vals {
			col[r] = sender.Intern(rdf.NewIRI(v))
		}
		return &engine.ColBatch{Schema: schema, Len: len(vals), Cols: [][]dict.ID{col}}
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf, sender)
	if err := enc.Batch(1, SideLeft, mk("http://ex/a", "http://ex/b")); err != nil {
		t.Fatal(err)
	}
	firstLen := buf.Len()
	firstDelta := enc.DeltaBytes()
	if firstDelta == 0 {
		t.Fatal("first batch shipped no delta bytes")
	}
	// Same terms on a different stream: no new delta records, so the
	// second frame must be strictly smaller than the first.
	if err := enc.Batch(2, SideLeft, mk("http://ex/a", "http://ex/b")); err != nil {
		t.Fatal(err)
	}
	if secondLen := buf.Len() - firstLen; secondLen >= firstLen {
		t.Fatalf("second batch (%dB) did not shrink vs first (%dB): deltas re-shipped", secondLen, firstLen)
	}
	if d := enc.DeltaBytes() - firstDelta; d > 1 { // the empty-delta count byte is not delta payload
		t.Fatalf("second batch shipped %d delta bytes, want ~0", d)
	}
	if enc.SentTerms() != 2 {
		t.Fatalf("SentTerms = %d, want 2", enc.SentTerms())
	}

	receiver := dict.New()
	frames, err := decodeAll(t, buf.Bytes(), receiver, map[byte]*engine.Schema{SideLeft: schema})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	// Both batches resolve to the same local IDs through the remap table.
	for f := range frames {
		for r := 0; r < 2; r++ {
			if frames[f].Batch.Cols[0][r] != frames[0].Batch.Cols[0][r] {
				t.Fatalf("batch %d row %d: remapped ID differs across batches", f, r)
			}
		}
	}
}

// TestWireInterleavedStreams drives two tasks' frames through one link in
// interleaved order: the decoder must route each batch to its stream's
// schema and keep one shared remap table underneath.
func TestWireInterleavedStreams(t *testing.T) {
	sender := dict.New()
	schemaA := engine.NewSchema([]string{"x"})
	schemaB := engine.NewSchema([]string{"y", "z"})
	shared := term(rdf.NewIRI("http://ex/shared"))
	a1 := buildBatch(t, sender, schemaA, [][]*rdf.Term{{shared}})
	b1 := buildBatch(t, sender, schemaB, [][]*rdf.Term{{shared, term(rdf.NewLiteral("v"))}})
	a2 := buildBatch(t, sender, schemaA, [][]*rdf.Term{{term(rdf.NewIRI("http://ex/a2"))}})

	var buf bytes.Buffer
	enc := NewEncoder(&buf, sender)
	for _, step := range []func() error{
		func() error { return enc.Batch(1, SideOut, a1) },
		func() error { return enc.Batch(2, SideOut, b1) },
		func() error { return enc.Batch(1, SideOut, a2) },
		func() error { return enc.Done(1, SideOut) },
		func() error { return enc.Cancel(9) },
		func() error { return enc.Done(2, SideOut) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	receiver := dict.New()
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), receiver)
	dec.SetLookup(func(stream uint64, side byte) *engine.Schema {
		switch stream {
		case 1:
			return schemaA
		case 2:
			return schemaB
		}
		return nil
	})
	var frames []Frame
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		frames = append(frames, f)
	}
	if len(frames) != 6 {
		t.Fatalf("got %d frames, want 6", len(frames))
	}
	wantStreams := []uint64{1, 2, 1, 1, 9, 2}
	wantTypes := []byte{frameBatch, frameBatch, frameBatch, frameDone, frameCancel, frameDone}
	for i, f := range frames {
		if f.Stream != wantStreams[i] || f.Type != wantTypes[i] {
			t.Fatalf("frame %d: stream %d type 0x%02x, want stream %d type 0x%02x",
				i, f.Stream, f.Type, wantStreams[i], wantTypes[i])
		}
	}
	if got := len(frames[0].Batch.Cols); got != 1 {
		t.Fatalf("stream 1 batch decoded %d cols, want 1", got)
	}
	if got := len(frames[1].Batch.Cols); got != 2 {
		t.Fatalf("stream 2 batch decoded %d cols, want 2", got)
	}
	// The shared term crossed the link once and resolves to one local ID
	// from both streams.
	if frames[0].Batch.Cols[0][0] != frames[1].Batch.Cols[0][0] {
		t.Fatal("shared term remapped differently across streams")
	}
	if dec.RemapEntries() != 3 {
		t.Fatalf("remap entries = %d, want 3 (shared, v, a2)", dec.RemapEntries())
	}
}

// TestWireSchemalessStreamInternsDeltas covers the late-batch case: a
// batch for a stream nobody recognizes is dropped, but its dictionary
// deltas still intern — they are link state, and later streams' bare IDs
// depend on them.
func TestWireSchemalessStreamInternsDeltas(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"x"})
	b1 := buildBatch(t, sender, schema, [][]*rdf.Term{{term(rdf.NewIRI("http://ex/a"))}})
	b2 := buildBatch(t, sender, schema, [][]*rdf.Term{{term(rdf.NewIRI("http://ex/a"))}})

	var buf bytes.Buffer
	enc := NewEncoder(&buf, sender)
	if err := enc.Batch(1, SideOut, b1); err != nil { // stream 1: dropped
		t.Fatal(err)
	}
	if err := enc.Batch(2, SideOut, b2); err != nil { // stream 2: bare ID only
		t.Fatal(err)
	}

	receiver := dict.New()
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), receiver)
	dec.SetLookup(func(stream uint64, side byte) *engine.Schema {
		if stream == 2 {
			return schema
		}
		return nil
	})
	f1, err := dec.Next()
	if err != nil {
		t.Fatalf("decode dropped batch: %v", err)
	}
	if f1.Batch != nil {
		t.Fatal("schema-less stream produced a batch")
	}
	f2, err := dec.Next()
	if err != nil {
		t.Fatalf("decode second batch: %v", err)
	}
	if f2.Batch == nil {
		t.Fatal("stream 2 batch dropped")
	}
	if got := receiver.MustLookup(f2.Batch.Cols[0][0]); got != rdf.NewIRI("http://ex/a") {
		t.Fatalf("bare ID resolved to %+v: delta from dropped batch was not interned", got)
	}
}

func TestWireRejectsCorruptInput(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"x", "y"})
	batch := buildBatch(t, sender, schema, [][]*rdf.Term{
		{term(rdf.NewIRI("http://ex/a")), term(rdf.NewLiteral("v"))},
	})
	var valid bytes.Buffer
	enc := NewEncoder(&valid, sender)
	if err := enc.Batch(1, SideOut, batch); err != nil {
		t.Fatal(err)
	}

	isCorrupt := func(err error) bool {
		var ce errCorrupt
		return errors.As(err, &ce)
	}

	t.Run("truncated", func(t *testing.T) {
		raw := valid.Bytes()
		for cut := 1; cut < len(raw); cut++ {
			_, err := decodeAll(t, raw[:cut], dict.New(), map[byte]*engine.Schema{SideOut: schema})
			if err == nil {
				t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(raw))
			}
		}
	})

	t.Run("unknown frame type", func(t *testing.T) {
		_, err := decodeAll(t, []byte{0x7f, 0x00, 0x00}, dict.New(), nil)
		if !isCorrupt(err) {
			t.Fatalf("want corrupt-frame error, got %v", err)
		}
	})

	t.Run("bad side", func(t *testing.T) {
		raw := append([]byte(nil), valid.Bytes()...)
		// Frame layout: type at 0, single-byte uvarint stream ID at 1,
		// single-byte uvarint length at 2 (the payload is well under 128
		// bytes), side byte at 3.
		raw[3] = 9
		_, err := decodeAll(t, raw, dict.New(), map[byte]*engine.Schema{SideOut: schema})
		if err == nil {
			t.Fatal("corrupted side byte decoded cleanly")
		}
	})

	// Hand-built one-row batches whose cells carry wire IDs the link has
	// not defined: each must be rejected, and the decoder's remap table
	// may grow only by the deltas the input carries, never to a
	// peer-chosen size.
	for _, tc := range []struct {
		name   string
		deltas int
		ids    [2]uint64
	}{
		{"unknown dictionary ID", 0, [2]uint64{1, 2}},
		{"wire ID 0", 2, [2]uint64{0, 1}},
		{"wire ID one past the last delta", 2, [2]uint64{1, 3}},
		{"wire ID 1<<62", 1, [2]uint64{1, 1 << 62}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := []byte{SideOut}
			payload = binary.AppendUvarint(payload, uint64(tc.deltas))
			for i := 0; i < tc.deltas; i++ {
				payload = wirefmt.AppendTerm(payload, rdf.NewIRI(fmt.Sprintf("http://ex/d%d", i)))
			}
			payload = binary.AppendUvarint(payload, 1) // rows
			payload = binary.AppendUvarint(payload, 2) // cols
			for _, id := range tc.ids {
				payload = append(payload, 0x01) // presence bitmap: row 0 bound
				payload = binary.AppendUvarint(payload, id)
			}
			dec := NewDecoder(bytes.NewReader(batchFrame(t, 1, payload)), dict.New())
			dec.SetLookup(sideLookup(map[byte]*engine.Schema{SideOut: schema}))
			if _, err := dec.Next(); !isCorrupt(err) {
				t.Fatalf("want corrupt-frame error for undefined wire ID, got %v", err)
			}
			if got := len(dec.remap); got != 1+tc.deltas {
				t.Fatalf("remap table has %d entries after %d deltas, want %d", got, tc.deltas, 1+tc.deltas)
			}
		})
	}

	t.Run("trailing garbage in batch", func(t *testing.T) {
		raw := append([]byte(nil), valid.Bytes()...)
		// Grow the declared payload length and append junk bytes. The
		// frame here is small, so its length is a single-byte uvarint at
		// offset 2 (after the type and stream bytes).
		raw[2] += 2
		raw = append(raw, 0xff, 0xff)
		_, err := decodeAll(t, raw, dict.New(), map[byte]*engine.Schema{SideOut: schema})
		if !isCorrupt(err) {
			t.Fatalf("want corrupt-frame error for trailing bytes, got %v", err)
		}
	})

	t.Run("oversized row count", func(t *testing.T) {
		var payload []byte
		payload = append(payload, SideOut)
		payload = binary.AppendUvarint(payload, 0)               // no deltas
		payload = binary.AppendUvarint(payload, uint64(1<<20)+1) // rows over the wire limit
		payload = binary.AppendUvarint(payload, 2)               // cols
		_, derr := decodeAll(t, batchFrame(t, 1, payload), dict.New(), map[byte]*engine.Schema{SideOut: schema})
		if !isCorrupt(derr) {
			t.Fatalf("want corrupt-frame error for oversized rows, got %v", derr)
		}
	})
}

// batchFrame frames a hand-built batch payload for the given stream.
func batchFrame(t *testing.T, stream uint64, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf, dict.New())
	e.mu.Lock()
	err := e.writeFrameLocked(frameBatch, stream, payload)
	e.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireEncoderRunsOutOfWireIDs pins the no-wrap rule: a batch that
// would need a wire ID past the last one fails, leaves the link's
// numbering as it was, and a batch that still fits goes through.
func TestWireEncoderRunsOutOfWireIDs(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"x", "y"})
	two := buildBatch(t, sender, schema, [][]*rdf.Term{
		{term(rdf.NewIRI("http://ex/a")), term(rdf.NewIRI("http://ex/b"))},
	})
	var buf bytes.Buffer
	enc := NewEncoder(&buf, sender)
	enc.sent = math.MaxUint32 - 1 // one wire ID left
	if err := enc.Batch(1, SideOut, two); err == nil {
		t.Fatal("batch needing two wire IDs with one left succeeded")
	}
	if buf.Len() != 0 || enc.SentTerms() != math.MaxUint32-1 {
		t.Fatalf("failed batch wrote %d bytes and left %d terms shipped", buf.Len(), enc.SentTerms())
	}
	one := &engine.ColBatch{Schema: engine.NewSchema([]string{"x"}), Len: 1, Cols: [][]dict.ID{{two.Cols[1][0]}}}
	if err := enc.Batch(1, SideOut, one); err != nil {
		t.Fatalf("batch needing the last wire ID: %v", err)
	}
	if w := enc.wire[two.Cols[1][0]]; w != math.MaxUint32 {
		t.Fatalf("last term got wire ID %d, want %d", w, uint32(math.MaxUint32))
	}
	if w := enc.wire[two.Cols[0][0]]; w != 0 {
		t.Fatalf("term of the failed batch kept wire ID %d", w)
	}
}

// TestWireEncodeSteadyStateAllocs guards the codec hot path: once a
// term's delta has shipped, encoding further batches of known terms must
// not allocate — scratch buffers come from the pool and the wire-ID table
// stays warm.
func TestWireEncodeSteadyStateAllocs(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"s", "name", "age"})
	batch := buildBatch(t, sender, schema, testRows())
	enc := NewEncoder(io.Discard, sender)
	if err := enc.Batch(1, SideLeft, batch); err != nil { // warm-up ships deltas
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := enc.Batch(1, SideLeft, batch); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state encode allocates %.1f objects per batch, want 0", avg)
	}
}

// TestWireDecodeSteadyStateAllocs is the decoder's side of the guard:
// once a link's deltas have interned, decoding a batch of known terms
// allocates only the ColBatch, its column directory and its columns.
func TestWireDecodeSteadyStateAllocs(t *testing.T) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"s", "name", "age"})
	batch := buildBatch(t, sender, schema, testRows())
	var warm, steady bytes.Buffer
	enc := NewEncoder(io.MultiWriter(&warm, &steady), sender)
	if err := enc.Batch(1, SideOut, batch); err != nil {
		t.Fatal(err)
	}
	steady.Reset()
	if err := enc.Batch(1, SideOut, batch); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(warm.Bytes()), dict.New())
	dec.SetLookup(sideLookup(map[byte]*engine.Schema{SideOut: schema}))
	if _, err := dec.Next(); err != nil { // intern the deltas once
		t.Fatal(err)
	}
	var r bytes.Reader
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(steady.Bytes())
		dec.r.Reset(&r)
		if f, err := dec.Next(); err != nil || f.Batch == nil {
			t.Fatalf("decode: %v", err)
		}
	})
	if limit := float64(len(schema.Vars) + 2); avg > limit {
		t.Fatalf("steady-state decode allocates %.1f objects per batch, want <= %.0f", avg, limit)
	}
}

// BenchmarkWireBatch is one link's steady state both ways: encode a
// 64-row × 4-column batch of already-shipped terms, then decode it.
func BenchmarkWireBatch(b *testing.B) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"a", "b", "c", "d"})
	rows := make([][]*rdf.Term, 64)
	for r := range rows {
		rows[r] = []*rdf.Term{
			term(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", r))),
			term(rdf.NewIRI(fmt.Sprintf("http://ex/p%d", r%8))),
			term(rdf.NewLiteral(fmt.Sprintf("v%d", r))),
			term(rdf.Term{Kind: rdf.TermLiteral, Value: fmt.Sprint(r), Datatype: "http://www.w3.org/2001/XMLSchema#integer"}),
		}
	}
	batch := buildBatch(b, sender, schema, rows)
	var link bytes.Buffer
	enc := NewEncoder(&link, sender)
	dec := NewDecoder(&link, dict.New())
	dec.SetLookup(sideLookup(map[byte]*engine.Schema{SideLeft: schema}))
	step := func() {
		if err := enc.Batch(1, SideLeft, batch); err != nil {
			b.Fatal(err)
		}
		if f, err := dec.Next(); err != nil || f.Batch == nil {
			b.Fatalf("decode: %v", err)
		}
	}
	step() // ship and intern the deltas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// FuzzDecode throws arbitrary bytes at the decoder: any input may be
// rejected, none may panic or hang. Seeds cover the happy path so
// mutations explore near-valid streams.
func FuzzDecode(f *testing.F) {
	sender := dict.New()
	schema := engine.NewSchema([]string{"s", "o"})
	batch := buildBatch(f, sender, schema, [][]*rdf.Term{
		{term(rdf.NewIRI("http://ex/a")), term(rdf.Term{Kind: rdf.TermLiteral, Value: "x", Lang: "en"})},
		{term(rdf.NewIRI("http://ex/b")), nil},
	})
	var seed bytes.Buffer
	enc := NewEncoder(&seed, sender)
	if err := enc.Batch(1, SideLeft, batch); err != nil {
		f.Fatal(err)
	}
	if err := enc.Batch(2, SideRight, batch); err != nil {
		f.Fatal(err)
	}
	if err := enc.Done(1, SideLeft); err != nil {
		f.Fatal(err)
	}
	if err := enc.Cancel(3); err != nil {
		f.Fatal(err)
	}
	if err := enc.Error(2, "boom"); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{frameBatch, 0x01, 0x01, 0x00})
	f.Add([]byte{frameDone, 0x01, 0x01, 0x03})
	f.Add([]byte{frameCancel, 0x09, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		d := dict.New()
		dec := NewDecoder(bytes.NewReader(raw), d)
		// Streams above 2 deliberately have no schema: fuzzed batches for
		// them must drop or reject, not crash.
		dec.SetLookup(func(stream uint64, side byte) *engine.Schema {
			if stream == 1 || stream == 2 {
				return schema
			}
			return nil
		})
		for i := 0; i < 1000; i++ {
			frame, err := dec.Next()
			// The remap table grows by one entry per delta record read,
			// so its memory is bounded by the input, not by any ID in it.
			if n := len(dec.remap) - 1; n > len(raw) {
				t.Fatalf("remap table has %d entries from %d input bytes", n, len(raw))
			}
			if err != nil {
				return
			}
			if frame.Type == frameBatch && frame.Batch != nil {
				b := frame.Batch
				if b.Len < 0 || b.Len > maxWireRows || len(b.Cols) != len(schema.Vars) {
					t.Fatalf("decoded batch out of bounds: len=%d cols=%d", b.Len, len(b.Cols))
				}
				for _, col := range b.Cols {
					for _, id := range col {
						if id != dict.Unbound {
							if tm := d.MustLookup(id); tm == (rdf.Term{}) {
								t.Fatalf("decoded ID %d not in dictionary", id)
							}
						}
					}
				}
			}
		}
	})
}
