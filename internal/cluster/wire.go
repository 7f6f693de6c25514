// Package cluster distributes query execution across ontario-server
// processes. A coordinator parses, optimizes and caches plans exactly as
// a single node does, then executes leaf services, symmetric-hash joins
// and co-partitioned plan fragments against a pool of workers, each
// owning one hash-partition of the lake. Every coordinator keeps one
// persistent multiplexed connection per worker: frames carry a stream ID
// so concurrent tasks interleave on the link. A link numbers its terms
// 1, 2, 3, … as they first cross it: a term's lexical form crosses once
// ever, as a delta whose position is its wire ID, and both ends translate
// IDs by indexing a slice. Intermediate results cross as binary columnar
// batches: varint-framed wire-ID columns, each preceded by a wire-only
// presence bitmap so unbound cells cost one bit (in memory an unbound
// cell is dict.Unbound).
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/wirefmt"
)

// Frame types of the shuffle wire protocol. Every frame on a link is a
// type byte, a uvarint stream ID, a uvarint payload length, and the
// payload. Stream 0 is the link-control stream (the hello handshake);
// task streams are client-allocated and never reused.
const (
	frameTask   = 0x01 // binary task header; opens a stream
	frameBatch  = 0x02 // columnar batch: side byte + dict deltas + wire-ID columns
	frameDone   = 0x03 // one side byte: no more batches for that side
	frameError  = 0x04 // UTF-8 error message; aborts the stream
	frameHello  = 0x05 // JSON worker status (link handshake + probe reply)
	frameCancel = 0x06 // empty payload: abort the stream's task
)

// Stream sides within a task. A scan or fragment task only carries
// SideOut (worker to coordinator); a join task's inputs arrive as
// SideLeft/SideRight and its results leave as SideOut.
const (
	SideOut   byte = 0
	SideLeft  byte = 1
	SideRight byte = 2
)

// Wire limits. The decoder rejects any frame crossing them before
// allocating, so a truncated or corrupt stream fails fast instead of
// ballooning memory.
const (
	maxFramePayload = 64 << 20
	maxWireRows     = 1 << 20
	maxWireCols     = 1 << 12
)

// errCorrupt tags every malformed-input failure so tests (and the fuzz
// harnesses) can distinguish rejection from a crash.
type errCorrupt = wirefmt.Corrupt

func corrupt(format string, args ...any) error {
	return errCorrupt{Msg: fmt.Sprintf(format, args...)}
}

// wireBufPool recycles codec scratch buffers across links and frames, so
// steady-state encode/decode of the shuffle hot path stays allocation-
// flat no matter how many links come and go. The pool holds *[]byte (not
// []byte) so Get/Put themselves do not allocate.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

func getWireBuf(n int) *[]byte {
	bp := wireBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putWireBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	wireBufPool.Put(bp)
}

// Encoder writes frames to one end of a link. Terms cross the wire once
// per link: the first batch carrying a dictionary ID gives it the link's
// next wire ID and prepends the term as a delta record, and every
// occurrence — on any stream, for the link's whole lifetime — ships as
// the varint wire ID. wire maps local IDs, which are dense (dict.Table
// says why), to wire IDs (0: not shipped yet). An Encoder is safe for
// concurrent use: all streams multiplexed on the link share it.
type Encoder struct {
	mu    sync.Mutex
	w     *bufio.Writer
	d     *dict.Dict
	wire  []uint32
	sent  uint64 // wire IDs assigned; the last one is sent
	fresh []dict.ID
	tmp   [binary.MaxVarintLen64]byte

	batches     atomic.Int64
	bytes       atomic.Int64
	shufBatches atomic.Int64
	shufBytes   atomic.Int64
	deltaBytes  atomic.Int64
}

// NewEncoder returns an encoder over w resolving IDs through d.
func NewEncoder(w io.Writer, d *dict.Dict) *Encoder {
	return &Encoder{
		w: bufio.NewWriterSize(w, 64<<10),
		d: d,
	}
}

// Batches returns the number of batch frames written.
func (e *Encoder) Batches() int64 { return e.batches.Load() }

// Bytes returns the total bytes written, framing included.
func (e *Encoder) Bytes() int64 { return e.bytes.Load() }

// ShuffledBatches returns the batch frames written for a join-input side
// (SideLeft/SideRight) — true shuffle traffic, as opposed to results.
func (e *Encoder) ShuffledBatches() int64 { return e.shufBatches.Load() }

// ShuffledBytes returns the bytes written in join-input batch frames.
func (e *Encoder) ShuffledBytes() int64 { return e.shufBytes.Load() }

// DeltaBytes returns the bytes spent on dictionary-delta records (term
// lexical forms); amortized to ~once per term per link lifetime.
func (e *Encoder) DeltaBytes() int64 { return e.deltaBytes.Load() }

// SentTerms returns the number of terms the link has shipped, which is
// also its last wire ID (the receiver's remap table mirrors it).
func (e *Encoder) SentTerms() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.sent)
}

// writeFrameLocked frames and flushes one payload; callers hold e.mu.
func (e *Encoder) writeFrameLocked(typ byte, stream uint64, payload []byte) error {
	if err := e.w.WriteByte(typ); err != nil {
		return err
	}
	n := binary.PutUvarint(e.tmp[:], stream)
	if _, err := e.w.Write(e.tmp[:n]); err != nil {
		return err
	}
	total := 1 + n
	n = binary.PutUvarint(e.tmp[:], uint64(len(payload)))
	if _, err := e.w.Write(e.tmp[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(payload); err != nil {
		return err
	}
	e.bytes.Add(int64(total + n + len(payload)))
	// Flush per frame: the receiver streams batches into a running join,
	// so latency matters more than syscall count (the bufio layer still
	// coalesces the header writes above).
	return e.w.Flush()
}

// Batch writes b as a batch frame for the given stream and side. Each
// column's presence bitmap exists on the wire only: it is derived from
// the ID column (Unbound == absent), and the decoder turns a clear bit
// back into Unbound.
func (e *Encoder) Batch(stream uint64, side byte, b *engine.ColBatch) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	bp := getWireBuf(0)
	defer putWireBuf(bp)
	buf := *bp
	buf = append(buf, side)

	// Dictionary-delta sideband: IDs this link has not shipped yet.
	fresh := e.fresh[:0]
	for _, col := range b.Cols {
		for r := 0; r < b.Len; r++ {
			id := col[r]
			if id == dict.Unbound {
				continue
			}
			if uint64(id) >= uint64(len(e.wire)) {
				e.wire = append(e.wire, make([]uint32, int(id)+1-len(e.wire))...)
			}
			if e.wire[id] == 0 {
				fresh = append(fresh, id)
				e.wire[id] = uint32(e.sent + uint64(len(fresh)))
			}
		}
	}
	e.fresh = fresh[:0]
	if e.sent+uint64(len(fresh)) > math.MaxUint32 {
		for _, id := range fresh { // never wrap: unassign and fail
			e.wire[id] = 0
		}
		return fmt.Errorf("cluster: link out of wire IDs after %d terms", e.sent)
	}
	e.sent += uint64(len(fresh))
	deltaStart := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(fresh)))
	for _, id := range fresh {
		buf = wirefmt.AppendTerm(buf, e.d.MustLookup(id))
	}
	e.deltaBytes.Add(int64(len(buf) - deltaStart))

	buf = binary.AppendUvarint(buf, uint64(b.Len))
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	for _, col := range b.Cols {
		var bb byte
		for r := 0; r < b.Len; r++ {
			if col[r] != dict.Unbound {
				bb |= 1 << (uint(r) & 7)
			}
			if r&7 == 7 {
				buf = append(buf, bb)
				bb = 0
			}
		}
		if b.Len&7 != 0 {
			buf = append(buf, bb)
		}
		for r := 0; r < b.Len; r++ {
			if id := col[r]; id != dict.Unbound {
				buf = binary.AppendUvarint(buf, uint64(e.wire[id]))
			}
		}
	}
	*bp = buf
	if err := e.writeFrameLocked(frameBatch, stream, buf); err != nil {
		return err
	}
	e.batches.Add(1)
	if side != SideOut {
		e.shufBatches.Add(1)
		e.shufBytes.Add(int64(len(buf)))
	}
	return nil
}

// Done signals end-of-stream for one side of a stream's task.
func (e *Encoder) Done(stream uint64, side byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeFrameLocked(frameDone, stream, []byte{side})
}

// Error aborts the stream's task with a message for the peer.
func (e *Encoder) Error(stream uint64, msg string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeFrameLocked(frameError, stream, []byte(msg))
}

// Cancel asks the peer to abort the stream's task.
func (e *Encoder) Cancel(stream uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeFrameLocked(frameCancel, stream, nil)
}

// Task writes the task frame opening a stream (proto.go has its layout).
func (e *Encoder) Task(stream uint64, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeFrameLocked(frameTask, stream, payload)
}

// Hello writes a worker-status frame (the link handshake on stream 0, or
// a probe reply on the probe's stream).
func (e *Encoder) Hello(stream uint64, info *WorkerInfo) error {
	p, err := json.Marshal(info)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeFrameLocked(frameHello, stream, p)
}

// Frame is one decoded wire frame. Payload (for task/hello/error frames)
// is only valid until the next call to Next. A batch frame for a stream
// the schema lookup does not recognize decodes with a nil Batch: its
// dictionary deltas are interned (they are link state, not stream state)
// and the rows are dropped.
type Frame struct {
	Type    byte
	Stream  uint64
	Side    byte
	Batch   *engine.ColBatch
	Payload []byte
}

// SchemaLookup resolves the column layout of a stream side's batches;
// returning nil drops the batch (after its deltas intern).
type SchemaLookup func(stream uint64, side byte) *engine.Schema

// Decoder reads frames from a link, interning dictionary deltas into the
// local dictionary and translating wire IDs into local ones as batches
// decode. The remap table (remap[w] is wire ID w's local ID; 0 is
// reserved) is link-lifetime: it grows by one entry per delta record,
// never by a peer-chosen amount, and resets only when the link re-dials.
type Decoder struct {
	r      *bufio.Reader
	d      *dict.Dict
	remap  []dict.ID
	lookup SchemaLookup
	buf    []byte

	batches     atomic.Int64
	bytes       atomic.Int64
	shufBatches atomic.Int64
	shufBytes   atomic.Int64
	deltaBytes  atomic.Int64
	remapN      atomic.Int64
}

// NewDecoder returns a decoder reading from r, interning terms into d.
func NewDecoder(r io.Reader, d *dict.Dict) *Decoder {
	return &Decoder{
		r:     bufio.NewReaderSize(r, 64<<10),
		d:     d,
		remap: make([]dict.ID, 1),
	}
}

// SetLookup installs the schema resolver consulted for every batch frame.
func (dec *Decoder) SetLookup(l SchemaLookup) { dec.lookup = l }

// Batches returns the number of batch frames decoded.
func (dec *Decoder) Batches() int64 { return dec.batches.Load() }

// Bytes returns the total payload bytes read.
func (dec *Decoder) Bytes() int64 { return dec.bytes.Load() }

// ShuffledBatches returns the join-input (SideLeft/SideRight) batch
// frames decoded.
func (dec *Decoder) ShuffledBatches() int64 { return dec.shufBatches.Load() }

// ShuffledBytes returns the bytes read in join-input batch frames.
func (dec *Decoder) ShuffledBytes() int64 { return dec.shufBytes.Load() }

// DeltaBytes returns the bytes read as dictionary-delta records.
func (dec *Decoder) DeltaBytes() int64 { return dec.deltaBytes.Load() }

// RemapEntries returns the number of wire IDs the link's remap table
// translates (entries are never removed, so this is also the count of
// terms that crossed the link).
func (dec *Decoder) RemapEntries() int64 { return dec.remapN.Load() }

// Next reads one frame. It returns io.EOF at a clean end of stream and an
// errCorrupt-tagged error on malformed input.
func (dec *Decoder) Next() (Frame, error) {
	typ, err := dec.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	stream, err := binary.ReadUvarint(dec.r)
	if err != nil {
		return Frame{}, corrupt("bad stream ID: %v", err)
	}
	n, err := binary.ReadUvarint(dec.r)
	if err != nil {
		return Frame{}, corrupt("bad frame length: %v", err)
	}
	if n > maxFramePayload {
		return Frame{}, corrupt("frame payload %d exceeds %d", n, maxFramePayload)
	}
	switch typ {
	case frameBatch:
		// The hot path reads into a pooled buffer released before return;
		// the decoded batch owns its own memory.
		bp := getWireBuf(int(n))
		defer putWireBuf(bp)
		if _, err := io.ReadFull(dec.r, *bp); err != nil {
			return Frame{}, corrupt("truncated frame: %v", err)
		}
		dec.bytes.Add(int64(n) + 1)
		side, b, err := dec.decodeBatch(stream, *bp)
		if err != nil {
			return Frame{}, err
		}
		dec.batches.Add(1)
		if side != SideOut {
			dec.shufBatches.Add(1)
			dec.shufBytes.Add(int64(n))
		}
		return Frame{Type: typ, Stream: stream, Side: side, Batch: b}, nil
	case frameDone:
		if uint64(cap(dec.buf)) < n {
			dec.buf = make([]byte, n)
		}
		dec.buf = dec.buf[:n]
		if _, err := io.ReadFull(dec.r, dec.buf); err != nil {
			return Frame{}, corrupt("truncated frame: %v", err)
		}
		dec.bytes.Add(int64(n) + 1)
		if len(dec.buf) != 1 || dec.buf[0] > SideRight {
			return Frame{}, corrupt("bad done frame")
		}
		return Frame{Type: typ, Stream: stream, Side: dec.buf[0]}, nil
	case frameTask, frameError, frameHello, frameCancel:
		if uint64(cap(dec.buf)) < n {
			dec.buf = make([]byte, n)
		}
		dec.buf = dec.buf[:n]
		if _, err := io.ReadFull(dec.r, dec.buf); err != nil {
			return Frame{}, corrupt("truncated frame: %v", err)
		}
		dec.bytes.Add(int64(n) + 1)
		return Frame{Type: typ, Stream: stream, Payload: dec.buf}, nil
	default:
		return Frame{}, corrupt("unknown frame type 0x%02x", typ)
	}
}

func (dec *Decoder) decodeBatch(stream uint64, p []byte) (byte, *engine.ColBatch, error) {
	c := &wirefmt.Cursor{P: p}
	side := c.Byte()
	if side > SideRight {
		return 0, nil, corrupt("bad batch side %d", side)
	}

	ndelta := c.Count() // each delta record is several bytes
	deltaStart := c.Off
	for i := 0; i < ndelta && c.Err == nil; i++ {
		t := c.Term()
		if c.Err != nil {
			break
		}
		dec.remap = append(dec.remap, dec.d.Intern(t))
		dec.remapN.Add(1)
	}
	if c.Err != nil {
		return 0, nil, c.Err
	}
	dec.deltaBytes.Add(int64(c.Off - deltaStart))

	var schema *engine.Schema
	if dec.lookup != nil {
		schema = dec.lookup(stream, side)
	}
	if schema == nil {
		// Stream closed or never opened: the deltas above are link state
		// and had to intern, but the rows belong to nobody — drop them
		// without validating the remainder.
		return side, nil, nil
	}

	rows := c.Uvarint()
	cols := c.Uvarint()
	if c.Err != nil {
		return 0, nil, c.Err
	}
	if rows > maxWireRows {
		return 0, nil, corrupt("row count %d exceeds %d", rows, maxWireRows)
	}
	if cols > maxWireCols {
		return 0, nil, corrupt("column count %d exceeds %d", cols, maxWireCols)
	}
	if int(cols) != len(schema.Vars) {
		return 0, nil, corrupt("batch has %d columns, schema %d", cols, len(schema.Vars))
	}

	b := &engine.ColBatch{Schema: schema, Len: int(rows), Cols: make([][]dict.ID, cols)}
	nb := (int(rows) + 7) / 8
	for ci := range b.Cols {
		col := make([]dict.ID, rows)
		bm := c.Bytes(nb)
		if c.Err != nil {
			return 0, nil, c.Err
		}
		for r := 0; r < int(rows); r++ {
			if bm[r>>3]&(1<<(uint(r)&7)) == 0 {
				continue
			}
			w := c.Uvarint()
			if c.Err != nil {
				return 0, nil, c.Err
			}
			if w == 0 || w >= uint64(len(dec.remap)) {
				return 0, nil, corrupt("ID %d has no dictionary delta", w)
			}
			col[r] = dec.remap[w]
		}
		b.Cols[ci] = col
	}
	if c.Err != nil {
		return 0, nil, c.Err
	}
	if c.Off != len(p) {
		return 0, nil, corrupt("%d trailing bytes after batch", len(p)-c.Off)
	}
	return side, b, nil
}

// frameQ is an unbounded FIFO handing decoded frames from a link's demux
// loop to the stream's consumer. It is unbounded by design: the demux
// loop must never block on one slow stream (that would stall every other
// stream multiplexed on the link), so memory for a backlogged stream
// grows until its consumer drains or abandons it. Closing the queue
// makes later pushes silent drops — an abandoned stream can never wedge
// the link.
type frameQ struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []Frame
	head   int
	err    error
	closed bool
}

func newFrameQ() *frameQ {
	q := &frameQ{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a frame; frames pushed after close are dropped.
func (q *frameQ) push(f Frame) {
	q.mu.Lock()
	if !q.closed {
		q.frames = append(q.frames, f)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// close ends the queue with err (nil for a clean end); idempotent, first
// error wins.
func (q *frameQ) close(err error) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.err = err
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// pop blocks for the next frame; ok is false once the queue is closed and
// drained, with the close error in err.
func (q *frameQ) pop() (f Frame, err error, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.head < len(q.frames) {
			f = q.frames[q.head]
			q.frames[q.head] = Frame{}
			q.head++
			if q.head == len(q.frames) {
				q.frames = q.frames[:0]
				q.head = 0
			}
			return f, nil, true
		}
		if q.closed {
			return Frame{}, q.err, false
		}
		q.cond.Wait()
	}
}
