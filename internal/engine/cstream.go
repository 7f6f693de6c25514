// Package engine provides the physical operators of the federated query
// engine. Following ANAPSID (which Ontario inherits its operators from),
// joins are non-blocking: the symmetric hash join probes and emits answers
// as soon as they arrive from either input, so results are produced
// incrementally even under network delays.
//
// Execution is batch-at-a-time (vectorized) over a dictionary-encoded
// columnar layout: operators exchange ColBatch values — one dict.ID column
// per variable — instead of single solutions, amortizing the per-tuple
// channel send and context select over DefaultBatchSize rows. Only real
// producers and pipeline breakers own a goroutine and an output channel:
// wrapper responses, bind-join dispatch, the symmetric hash join, the
// left join, union branches and ORDER BY. The streaming operators between
// them — the service meter, FILTER, projection, DISTINCT, OFFSET and
// LIMIT — are stages fused onto the stream they read, applied batch by
// batch by whichever operator receives it (CStream.Recv), so a linear
// pipeline runs in one goroutine. A wrapper response whose rows trickle
// in flushes a partial batch once its oldest row has waited
// DefaultFlushInterval (so the first answer is never held back behind an
// unfilled batch) and on close; the bind join forwards each response
// batch's answers as they arrive.
package engine

import (
	"context"
	"time"

	"ontario/internal/dict"
)

// DefaultBatchSize is the batch granularity of the exchange when no
// explicit size is configured: leaf producers and rebatching operators cut
// batches of at most this many rows.
const DefaultBatchSize = 256

// DefaultFlushInterval bounds how long a leaf producer may hold a partial
// batch: once the oldest buffered row has waited this long the batch is
// flushed regardless of fill, preserving time-to-first-answer under slow
// (simulated-latency) production.
const DefaultFlushInterval = time.Millisecond

// bufBatches sizes an operator's output buffer in batches so the buffered
// row count stays roughly constant across batch sizes: small batches get
// more buffered batches (batch=1 keeps 64 in-flight rows), large batches
// the minimum of 4.
func bufBatches(batch int) int {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if n := 64 / batch; n > 4 {
		return n
	}
	return 4
}

// CStream is an asynchronous exchange of ColBatch values plus the stages
// fused onto it. The buffer is counted in batches. A batch is read-only
// once sent: its columns may be shared — a response-cache replay sends
// slices of the stored response to every hit, projection, union padding,
// OFFSET and LIMIT forward their input's columns, and a bind-join block
// is a view of the left batch it lies in, read by the block's request
// while later left batches arrive — so no producer, stage or consumer may
// write into them. A consumer that needs different rows builds a new
// batch.
//
// A stream has one consumer. The stage constructors (CMeter, CFilter,
// CProject, CDistinct, COffset, CLimit) return a stream over the same
// exchange with one stage appended; the consumer applies the stages in
// its own goroutine as it receives through Recv.
type CStream struct {
	ch     chan *ColBatch
	schema *Schema
	stages []stage
	ended  bool
}

// stage is one fused streaming operator. fn maps an input batch to its
// output (nil or empty drops the batch); more == false ends the stream
// after this batch. st is the operator's stats record.
type stage struct {
	fn func(*ColBatch) (*ColBatch, bool)
	st *OpStats
}

// NewCStream returns a columnar stream over schema with the given buffer
// size (in batches).
func NewCStream(schema *Schema, buf int) *CStream {
	return &CStream{ch: make(chan *ColBatch, buf), schema: schema}
}

// Schema returns the layout of the batches Recv delivers.
func (s *CStream) Schema() *Schema { return s.schema }

// SendBatch delivers a batch; it returns false when the context is
// cancelled. Sending an empty batch is a no-op and succeeds.
func (s *CStream) SendBatch(ctx context.Context, b *ColBatch) bool {
	if b == nil || b.Len == 0 {
		return true
	}
	select {
	case s.ch <- b:
		return true
	case <-ctx.Done():
		return false
	}
}

// TrySendBatch delivers a batch only if the buffer has room; it never
// blocks.
func (s *CStream) TrySendBatch(b *ColBatch) bool {
	if b == nil || b.Len == 0 {
		return true
	}
	select {
	case s.ch <- b:
		return true
	default:
		return false
	}
}

// Close marks the stream complete.
func (s *CStream) Close() { close(s.ch) }

// Batches exposes the raw exchange to wrapper-level consumers. It panics
// on a stream with stages: only Recv applies them.
func (s *CStream) Batches() <-chan *ColBatch {
	if len(s.stages) > 0 {
		panic("engine: Batches on a stream with stages; receive with Recv")
	}
	return s.ch
}

// with returns a stream over the same exchange with one more stage,
// delivering batches laid out as schema.
func (s *CStream) with(schema *Schema, st *OpStats, fn func(*ColBatch) (*ColBatch, bool)) *CStream {
	stages := append(s.stages[:len(s.stages):len(s.stages)], stage{fn: fn, st: st})
	return &CStream{ch: s.ch, schema: schema, stages: stages}
}

// Recv returns the next non-empty batch with the stream's stages applied,
// or false once the stream has ended: its producer closed it, or a stage
// (a satisfied LIMIT) ended it early. The time blocked on the exchange and
// the delivered batch are charged to st, the receiving operator (nil
// records nothing); stages charge no wait. A consumer whose stream a stage
// ended, or that stops receiving early, cancels the producers' context and
// calls Drain so they can finish.
func (s *CStream) Recv(st *OpStats) (*ColBatch, bool) {
	for !s.ended {
		b, ok := st.wait(s.ch)
		if !ok {
			s.end()
			break
		}
		if b = s.apply(b); b != nil {
			st.in(b.Len)
			return b, true
		}
	}
	return nil, false
}

// recvEither is Recv over two streams: it returns the next non-empty batch
// whichever of l and r delivers first, with that stream's stages applied,
// and whether it came from l; false once both have ended. The time blocked
// waiting for either exchange is charged to st once.
func recvEither(l, r *CStream, st *OpStats) (b *ColBatch, fromLeft, ok bool) {
	for !l.ended || !r.ended {
		var lch, rch chan *ColBatch // an ended stream's nil channel never delivers
		if !l.ended {
			lch = l.ch
		}
		if !r.ended {
			rch = r.ch
		}
		b, fromLeft, ok = st.waitEither(lch, rch)
		s := r
		if fromLeft {
			s = l
		}
		if !ok {
			s.end()
			continue
		}
		if b = s.apply(b); b != nil {
			st.in(b.Len)
			return b, fromLeft, true
		}
	}
	return nil, false, false
}

// apply runs the stream's stages over a batch received from its exchange,
// returning nil when they drop it. A stage that ends the stream ends it.
func (s *CStream) apply(b *ColBatch) *ColBatch {
	more := true
	for _, g := range s.stages {
		g.st.in(b.Len)
		var m bool
		b, m = g.fn(b)
		more = more && m
		if b == nil || b.Len == 0 {
			break
		}
		g.st.out(b.Len)
	}
	if !more {
		s.end()
	}
	if b == nil || b.Len == 0 {
		return nil
	}
	return b
}

// Drain discards the rest of the exchange, so its producers can finish,
// and ends the stream.
func (s *CStream) Drain() {
	for range s.ch {
	}
	s.end()
}

// end closes the stages' stats once, freezing their wall times.
func (s *CStream) end() {
	if s.ended {
		return
	}
	s.ended = true
	for _, g := range s.stages {
		g.st.close()
	}
}

// wait receives from the exchange, accounting the blocked time. The fast
// path (a batch already buffered) skips the clock reads entirely.
func (o *OpStats) wait(ch chan *ColBatch) (*ColBatch, bool) {
	if o == nil {
		b, ok := <-ch
		return b, ok
	}
	select {
	case b, ok := <-ch:
		return b, ok
	default:
	}
	t0 := time.Now()
	b, ok := <-ch
	o.recvNS.Add(time.Since(t0).Nanoseconds())
	return b, ok
}

// waitEither receives from whichever of l and r delivers first (a nil
// channel never does), accounting the blocked time once, like wait.
func (o *OpStats) waitEither(l, r chan *ColBatch) (b *ColBatch, fromLeft, ok bool) {
	select {
	case b, ok = <-l:
		return b, true, ok
	case b, ok = <-r:
		return b, false, ok
	default:
	}
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	select {
	case b, ok = <-l:
		fromLeft = true
	case b, ok = <-r:
	}
	if o != nil {
		o.recvNS.Add(time.Since(t0).Nanoseconds())
	}
	return b, fromLeft, ok
}

// sendC delivers a batch to out, accounting the blocked time and the
// produced rows; it mirrors CStream.SendBatch's contract (true on
// delivery, false when ctx is cancelled).
func (o *OpStats) sendC(ctx context.Context, out *CStream, b *ColBatch) bool {
	if o == nil || b == nil || b.Len == 0 {
		return out.SendBatch(ctx, b)
	}
	if !out.TrySendBatch(b) {
		t0 := time.Now()
		ok := out.SendBatch(ctx, b)
		o.sendNS.Add(time.Since(t0).Nanoseconds())
		if !ok {
			return false
		}
	}
	o.out(b.Len)
	return true
}

// CMeter attributes a leaf (service) stream, whose producer lives inside a
// wrapper, to st: the batches the consumer receives count as st's input
// and output, and st is closed when the stream ends. st == nil returns in
// unchanged.
func CMeter(in *CStream, st *OpStats) *CStream {
	if st == nil {
		return in
	}
	return in.with(in.schema, st, func(b *ColBatch) (*ColBatch, bool) { return b, true })
}

// collectC drains a columnar stream into one concatenated batch, a
// whole column at a time, accounting the consumed batches to the operator
// (nil-safe).
func (o *OpStats) collectC(in *CStream) *ColBatch {
	all := &ColBatch{Schema: in.schema, Cols: make([][]dict.ID, len(in.schema.Vars))}
	for {
		batch, ok := in.Recv(o)
		if !ok {
			return all
		}
		for c, col := range batch.Cols {
			all.Cols[c] = append(all.Cols[c], col...)
		}
		all.Len += batch.Len
	}
}
