// Package engine provides the physical operators of the federated query
// engine. Following ANAPSID (which Ontario inherits its operators from),
// joins are non-blocking: the symmetric hash join probes and emits answers
// as soon as they arrive from either input, so results are produced
// incrementally even under network delays.
//
// Execution is batch-at-a-time (vectorized) over a dictionary-encoded
// columnar layout: operators exchange ColBatch values — one dict.ID column
// per variable — instead of single solutions, amortizing the per-tuple
// channel send and context select over DefaultBatchSize rows. The
// streaming semantics are preserved by flush rules: a producer whose rows
// trickle in flushes a partial batch once its oldest row has waited
// DefaultFlushInterval (so the first answer is never held back behind an
// unfilled batch) and on close; interior operators forward their output at
// every input-batch boundary.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"ontario/internal/dict"
	"ontario/internal/sparql"
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

// DefaultProbeParallelism derives the default number of morsel-parallel
// probe workers (and hash-table shards) of a symmetric hash join from the
// machine, capped so a deep plan of many joins does not explode into
// thousands of goroutines.
func DefaultProbeParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

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

// CStream is an asynchronous exchange of ColBatch values sharing one
// schema. The buffer is counted in batches. A batch is read-only once
// sent: its columns may be shared — a response-cache replay sends slices
// of the stored response to every hit, and CProject forwards its input's
// columns — so no producer or consumer may write into them. A consumer
// that needs different rows builds a new batch.
type CStream struct {
	ch     chan *ColBatch
	schema *Schema
}

// NewCStream returns a columnar stream over schema with the given buffer
// size (in batches).
func NewCStream(schema *Schema, buf int) *CStream {
	return &CStream{ch: make(chan *ColBatch, buf), schema: schema}
}

// Schema returns the stream's batch layout.
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

// Batches exposes the receive side of the exchange.
func (s *CStream) Batches() <-chan *ColBatch { return s.ch }

// recvC receives the next batch from in, accounting the blocked time and
// the consumed batch. The fast path (a batch already buffered) skips the
// clock reads entirely.
func (o *OpStats) recvC(in *CStream) (*ColBatch, bool) {
	if o == nil {
		b, ok := <-in.ch
		return b, ok
	}
	select {
	case b, ok := <-in.ch:
		if ok {
			o.in(b.Len)
		}
		return b, ok
	default:
	}
	t0 := time.Now()
	b, ok := <-in.ch
	o.recvNS.Add(time.Since(t0).Nanoseconds())
	if ok {
		o.in(b.Len)
	}
	return b, ok
}

// sendC delivers a batch to out, accounting the blocked time and the
// produced rows; it mirrors CStream.SendBatch's contract (true on
// delivery, false when ctx is cancelled).
func (o *OpStats) sendC(ctx context.Context, out *CStream, b *ColBatch) bool {
	if o == nil {
		return out.SendBatch(ctx, b)
	}
	if b == nil || b.Len == 0 {
		return true
	}
	if out.TrySendBatch(b) {
		o.batchesOut.Add(1)
		o.bindingsOut.Add(int64(b.Len))
		return true
	}
	t0 := time.Now()
	ok := out.SendBatch(ctx, b)
	o.sendNS.Add(time.Since(t0).Nanoseconds())
	if ok {
		o.batchesOut.Add(1)
		o.bindingsOut.Add(int64(b.Len))
	}
	return ok
}

// CMeter relays in through a counting stage attributed to st: produced
// batches count as st's output, time waiting on in as blocked-recv, time
// waiting on the consumer as blocked-send, and st is closed when the
// relayed stream completes. It instruments leaf (service) streams, whose
// producers live inside the wrappers; st == nil returns in unchanged.
func CMeter(ctx context.Context, in *CStream, st *OpStats) *CStream {
	if st == nil {
		return in
	}
	out := NewCStream(in.schema, 1)
	go func() {
		defer out.Close()
		defer st.close()
		dead := false
		for {
			var b *ColBatch
			var ok bool
			select {
			case b, ok = <-in.ch:
			default:
				t0 := time.Now()
				b, ok = <-in.ch
				st.recvNS.Add(time.Since(t0).Nanoseconds())
			}
			if !ok {
				return
			}
			if dead {
				continue // drain so the producer can finish
			}
			if !st.sendC(ctx, out, b) {
				dead = true
			}
		}
	}()
	return out
}

// ColWriter accumulates rows into batches on behalf of a producer whose
// rows trickle in (the bind join's probes) and flushes to the underlying
// stream when a batch fills, when the flush interval elapses with a
// partial batch pending, and on Close. It is safe for concurrent use (the
// flush timer fires on its own goroutine).
type ColWriter struct {
	ctx   context.Context
	out   *CStream
	size  int
	every time.Duration

	mu     sync.Mutex
	b      *ColBuilder
	timer  *time.Timer
	failed bool
	// first is the arrival time of the oldest buffered row; timed flushes
	// only fire once that row has waited out the interval, so a timer armed
	// before a size-triggered flush cannot flush the next partial batch
	// early.
	first time.Time

	st *OpStats
}

// NewColWriter returns a writer cutting batches of at most size rows
// (<= 0 means DefaultBatchSize) with the default flush interval.
func NewColWriter(ctx context.Context, out *CStream, size int) *ColWriter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &ColWriter{ctx: ctx, out: out, size: size, every: DefaultFlushInterval,
		b: NewColBuilderCap(out.schema, size)}
}

// SetStats attributes the writer's flushed batches to st (nil records
// nothing). Call before the first append.
func (w *ColWriter) SetStats(st *OpStats) {
	w.mu.Lock()
	w.st = st
	w.mu.Unlock()
}

// AppendMerged appends the merge of two batch rows (left wins when
// bound; see ColBuilder.AppendMerged); it returns false once the context
// is cancelled.
func (w *ColWriter) AppendMerged(l *ColBatch, lr int, lmap []int, r *ColBatch, rr int, rmap []int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return false
	}
	w.b.AppendMerged(l, lr, lmap, r, rr, rmap)
	return w.appendedLocked()
}

// appendedLocked applies the size/interval flush rules after one append;
// the caller holds w.mu.
func (w *ColWriter) appendedLocked() bool {
	if w.b.Rows() >= w.size {
		return w.flushLocked()
	}
	if w.b.Rows() == 1 && w.every > 0 {
		w.first = time.Now()
		if w.timer == nil {
			w.timer = time.AfterFunc(w.every, w.timedFlush)
		} else {
			w.timer.Reset(w.every)
		}
	}
	return true
}

func (w *ColWriter) timedFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed || w.b.Rows() == 0 {
		return
	}
	// A stale fire for a batch that already went out size-triggered: hold
	// the fresh partial batch for the remainder of its own interval.
	if wait := w.every - time.Since(w.first); wait > 0 {
		if w.timer != nil {
			w.timer.Reset(wait)
		}
		return
	}
	w.flushLocked()
}

// Close flushes the remaining partial batch and stops the flush timer; it
// does not close the underlying stream.
func (w *ColWriter) Close() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
	}
	return w.flushLocked()
}

func (w *ColWriter) flushLocked() bool {
	if w.failed {
		return false
	}
	if w.b.Rows() == 0 {
		return true
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	if !w.st.sendC(w.ctx, w.out, w.b.Take()) {
		w.failed = true
		return false
	}
	return true
}

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

// collectC drains a columnar stream into one concatenated batch,
// accounting the consumed batches to the operator (nil-safe).
func (o *OpStats) collectC(in *CStream) *ColBatch {
	b := NewColBuilder(in.schema)
	ident := in.schema.Positions(in.schema.Vars)
	for {
		batch, ok := o.recvC(in)
		if !ok {
			return b.Take()
		}
		for r := 0; r < batch.Len; r++ {
			b.AppendRow(batch, r, ident)
		}
	}
}
