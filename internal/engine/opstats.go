package engine

import (
	"context"
	"sync/atomic"
	"time"
)

// OpStats is the per-operator runtime instrumentation record: every engine
// operator accumulates its observed batch/binding flow, wall time, and the
// time it spent blocked on the exchange into one OpStats. The counters are
// atomics and every update happens at batch granularity (at most one timed
// channel operation per exchange batch, not per binding), so the hot-path
// cost is near zero. A nil *OpStats is valid everywhere and records nothing — the
// operators are instrumented unconditionally and pay only a nil check when
// no trace is attached.
//
// Executors attach an OpStats to the context with WithOpStats immediately
// before constructing the operator it belongs to; the operator picks it up
// with StatsFrom at construction time.
type OpStats struct {
	// Kind is the operator kind ("symmetric-hash-join", "service", ...).
	Kind string
	// Label carries operator detail (source ID, join variables, ...).
	Label string

	start time.Time // registration time; set before any goroutine runs

	batchesIn   atomic.Int64
	bindingsIn  atomic.Int64
	batchesOut  atomic.Int64
	bindingsOut atomic.Int64
	recvNS      atomic.Int64 // time blocked receiving from inputs
	sendNS      atomic.Int64 // time blocked sending to the output
	wallNS      atomic.Int64 // construction -> output close (0 while running)

	hashEntries  atomic.Int64 // symmetric hash join: table entries
	blocksIssued atomic.Int64 // bind joins: service requests issued
}

// NewOpStats returns a started stats record; the executor registers one per
// plan operator (tests may construct them directly).
func NewOpStats(kind, label string) *OpStats {
	return &OpStats{Kind: kind, Label: label, start: time.Now()}
}

// OpActuals is a plain-value snapshot of one operator's observed runtime
// behaviour — the "actual" counterpart of a cost-model estimate.
type OpActuals struct {
	Kind  string
	Label string
	// BindingsIn/BatchesIn count the operator's consumed input (both sides
	// of a join combined); BindingsOut/BatchesOut its produced output.
	BindingsIn  int64
	BatchesIn   int64
	BindingsOut int64
	BatchesOut  int64
	// Wall is construction-to-completion time (running time so far while
	// the operator is still live).
	Wall time.Duration
	// BlockedRecv is the time spent waiting on input batches, BlockedSend
	// the time spent waiting for the downstream consumer. Both are zero
	// for a stage, which runs inside the operator receiving its stream.
	BlockedRecv time.Duration
	BlockedSend time.Duration
	// HashEntries is the number of hash-table entries a symmetric hash
	// join inserted into its two tables; BlocksIssued the number of service
	// requests a (block) bind join dispatched. Zero for other operators.
	HashEntries  int64
	BlocksIssued int64
}

// Snapshot returns the current counter values. Safe while the operator is
// still running.
func (o *OpStats) Snapshot() OpActuals {
	if o == nil {
		return OpActuals{}
	}
	wall := time.Duration(o.wallNS.Load())
	if wall == 0 {
		wall = time.Since(o.start)
	}
	return OpActuals{
		Kind:         o.Kind,
		Label:        o.Label,
		BindingsIn:   o.bindingsIn.Load(),
		BatchesIn:    o.batchesIn.Load(),
		BindingsOut:  o.bindingsOut.Load(),
		BatchesOut:   o.batchesOut.Load(),
		Wall:         wall,
		BlockedRecv:  time.Duration(o.recvNS.Load()),
		BlockedSend:  time.Duration(o.sendNS.Load()),
		HashEntries:  o.hashEntries.Load(),
		BlocksIssued: o.blocksIssued.Load(),
	}
}

// close marks the operator complete. The last close wins, so operators with
// several producing goroutines record the time the final one finished.
func (o *OpStats) close() {
	if o == nil {
		return
	}
	o.wallNS.Store(time.Since(o.start).Nanoseconds())
}

// in counts one consumed input batch.
func (o *OpStats) in(bindings int) {
	if o == nil {
		return
	}
	o.batchesIn.Add(1)
	o.bindingsIn.Add(int64(bindings))
}

// out counts one produced output batch.
func (o *OpStats) out(bindings int) {
	if o == nil {
		return
	}
	o.batchesOut.Add(1)
	o.bindingsOut.Add(int64(bindings))
}

// addHashEntries accounts hash-table insertions (one call per input batch).
func (o *OpStats) addHashEntries(n int) {
	if o == nil {
		return
	}
	o.hashEntries.Add(int64(n))
}

// AddBlock accounts one dispatched bind-join service request.
func (o *OpStats) AddBlock() {
	if o == nil {
		return
	}
	o.blocksIssued.Add(1)
}

type opStatsKey struct{}

// WithOpStats attaches the operator stats the NEXT constructed operator
// should record into. Executors wrap the context immediately before each
// operator constructor; child sub-plans are built with the parent context,
// so every operator sees exactly its own record.
func WithOpStats(ctx context.Context, st *OpStats) context.Context {
	if st == nil {
		return ctx
	}
	return context.WithValue(ctx, opStatsKey{}, st)
}

// StatsFrom returns the stats attached with WithOpStats, or nil.
func StatsFrom(ctx context.Context) *OpStats {
	st, _ := ctx.Value(opStatsKey{}).(*OpStats)
	return st
}
