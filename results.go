package ontario

import (
	"context"
	"time"

	"ontario/internal/bridge"
	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
)

// Stats summarizes one query execution. While the cursor is open the
// counters reflect the work done so far; once the results are exhausted or
// closed they are final.
type Stats struct {
	// Answers is the number of solutions delivered through the cursor.
	Answers int
	// Messages is the number of simulated network messages retrieved.
	Messages int
	// SimulatedDelay is the total sampled network latency.
	SimulatedDelay time.Duration
	// Duration is the wall-clock execution time.
	Duration time.Duration
	// TimeToFirstAnswer is the arrival time of the first solution
	// (Duration when the query produced none).
	TimeToFirstAnswer time.Duration
	// SourceMessages is the simulated message count per contacted source.
	SourceMessages map[string]int
	// SourceDelays is the sampled network latency per contacted source.
	SourceDelays map[string]time.Duration
}

// Results is a cursor over a query's solutions, in the style of
// database/sql.Rows: solutions stream from the executor as they are
// produced, so the first Next returns at time-to-first-answer, not at
// query completion.
//
//	res, err := eng.Query(ctx, text, ontario.WithAwarePlan())
//	if err != nil { ... }
//	defer res.Close()
//	for res.Next() {
//	    b := res.Binding()
//	    ...
//	}
//	if err := res.Err(); err != nil { ... }
//
// A Results is not safe for concurrent use. Closing it early cancels the
// underlying execution and releases its resources.
type Results struct {
	vars    []string
	plan    *core.Plan
	summary *PlanSummary

	ctx    context.Context
	cancel context.CancelFunc
	exec   *core.Execution
	start  time.Time

	// The cursor consumes dictionary-encoded batches and materializes
	// terms only when a solution is actually served — through Binding, or
	// pre-encoded JSON via nextBatchJSON. cbuf is the exchange batch being
	// iterated: Next serves rows from cbuf[cidx:] and only receives from
	// the stream — applying its fused stages (the projection, DISTINCT,
	// OFFSET and LIMIT among them) — when the batch is exhausted, so the
	// per-answer cost of the cursor is an index, not a channel receive.
	cstream *engine.CStream
	dict    *dict.Dict
	cbuf    *engine.ColBatch
	cidx    int

	// json holds the lazily-built JSON encoding state (pre-marshaled
	// keys, term encodings) backing the server's fast path; jsonCache is
	// the engine's cross-query term table it draws from.
	json      *resultsJSON
	jsonCache *termJSON

	cur     Binding
	err     error
	n       int
	firstAt time.Duration
	total   time.Duration
	done    bool
	closed  bool
}

// Vars returns the projected variable names.
func (r *Results) Vars() []string { return append([]string(nil), r.vars...) }

// Next advances to the next solution. It returns false when the results
// are exhausted, the context is cancelled, or the cursor was closed; check
// Err afterwards to distinguish completion from cancellation.
func (r *Results) Next() bool {
	if !r.fill() {
		return false
	}
	b := r.cbuf.Binding(r.cidx, r.dict)
	r.cidx++
	r.n++
	if r.n == 1 {
		r.firstAt = time.Since(r.start)
	}
	r.cur = bindingFromInternal(b)
	return true
}

// fill ensures the cursor's buffered batch holds an unserved solution,
// pulling the next exchange batch when the buffer is exhausted; it
// returns false — recording the terminal state — once the cursor is
// done, closed, or the stream has ended.
func (r *Results) fill() bool {
	if r.done || r.closed {
		return false
	}
	for r.cbuf == nil || r.cidx >= r.cbuf.Len {
		batch, ok := r.cstream.Recv(nil)
		if !ok {
			r.finish()
			return false
		}
		r.cbuf, r.cidx = batch, 0
	}
	return true
}

// Binding returns the current solution. It is only valid after a true
// Next.
func (r *Results) Binding() Binding { return r.cur }

// Err returns the error that terminated iteration early (a cancelled or
// expired context), or nil after a complete run or an explicit Close.
func (r *Results) Err() error { return r.err }

// Close cancels the execution if it is still running, drains it, and
// releases its resources. Closing an exhausted or already-closed cursor is
// a no-op.
func (r *Results) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.cancel()
	if r.json != nil {
		r.json.release()
	}
	r.cstream.Drain()
	if !r.done {
		r.done = true
		r.total = time.Since(r.start)
	}
	return r.err
}

// finish records the terminal state once the stream closes. A failure
// parked by the execution (a remote source that died mid-query) takes
// precedence over plain context cancellation: the caller sees why the
// stream ended short, not just that it did.
func (r *Results) finish() {
	r.done = true
	r.total = time.Since(r.start)
	if err := r.exec.Err(); err != nil {
		r.err = err
	} else if err := r.ctx.Err(); err != nil {
		r.err = err
	}
	r.cancel()
}

// Collect drains the remaining solutions, closes the cursor and returns
// them (all solutions when called before the first Next).
func (r *Results) Collect() ([]Binding, error) {
	var out []Binding
	for r.Next() {
		out = append(out, r.Binding())
	}
	r.Close()
	return out, r.err
}

// Stats returns the execution statistics: a snapshot while the cursor is
// open, the final numbers once it is exhausted or closed.
func (r *Results) Stats() Stats {
	d := r.total
	if !r.done {
		d = time.Since(r.start)
	}
	ttfa := r.firstAt
	if r.n == 0 {
		ttfa = d
	}
	return Stats{
		Answers:           r.n,
		Messages:          r.exec.Messages(),
		SimulatedDelay:    r.exec.SimulatedDelay(),
		Duration:          d,
		TimeToFirstAnswer: ttfa,
		SourceMessages:    r.exec.SourceMessages(),
		SourceDelays:      r.exec.SourceDelays(),
	}
}

// Plan returns the executed plan as a public summary tree.
func (r *Results) Plan() *PlanSummary {
	if r.summary == nil {
		r.summary = summarize(r.plan.Root)
	}
	return r.summary
}

func bindingFromInternal(b sparql.Binding) Binding {
	out := make(Binding, len(b))
	for v, t := range b {
		out[v] = Term{Kind: TermKind(t.Kind), Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
	return out
}

func init() {
	// Hand the internal server batch-granular access to the cursor without
	// widening the exported Results API (see internal/bridge): the cursor
	// hands over the next batch already encoded as sparql-results+json
	// binding objects, skipping the public Binding materialization
	// entirely. Each distinct term is marshaled once per lake (the encoding
	// is cached by dictionary ID across queries), so the JSON writer's
	// per-answer cost collapses to cache lookups and byte appends.
	bridge.ResultsNextJSON = func(results any) ([]byte, int, bool) {
		r, ok := results.(*Results)
		if !ok {
			return nil, 0, false
		}
		return r.nextBatchJSON()
	}
	// The cluster coordinator attaches its worker-pool distributor to a
	// query execution through this internal option factory.
	bridge.ClusterOption = func(dist any) any {
		d, _ := dist.(core.Distributor)
		return Option(func(c *config) { c.cluster = d })
	}
	bridge.NormalizeQuery = normalizeQuery
}
