package wrapper

import (
	"context"
	"sync"

	"ontario/internal/dict"
	"ontario/internal/engine"
)

// SourceLimiter bounds the number of in-flight requests per source. It is
// shared across every query execution of an engine, so a burst of
// bind-join blocks issued by many concurrent queries cannot stampede a
// single source: at most Limit() requests per source are executing (from
// wrapper invocation until the response stream is fully consumed) and the
// rest wait in FIFO-ish order on the source's semaphore, honouring context
// cancellation while they wait.
type SourceLimiter struct {
	limit int

	mu       sync.Mutex
	sems     map[string]chan struct{}
	inflight map[string]int
	peak     map[string]int
}

// NewSourceLimiter returns a limiter allowing perSource concurrent
// in-flight requests for each source. perSource < 1 is treated as 1.
func NewSourceLimiter(perSource int) *SourceLimiter {
	if perSource < 1 {
		perSource = 1
	}
	return &SourceLimiter{
		limit:    perSource,
		sems:     make(map[string]chan struct{}),
		inflight: make(map[string]int),
		peak:     make(map[string]int),
	}
}

// Limit returns the per-source in-flight limit.
func (l *SourceLimiter) Limit() int { return l.limit }

func (l *SourceLimiter) sem(sourceID string) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.sems[sourceID]
	if !ok {
		s = make(chan struct{}, l.limit)
		l.sems[sourceID] = s
	}
	return s
}

// Acquire blocks until the source has a free in-flight slot or the context
// is cancelled.
func (l *SourceLimiter) Acquire(ctx context.Context, sourceID string) error {
	select {
	case l.sem(sourceID) <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	l.mu.Lock()
	l.inflight[sourceID]++
	if l.inflight[sourceID] > l.peak[sourceID] {
		l.peak[sourceID] = l.inflight[sourceID]
	}
	l.mu.Unlock()
	return nil
}

// Release frees one in-flight slot of the source.
func (l *SourceLimiter) Release(sourceID string) {
	l.mu.Lock()
	l.inflight[sourceID]--
	s := l.sems[sourceID]
	l.mu.Unlock()
	<-s
}

// InFlight returns the source's current number of in-flight requests.
func (l *SourceLimiter) InFlight(sourceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight[sourceID]
}

// Peak returns the highest number of simultaneously in-flight requests
// observed for the source.
func (l *SourceLimiter) Peak(sourceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak[sourceID]
}

// Sources lists the sources that have seen at least one request.
func (l *SourceLimiter) Sources() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.sems))
	for id := range l.sems {
		out = append(out, id)
	}
	return out
}

// Limited wraps w so that every request holds one of the limiter's
// in-flight slots for the source from invocation until the response stream
// is drained (or the context is cancelled), except when a slow consumer
// falls relayBacklogCap batches behind — then the slot is released early
// rather than held while blocked (see ExecuteColumnar). A nil limiter
// returns w unchanged.
func Limited(w Wrapper, l *SourceLimiter) Wrapper {
	if l == nil {
		return w
	}
	return &limitedWrapper{inner: w, lim: l}
}

type limitedWrapper struct {
	inner Wrapper
	lim   *SourceLimiter
}

// SourceID implements Wrapper.
func (w *limitedWrapper) SourceID() string { return w.inner.SourceID() }

// relayBacklogCap bounds how many batches the limiter's relay buffers on
// behalf of a slow consumer. Below the cap the relay absorbs batches so a
// dependent join waiting on another request to the same source cannot
// deadlock the limiter; at the cap it gives the source slot back and
// relays the rest with backpressure instead of buffering the whole
// response in memory.
const relayBacklogCap = 64

// ExecuteColumnar implements Wrapper. The slot is held while the source
// produces the response — from invocation until the inner stream closes
// (all simulated response messages transferred) — but never while blocked on
// the downstream consumer: up to relayBacklogCap batches the consumer is
// slow to read are buffered locally (and opportunistically drained
// between receives), and once the consumer falls the full cap behind, the
// slot is released BEFORE the relay starts blocking sends. Either way a
// dependent join waiting on another request to the same source cannot
// deadlock the limiter — at the price, past the cap, of the source's true
// concurrency briefly exceeding the limit.
func (w *limitedWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	id := w.inner.SourceID()
	if err := w.lim.Acquire(ctx, id); err != nil {
		return nil, err
	}
	in, err := w.inner.ExecuteColumnar(ctx, req, schema, d)
	if err != nil {
		w.lim.Release(id)
		return nil, err
	}
	out := engine.NewCStream(schema, 4)
	go func() {
		defer out.Close()
		released := false
		release := func() {
			if !released {
				released = true
				w.lim.Release(id)
			}
		}
		defer release()
		var backlog []*engine.ColBatch
		for batch := range in.Batches() {
			// Drain whatever the consumer will take before growing the
			// backlog; order is preserved because the backlog always goes
			// first.
			for len(backlog) > 0 && out.TrySendBatch(backlog[0]) {
				backlog[0] = nil
				backlog = backlog[1:]
			}
			if len(backlog) == 0 && out.TrySendBatch(batch) {
				continue
			}
			backlog = append(backlog, batch)
			if len(backlog) >= relayBacklogCap {
				// The consumer is a full cap behind: stop absorbing and relay
				// with backpressure. Release the slot first — blocking on the
				// consumer while holding it would reintroduce the dependent-
				// join deadlock the backlog exists to prevent (the consumer
				// may be waiting on another request to this same source).
				release()
				for _, b := range backlog {
					if !out.SendBatch(ctx, b) {
						return
					}
				}
				backlog = nil
			}
		}
		release()
		for _, batch := range backlog {
			if !out.SendBatch(ctx, batch) {
				// SendBatch only fails on cancellation; the inner producer
				// observes the same context and has already closed.
				return
			}
		}
	}()
	return out, nil
}
