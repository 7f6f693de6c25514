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
// single source: at most Limit() requests per source are executing and
// the rest wait in FIFO-ish order on the source's semaphore, honouring
// context cancellation while they wait. A slot is held while the source
// answers (see Limited); the simulated transfer is not source work.
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
// in-flight slots for the source while the source answers: from
// invocation until ExecuteColumnar returns, which under the Wrapper
// contract is when the whole response is in hand. The simulated transfer
// of the returned stream is not source work and holds no slot, so no slot
// outlives the call and a consumer waiting on another request to the same
// source cannot deadlock the limiter. A nil limiter returns w unchanged.
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

// ExecuteColumnar implements Wrapper.
func (w *limitedWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	id := w.inner.SourceID()
	if err := w.lim.Acquire(ctx, id); err != nil {
		return nil, err
	}
	defer w.lim.Release(id)
	return w.inner.ExecuteColumnar(ctx, req, schema, d)
}
