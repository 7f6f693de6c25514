package wrapper

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/engine"
)

// oneRow is the batch the test wrappers emit: a single row binding
// nothing, over the empty schema of an empty Request.
func oneRow(schema *engine.Schema) *engine.ColBatch {
	b := &engine.ColBatch{Schema: schema, Len: 1, Cols: make([][]dict.ID, len(schema.Vars))}
	for c := range b.Cols {
		b.Cols[c] = []dict.ID{dict.Unbound}
	}
	return b
}

// answered returns a closed stream already holding n single-row batches:
// a response in hand, the way every wrapper answers before it streams.
func answered(ctx context.Context, schema *engine.Schema, n int) *engine.CStream {
	out := engine.NewCStream(schema, n)
	for range n {
		out.SendBatch(ctx, oneRow(schema))
	}
	out.Close()
	return out
}

// slowWrapper is a test wrapper that works for delay inside
// ExecuteColumnar, tracking its own concurrency while it does, and then
// answers a fixed number of single-row batches, so that many overlapping
// invocations are observable.
type slowWrapper struct {
	id      string
	delay   time.Duration
	answers int

	cur  atomic.Int32
	peak atomic.Int32
}

func (w *slowWrapper) SourceID() string { return w.id }

func (w *slowWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	n := w.cur.Add(1)
	defer w.cur.Add(-1)
	for {
		p := w.peak.Load()
		if n <= p || w.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(w.delay)
	return answered(ctx, schema, w.answers), nil
}

func TestSourceLimiterBoundsInFlight(t *testing.T) {
	const limit, requests = 3, 20
	inner := &slowWrapper{id: "src", delay: time.Millisecond, answers: 2}
	lim := NewSourceLimiter(limit)
	w := Limited(inner, lim)

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := execute(context.Background(), w, &Request{})
			if err != nil {
				t.Errorf("ExecuteColumnar: %v", err)
				return
			}
			for range s.Batches() {
			}
		}()
	}
	wg.Wait()

	if got := inner.peak.Load(); int(got) > limit {
		t.Fatalf("peak in-flight %d exceeds limit %d", got, limit)
	}
	if got := lim.Peak("src"); got > limit {
		t.Fatalf("limiter peak %d exceeds limit %d", got, limit)
	}
	if got := lim.InFlight("src"); got != 0 {
		t.Fatalf("in-flight after completion = %d, want 0", got)
	}
}

// TestSourceLimiterManySourcesConcurrent interleaves Acquire/Release on
// many sources so releases race against first-use semaphore creation; run
// under -race it is the regression test for the unlocked sems-map read
// Release used to do.
func TestSourceLimiterManySourcesConcurrent(t *testing.T) {
	lim := NewSourceLimiter(2)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("src-%d", (g+i)%10)
				if err := lim.Acquire(context.Background(), src); err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				lim.Release(src)
			}
		}(g)
	}
	wg.Wait()
	for _, src := range lim.Sources() {
		if lim.InFlight(src) != 0 {
			t.Errorf("source %s left with in-flight slots", src)
		}
	}
}

func TestSourceLimiterAcquireCancellation(t *testing.T) {
	lim := NewSourceLimiter(1)
	if err := lim.Acquire(context.Background(), "src"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := lim.Acquire(ctx, "src"); err == nil {
		t.Fatal("Acquire succeeded on a saturated source with a cancelled context")
	}
	lim.Release("src")
	if err := lim.Acquire(context.Background(), "src"); err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	lim.Release("src")
}

func TestLimitedReleasesOnConsumerCancellation(t *testing.T) {
	inner := &slowWrapper{id: "src", delay: time.Millisecond, answers: 1000}
	lim := NewSourceLimiter(1)
	w := Limited(inner, lim)

	ctx, cancel := context.WithCancel(context.Background())
	s, err := execute(ctx, w, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	<-s.Batches() // first answer arrived; request is mid-stream
	cancel()

	deadline := time.Now().Add(2 * time.Second)
	for lim.InFlight("src") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot not released after consumer cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// fountainWrapper answers n single-row batches as fast as it can,
// counting how many it handed over.
type fountainWrapper struct {
	id   string
	n    int
	sent atomic.Int32
}

func (w *fountainWrapper) SourceID() string { return w.id }

func (w *fountainWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	out := answered(ctx, schema, w.n)
	w.sent.Add(int32(w.n))
	return out, nil
}

// TestLimitedHoldsSlotOnlyWhileSourceAnswers: a source slot is held while
// the source answers, never while its response waits to be read. At
// limit 1 a consumer that is itself waiting on another request to the
// same source — a dependent join over an unread response — must not
// deadlock the limiter.
func TestLimitedHoldsSlotOnlyWhileSourceAnswers(t *testing.T) {
	const total = 256
	inner := &fountainWrapper{id: "src", n: total}
	lim := NewSourceLimiter(1)
	w := Limited(inner, lim)

	out, err := execute(context.Background(), w, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody has read out: the source has answered and its slot is free.
	if got := lim.InFlight("src"); got != 0 {
		t.Fatalf("in-flight with the response unread = %d, want 0", got)
	}
	if got := inner.sent.Load(); got != total {
		t.Fatalf("source handed over %d batches before returning, want %d", got, total)
	}
	// A second request to the same source runs to completion.
	out2, err := execute(context.Background(), w, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	got2 := 0
	for range out2.Batches() {
		got2++
	}
	if got2 != total {
		t.Fatalf("second request received %d batches, want %d", got2, total)
	}
	// The first response still arrives in full once its consumer reads.
	got := 0
	for range out.Batches() {
		got++
	}
	if got != total {
		t.Fatalf("first request received %d batches, want %d", got, total)
	}
}
