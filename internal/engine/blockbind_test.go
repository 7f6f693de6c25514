package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// sliceService mimics a wrapper's seeded contract over a materialized
// right relation: every right binding compatible with at least one seed,
// each exactly once, unmerged.
func sliceService(d *dict.Dict, rights []sparql.Binding) CService {
	schema := NewSchema(varsOf(rights))
	return func(ctx context.Context, ids Seeds) *CStream {
		var out []sparql.Binding
		seeds := ids.Bindings(d)
		for _, rb := range rights {
			ok := false
			for _, s := range seeds {
				if s.Compatible(rb) {
					ok = true
					break
				}
			}
			if ok {
				out = append(out, rb)
			}
		}
		return CFromBindings(ctx, out, schema, d, 0)
	}
}

func multiset(bs []sparql.Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.FullKey()
	}
	sort.Strings(out)
	return out
}

func assertSameMultiset(t *testing.T, label string, got, want []sparql.Binding) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d answers, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset differs at %d:\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// randomRelation draws a relation over vars with values from a small
// domain, so joins hit both matches and misses. Every listed var is bound.
func randomRelation(rng *rand.Rand, vars []string, n int) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := range out {
		b := sparql.NewBinding()
		for _, v := range vars {
			b[v] = rdf.IntLiteral(int64(rng.Intn(4)))
		}
		out[i] = b
	}
	return out
}

// TestJoinOperatorEquivalence is the property test: on randomized inputs —
// including empty sides and an empty join-variable set (cross product) —
// CBindJoin at every block size and concurrency, from the sequential
// (1, 1) up, and CSymmetricHashJoin must all produce the reference
// multiset of answers.
func TestJoinOperatorEquivalence(t *testing.T) {
	shapes := []struct {
		leftVars, rightVars, joinVars []string
	}{
		{[]string{"x", "a"}, []string{"x", "b"}, []string{"x"}},
		{[]string{"x", "y", "a"}, []string{"x", "y", "b"}, []string{"x", "y"}},
		{[]string{"a"}, []string{"b"}, nil}, // no shared vars: cross product
	}
	for iter := 0; iter < 60; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		shape := shapes[iter%len(shapes)]
		nl := rng.Intn(40)
		nr := rng.Intn(40)
		if iter%7 == 0 {
			nl = 0 // force an empty left now and then
		}
		if iter%11 == 0 {
			nr = 0
		}
		lefts := randomRelation(rng, shape.leftVars, nl)
		rights := randomRelation(rng, shape.rightVars, nr)
		want := referenceJoin(lefts, rights)
		ctx := context.Background()
		d := dict.New()
		out := outSchema(lefts, rights)
		batch := 1 + iter%5

		label := func(op string) string {
			return fmt.Sprintf("iter %d, %s join on %v (%dx%d)", iter, op, shape.joinVars, nl, nr)
		}
		for _, cfg := range [][2]int{{1, 1}, {1, 4}, {3, 2}, {16, 4}, {100, 8}} {
			got := collect(CBindJoin(ctx, feed(ctx, d, lefts, batch), sliceService(d, rights),
				shape.joinVars, out, cfg[0], cfg[1], batch), d)
			assertSameMultiset(t, label(fmt.Sprintf("bind B=%d W=%d", cfg[0], cfg[1])), got, want)
		}

		got := collect(CSymmetricHashJoin(ctx, feed(ctx, d, lefts, batch), feed(ctx, d, rights, batch), shape.joinVars, out, batch), d)
		assertSameMultiset(t, label("symmetric-hash"), got, want)
	}
}

// TestBlockBindJoinUnboundLeftJoinVar exercises the unconstrained-block
// path: a left binding that does not bind the join variable joins with
// every right binding, in a block of one seed as in a larger block.
func TestBlockBindJoinUnboundLeftJoinVar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		lefts := randomRelation(rng, []string{"x", "a"}, 15)
		for i := range lefts {
			if rng.Intn(3) == 0 {
				delete(lefts[i], "x") // join var unbound on this left binding
			}
		}
		rights := randomRelation(rng, []string{"x", "b"}, 20)
		want := referenceJoin(lefts, rights)
		ctx := context.Background()
		d := dict.New()
		out := outSchema(lefts, rights)
		for _, cfg := range [][2]int{{1, 1}, {1, 3}, {4, 3}, {64, 3}} {
			got := collect(CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights),
				[]string{"x"}, out, cfg[0], cfg[1], 0), d)
			assertSameMultiset(t, fmt.Sprintf("iter %d B=%d W=%d", iter, cfg[0], cfg[1]), got, want)
		}
	}
}

// TestBlockBindJoinBatchesRequests checks the message story at the
// operator level: n left bindings and block size B mean exactly ⌈n/B⌉
// service invocations.
func TestBlockBindJoinBatchesRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, block, want int }{
		{64, 16, 4}, {65, 16, 5}, {5, 16, 1}, {0, 16, 0}, {10, 1, 10},
	} {
		lefts := randomRelation(rng, []string{"x"}, tc.n)
		var mu sync.Mutex
		calls := 0
		d := dict.New()
		schema := NewSchema([]string{"x"})
		svc := func(ctx context.Context, seeds Seeds) *CStream {
			mu.Lock()
			calls++
			mu.Unlock()
			return CFromBindings(ctx, nil, schema, d, 0)
		}
		ctx := context.Background()
		collect(CBindJoin(ctx, feed(ctx, d, lefts, 0), svc, []string{"x"}, schema, tc.block, 4, 0), d)
		if calls != tc.want {
			t.Errorf("n=%d B=%d: %d service calls, want %d", tc.n, tc.block, calls, tc.want)
		}
	}
}

// TestBlockBindJoinCancellation cancels the context mid-stream and expects
// every operator to terminate and close its output.
func TestBlockBindJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lefts := randomRelation(rng, []string{"x", "a"}, 5000)
	rights := randomRelation(rng, []string{"x", "b"}, 200)

	d := dict.New()
	out := outSchema(lefts, rights)
	streams := map[string]func(ctx context.Context) *CStream{
		"bind": func(ctx context.Context) *CStream {
			return CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights), []string{"x"}, out, 1, 1, 0)
		},
		"block-bind": func(ctx context.Context) *CStream {
			return CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights), []string{"x"}, out, 16, 4, 0)
		},
		"symmetric-hash": func(ctx context.Context) *CStream {
			return CSymmetricHashJoin(ctx, feed(ctx, d, lefts, 0), feed(ctx, d, rights, 0), []string{"x"}, out, 0)
		},
	}
	for name, mk := range streams {
		ctx, cancel := context.WithCancel(context.Background())
		out := mk(ctx)
		got := 0
		for batch, ok := out.Recv(nil); ok; batch, ok = out.Recv(nil) {
			got += batch.Len
			if got >= 10 {
				cancel()
			}
		}
		cancel()
		if got < 10 {
			t.Errorf("%s: stream ended after %d answers, before cancellation", name, got)
		}
		// Reaching here at all means the stream closed after cancellation
		// instead of deadlocking; the watchdog below guards regressions.
	}
}

// TestBlockBindJoinCancellationDoesNotLeak gives the cancellation path a
// deadline: the output stream must close well before the test times out.
func TestBlockBindJoinCancellationDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lefts := randomRelation(rng, []string{"x"}, 10000)
	rights := randomRelation(rng, []string{"x", "b"}, 500)
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	out := CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights), []string{"x"}, outSchema(lefts, rights), 8, 4, 0)
	out.Recv(nil) // first answers prove the pipeline is running
	cancel()
	done := make(chan struct{})
	go func() {
		out.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("block bind join did not terminate after context cancellation")
	}
}

// TestBindJoinInFlightBound: concurrency bounds the requests in flight —
// one at a time for the sequential bind join — and a response's answers
// go downstream as its batches arrive, not when its stream ends.
func TestBindJoinInFlightBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lefts := randomRelation(rng, []string{"x", "a"}, 200)
	rights := randomRelation(rng, []string{"x", "b"}, 50)
	out := outSchema(lefts, rights)
	for _, cfg := range []struct{ block, conc int }{{1, 1}, {1, 4}, {8, 4}} {
		label := fmt.Sprintf("B=%d W=%d", cfg.block, cfg.conc)
		ctx := context.Background()
		d := dict.New()
		answer := sliceService(d, rights)
		var inFlight, peak atomic.Int64
		svc := func(ctx context.Context, seeds Seeds) *CStream {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			src := answer(ctx, seeds)
			s := NewCStream(src.Schema(), 1)
			go func() {
				for b, ok := src.Recv(nil); ok; b, ok = src.Recv(nil) {
					s.SendBatch(ctx, b)
				}
				time.Sleep(50 * time.Microsecond) // let the other slots overlap
				inFlight.Add(-1)                  // before the join sees the end
				s.Close()
			}()
			return s
		}
		got := collect(CBindJoin(ctx, feed(ctx, d, lefts, 0), svc, []string{"x"}, out, cfg.block, cfg.conc, 0), d)
		assertSameMultiset(t, label, got, referenceJoin(lefts, rights))
		if p := peak.Load(); p > int64(cfg.conc) || (cfg.conc == 1 && p != 1) {
			t.Errorf("%s: %d requests in flight at once", label, p)
		}

		// A response that sends one batch and then stalls: its answer must
		// reach the consumer while the stream is still open.
		release := make(chan struct{})
		stall := func(ctx context.Context, seeds Seeds) *CStream {
			s := NewCStream(NewSchema([]string{"x", "b"}), 1)
			go func() {
				defer s.Close()
				s.SendBatch(ctx, EncodeBatch(seeds.Bindings(d)[:1], s.Schema(), d))
				<-release
			}()
			return s
		}
		one := []sparql.Binding{b("x", "1")}
		ctx, cancel := context.WithCancel(context.Background())
		stream := CBindJoin(ctx, feed(ctx, d, one, 0), stall, []string{"x"}, NewSchema([]string{"x"}), cfg.block, cfg.conc, 0)
		first := make(chan bool, 1)
		go func() {
			_, ok := stream.Recv(nil)
			first <- ok
		}()
		var ok, early bool
		select {
		case ok = <-first:
			early = true
		case <-time.After(5 * time.Second):
		}
		close(release)
		if !early {
			ok = <-first
			t.Errorf("%s: the answer was held back until the response stream ended", label)
		}
		if !ok {
			t.Errorf("%s: stream ended without the stalled response's answer", label)
		}
		cancel()
		stream.Drain()
	}
}

// batchedStream sends rows as consecutive batches of the given sizes over
// schema and closes the stream.
func batchedStream(d *dict.Dict, schema *Schema, rows []sparql.Binding, sizes []int) *CStream {
	s := NewCStream(schema, len(sizes))
	for _, n := range sizes {
		s.ch <- EncodeBatch(rows[:n], schema, d)
		rows = rows[n:]
	}
	s.Close()
	return s
}

// growingBlocks is the reference block rule, written from the batch sizes
// alone: a block is sent once the rows that arrived but were not yet sent
// reach the current size, takes at most limit of them, and doubles the size
// up to limit; the end of the input sends the rest. It returns the blocks
// as [from, to) windows of the concatenated input.
func growingBlocks(sizes []int, limit int) [][2]int {
	var blocks [][2]int
	arrived, sent, size := 0, 0, 1
	for _, n := range sizes {
		arrived += n
		for arrived-sent >= size {
			to := sent + min(limit, arrived-sent)
			blocks = append(blocks, [2]int{sent, to})
			sent = to
			size = min(2*size, limit)
		}
	}
	if sent < arrived {
		blocks = append(blocks, [2]int{sent, arrived})
	}
	return blocks
}

// TestBindJoinBlockComposition records the seeds of every service call
// while the left input arrives in uneven batches, in one-row batches and
// in a single batch, so that blocks lie inside a batch, span two or more,
// and end the input short: the calls must carry the windows of the
// concatenated left input that growingBlocks derives from the batch sizes,
// in order, each deduplicated on the join value in first-occurrence order
// (a row leaving the join variable unbound makes its window one
// unconstrained seed), and the answers must be the reference join's.
func TestBindJoinBlockComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lefts := randomRelation(rng, []string{"x", "a"}, 65)
	delete(lefts[20], "x")
	delete(lefts[50], "x")
	rights := randomRelation(rng, []string{"x", "b"}, 30)
	want := referenceJoin(lefts, rights)
	schema := NewSchema([]string{"a", "x"})
	out := outSchema(lefts, rights)
	ones := make([]int, len(lefts))
	for i := range ones {
		ones[i] = 1
	}

	// The reference itself: rows one at a time ramp 1, 2, 4, 8, then full
	// blocks; the whole input in one batch gets fixed windows of B rows.
	var lens []int
	for _, w := range growingBlocks(ones, 16) {
		lens = append(lens, w[1]-w[0])
	}
	if wantLens := []int{1, 2, 4, 8, 16, 16, 16, 2}; !slices.Equal(lens, wantLens) {
		t.Fatalf("one-row batches, B=16: reference blocks of %v rows, want %v", lens, wantLens)
	}
	for _, block := range []int{1, 3, 16} {
		var fixed [][2]int
		for w := 0; w < len(lefts); w += block {
			fixed = append(fixed, [2]int{w, min(w+block, len(lefts))})
		}
		if got := growingBlocks([]int{len(lefts)}, block); !slices.Equal(got, fixed) {
			t.Fatalf("one batch, B=%d: reference blocks %v, want the fixed windows %v", block, got, fixed)
		}
	}

	for _, sizes := range [][]int{{5, 40, 3, 16, 1}, ones, {len(lefts)}} {
		for _, block := range []int{1, 3, 16} {
			var wantSeeds [][]string
			for _, w := range growingBlocks(sizes, block) {
				var seeds []string
				for _, l := range lefts[w[0]:w[1]] {
					x, ok := l["x"]
					if !ok {
						seeds = []string{"(unbound)"}
						break
					}
					if !slices.Contains(seeds, x.String()) {
						seeds = append(seeds, x.String())
					}
				}
				wantSeeds = append(wantSeeds, seeds)
			}
			for _, conc := range []int{1, 3} {
				label := fmt.Sprintf("batches %v B=%d W=%d", sizes, block, conc)
				if len(sizes) > 5 {
					label = fmt.Sprintf("%d one-row batches B=%d W=%d", len(sizes), block, conc)
				}
				ctx := context.Background()
				d := dict.New()
				answer := sliceService(d, rights)
				var mu sync.Mutex
				var calls [][]string
				svc := func(ctx context.Context, ids Seeds) *CStream {
					var seeds []string
					for _, s := range ids.Bindings(d) {
						if x, ok := s["x"]; ok {
							seeds = append(seeds, x.String())
						} else {
							seeds = append(seeds, "(unbound)")
						}
					}
					mu.Lock()
					calls = append(calls, seeds)
					mu.Unlock()
					return answer(ctx, ids)
				}
				got := collect(CBindJoin(ctx, batchedStream(d, schema, lefts, sizes), svc, []string{"x"}, out, block, conc, 0), d)
				assertSameMultiset(t, label, got, want)
				wantCalls := wantSeeds
				if conc > 1 { // requests in flight reach the service in any order
					key := func(s []string) string { return strings.Join(s, " ") }
					wantCalls = slices.Clone(wantSeeds)
					slices.SortFunc(wantCalls, func(a, b []string) int { return strings.Compare(key(a), key(b)) })
					slices.SortFunc(calls, func(a, b []string) int { return strings.Compare(key(a), key(b)) })
				}
				if !slices.EqualFunc(calls, wantCalls, slices.Equal[[]string]) {
					t.Errorf("%s: service calls carried seeds\n %v\nwant\n %v", label, calls, wantCalls)
				}
			}
		}
	}
}
