package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// sliceService mimics a wrapper's sequential bind-join contract over a
// materialized right relation: rights compatible with the seed, merged
// with it.
func sliceService(d *dict.Dict, rights []sparql.Binding) CService {
	schema := NewSchema(varsOf(rights))
	return func(ctx context.Context, seeds Seeds) *CStream {
		seed := seeds.Bindings(d)[0]
		var out []sparql.Binding
		for _, rb := range rights {
			if seed.Compatible(rb) {
				out = append(out, seed.Merge(rb))
			}
		}
		return CFromBindings(ctx, out, schema, d, 0)
	}
}

// sliceBlockService mimics a wrapper's multi-seed contract: every right
// binding compatible with at least one seed, each exactly once, unmerged.
func sliceBlockService(d *dict.Dict, rights []sparql.Binding) CBlockService {
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
// CBlockBindJoin, CBindJoin and CSymmetricHashJoin must all produce the
// reference multiset of answers.
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
		got := collect(CBindJoin(ctx, feed(ctx, d, lefts, batch), sliceService(d, rights), shape.joinVars, out, batch), d)
		assertSameMultiset(t, label("bind"), got, want)

		for _, cfg := range [][2]int{{1, 1}, {3, 2}, {16, 4}, {100, 8}} {
			got = collect(CBlockBindJoin(ctx, feed(ctx, d, lefts, batch), sliceBlockService(d, rights),
				shape.joinVars, out, cfg[0], cfg[1], batch), d)
			assertSameMultiset(t, label(fmt.Sprintf("block-bind B=%d W=%d", cfg[0], cfg[1])), got, want)
		}

		got = collect(CSymmetricHashJoin(ctx, feed(ctx, d, lefts, batch), feed(ctx, d, rights, batch), shape.joinVars, out, 1+iter%4, batch), d)
		assertSameMultiset(t, label("symmetric-hash"), got, want)
	}
}

// TestBlockBindJoinUnboundLeftJoinVar exercises the unconstrained-block
// path: a left binding that does not bind the join variable joins with
// every right binding, exactly as in the sequential bind join.
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
		for _, blockSize := range []int{1, 4, 64} {
			got := collect(CBlockBindJoin(ctx, feed(ctx, d, lefts, 0), sliceBlockService(d, rights),
				[]string{"x"}, out, blockSize, 3, 0), d)
			assertSameMultiset(t, fmt.Sprintf("iter %d B=%d", iter, blockSize), got, want)
		}
		got := collect(CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights), []string{"x"}, out, 0), d)
		assertSameMultiset(t, fmt.Sprintf("iter %d bind", iter), got, want)
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
		collect(CBlockBindJoin(ctx, feed(ctx, d, lefts, 0), svc, []string{"x"}, schema, tc.block, 4, 0), d)
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
			return CBindJoin(ctx, feed(ctx, d, lefts, 0), sliceService(d, rights), []string{"x"}, out, 0)
		},
		"block-bind": func(ctx context.Context) *CStream {
			return CBlockBindJoin(ctx, feed(ctx, d, lefts, 0), sliceBlockService(d, rights), []string{"x"}, out, 16, 4, 0)
		},
		"symmetric-hash": func(ctx context.Context) *CStream {
			return CSymmetricHashJoin(ctx, feed(ctx, d, lefts, 0), feed(ctx, d, rights, 0), []string{"x"}, out, 4, 0)
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
	out := CBlockBindJoin(ctx, feed(ctx, d, lefts, 0), sliceBlockService(d, rights), []string{"x"}, outSchema(lefts, rights), 8, 4, 0)
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
