package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// rawProducer feeds n single-row batches binding ?x into a new stream with
// plain channel sends — a producer that does NOT watch the context, the
// worst case for operators that stop consuming their inputs. It closes
// done when it finished.
func rawProducer(d *dict.Dict, n int) (*CStream, chan struct{}) {
	schema := NewSchema([]string{"x"})
	s := NewCStream(schema, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer s.Close()
		for i := 0; i < n; i++ {
			s.ch <- EncodeBatch([]sparql.Binding{{"x": rdf.NewLiteral(fmt.Sprint(i))}}, schema, d)
		}
	}()
	return s, done
}

func awaitDone(t *testing.T, label string, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: producer goroutine leaked (input not drained after cancellation)", label)
	}
}

// TestBindJoinDrainsInputsOnCancel: a sequential bind join (a block of
// one seed, one request in flight) whose output is abandoned mid-stream
// must keep draining its left input so the producer goroutine can finish
// — the goroutine-leak regression under client disconnects.
func TestBindJoinDrainsInputsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	left, leftDone := rawProducer(d, 500)
	service := func(ctx context.Context, seed Seeds) *CStream {
		return CFromBindings(ctx, seed.Bindings(d), left.Schema(), d, 0)
	}
	out := CBindJoin(ctx, left, service, []string{"x"}, left.Schema(), 1, 1, 0)
	out.Recv(nil) // one answer arrived, then the client goes away
	cancel()
	awaitDone(t, "bind-join", leftDone)
	out.Drain()
}

// TestSymmetricHashJoinDrainsInputsOnCancel: same property for the hash
// join, on both inputs.
func TestSymmetricHashJoinDrainsInputsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	left, leftDone := rawProducer(d, 500)
	right, rightDone := rawProducer(d, 500)
	out := CSymmetricHashJoin(ctx, left, right, []string{"x"}, left.Schema(), 0)
	out.Recv(nil)
	cancel()
	awaitDone(t, "hash-join left", leftDone)
	awaitDone(t, "hash-join right", rightDone)
	out.Drain()
}

// TestBlockBindJoinDrainsInputsOnCancel: with blocks and several requests
// in flight the join must drain both the left input and the in-flight
// block responses.
func TestBlockBindJoinDrainsInputsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	left, leftDone := rawProducer(d, 500)
	service := func(ctx context.Context, seeds Seeds) *CStream {
		return CFromBindings(ctx, seeds.Bindings(d), left.Schema(), d, 0)
	}
	out := CBindJoin(ctx, left, service, []string{"x"}, left.Schema(), 8, 2, 0)
	out.Recv(nil)
	cancel()
	awaitDone(t, "block-bind-join", leftDone)
	out.Drain()
}

// TestBindJoinStopsDispatchingOnCancel: once the output is abandoned the
// bind join stops sending requests — a left input that ignores
// cancellation must not turn into one service call per remaining block.
// Only the requests already holding a slot may reach the service after
// the cancel: at most W of them.
func TestBindJoinStopsDispatchingOnCancel(t *testing.T) {
	for _, cfg := range []struct{ block, conc int }{{1, 1}, {8, 4}} {
		label := fmt.Sprintf("B=%d W=%d", cfg.block, cfg.conc)
		ctx, cancel := context.WithCancel(context.Background())
		d := dict.New()
		left, leftDone := rawProducer(d, 10000)
		var calls, late atomic.Int64
		service := func(ctx context.Context, seeds Seeds) *CStream {
			calls.Add(1)
			if ctx.Err() != nil {
				late.Add(1)
			}
			return CFromBindings(ctx, seeds.Bindings(d), left.Schema(), d, 0)
		}
		out := CBindJoin(ctx, left, service, []string{"x"}, left.Schema(), cfg.block, cfg.conc, 0)
		if _, ok := out.Recv(nil); !ok {
			t.Fatalf("%s: no answer before cancellation", label)
		}
		cancel()
		awaitDone(t, label, leftDone)
		out.Drain()
		if n := late.Load(); n > int64(cfg.conc) {
			t.Errorf("%s: %d of %d requests reached the service after cancel, want at most %d", label, n, calls.Load(), cfg.conc)
		}
	}
}
