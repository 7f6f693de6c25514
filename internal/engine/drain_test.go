package engine

import (
	"context"
	"fmt"
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

// TestBindJoinDrainsInputsOnCancel: a bind join whose output is abandoned
// mid-stream must keep draining its left input so the producer goroutine
// can finish — the goroutine-leak regression under client disconnects.
func TestBindJoinDrainsInputsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	left, leftDone := rawProducer(d, 500)
	service := func(ctx context.Context, seed Seeds) *CStream {
		return CFromBindings(ctx, seed.Bindings(d), left.Schema(), d, 0)
	}
	out := CBindJoin(ctx, left, service, []string{"x"}, left.Schema(), 0)
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
	out := CSymmetricHashJoin(ctx, left, right, []string{"x"}, left.Schema(), 4, 0)
	out.Recv(nil)
	cancel()
	awaitDone(t, "hash-join left", leftDone)
	awaitDone(t, "hash-join right", rightDone)
	out.Drain()
}

// TestBlockBindJoinDrainsInputsOnCancel: the block variant must drain both
// the left input and the in-flight block responses.
func TestBlockBindJoinDrainsInputsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := dict.New()
	left, leftDone := rawProducer(d, 500)
	service := func(ctx context.Context, seeds Seeds) *CStream {
		return CFromBindings(ctx, seeds.Bindings(d), left.Schema(), d, 0)
	}
	out := CBlockBindJoin(ctx, left, service, []string{"x"}, left.Schema(), 8, 2, 0)
	out.Recv(nil)
	cancel()
	awaitDone(t, "block-bind-join", leftDone)
	out.Drain()
}
