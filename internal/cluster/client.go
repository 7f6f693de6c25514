package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/wrapper"
)

// ClientConfig configures a coordinator's worker-pool client.
type ClientConfig struct {
	// DialTimeout bounds each worker dial. 0 means 5s.
	DialTimeout time.Duration
	// Resilience shapes the per-worker-link health registry (timeouts,
	// retries, circuit breakers) guarding task setup; the zero value
	// applies the wrapper package's defaults.
	Resilience wrapper.ResilienceConfig
}

// Client is the coordinator side of the cluster: a core.Distributor that
// fans plan fragments out over the worker pool. It keeps one persistent
// multiplexed link per worker — tasks open streams on the link instead of
// dialing, so the per-link dictionary delta ships each term once ever.
// Stream setup runs behind a per-worker health registry — the same
// breaker/retry layer that guards remote sources — while mid-stream
// failures park on the query's execution and feed the breaker directly.
type Client struct {
	addrs       []string
	dialTimeout time.Duration
	health      *wrapper.HealthRegistry

	mu     sync.Mutex
	links  []*link
	closed bool

	colocated atomic.Bool // caches a successful co-partition check
}

// WorkerStatus is one worker link's health and traffic snapshot.
type WorkerStatus struct {
	Addr    string
	Up      bool
	Breaker string
	Err     string
	Info    *WorkerInfo

	BatchesIn       int64
	BatchesOut      int64
	BytesIn         int64
	BytesOut        int64
	ShuffledBatches int64
	ShuffledBytes   int64
	DictDeltaBytes  int64
	// RemapEntries is the current size of the live link's remap table
	// (zero while disconnected) — per persistent link, not a cumulative
	// per-task sum.
	RemapEntries int64
	Reconnects   int64
	Epoch        int64
}

// NewClient returns a client over the worker addresses.
func NewClient(addrs []string, cfg ClientConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: NewClient needs at least one worker address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return &Client{
		addrs:       addrs,
		dialTimeout: cfg.DialTimeout,
		health:      wrapper.NewHealthRegistry(cfg.Resilience),
		links:       make([]*link, len(addrs)),
	}, nil
}

// Workers implements core.Distributor.
func (c *Client) Workers() int { return len(c.addrs) }

// Health exposes the worker-link health registry (breaker states and
// measured stream-setup latency).
func (c *Client) Health() *wrapper.HealthRegistry { return c.health }

// Close tears down every persistent link. In-flight streams fail; later
// fragment calls error out.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	links := make([]*link, len(c.links))
	copy(links, c.links)
	c.mu.Unlock()
	for _, l := range links {
		if l != nil {
			l.close()
		}
	}
}

func (c *Client) workerID(i int) string { return fmt.Sprintf("worker:%d", i) }

// link returns worker i's persistent link, creating it bound to d on
// first use. All fragment traffic of a client must share one dictionary
// (in practice the executor's engine-lifetime dict): link remap state is
// meaningless across dictionaries.
func (c *Client) link(i int, d *dict.Dict) (*link, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("cluster: client closed")
	}
	l := c.links[i]
	if l == nil {
		l = newLink(c.addrs[i], c.dialTimeout, d)
		c.links[i] = l
	} else if l.d != d {
		return nil, errors.New("cluster: client used with a second dictionary")
	}
	return l, nil
}

// openStream opens a task stream on worker wi behind the worker's
// breaker/retry guard. Retrying is safe: no result bytes have been
// consumed yet, and an abandoned stream's frames drop at the demux.
func (c *Client) openStream(ctx context.Context, wi int, task []byte, out *engine.Schema, d *dict.Dict) (*clientStream, error) {
	l, err := c.link(wi, d)
	if err != nil {
		return nil, err
	}
	var st *clientStream
	err = c.health.Do(ctx, c.workerID(wi), func(ctx context.Context) error {
		var err error
		st, err = l.open(task, out)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cluster worker %s: %w", c.addrs[wi], err)
	}
	return st, nil
}

// openAll opens the task stream on every worker, releasing already-open
// streams when any worker fails.
func (c *Client) openAll(ctx context.Context, task []byte, out *engine.Schema, d *dict.Dict) ([]*clientStream, error) {
	streams := make([]*clientStream, len(c.addrs))
	for i := range c.addrs {
		st, err := c.openStream(ctx, i, task, out, d)
		if err != nil {
			for _, open := range streams {
				if open != nil {
					open.abort(nil)
					open.release()
				}
			}
			return nil, err
		}
		streams[i] = st
	}
	return streams, nil
}

// readOut relays a stream's SideOut batches into out until the worker's
// Done frame. A worker-side error frame comes back as an error; a broken
// link surfaces as the link failure.
func (c *Client) readOut(ctx context.Context, st *clientStream, out *engine.CStream) error {
	stop := context.AfterFunc(ctx, func() { st.abort(ctx.Err()) })
	defer stop()
	defer st.release()
	for {
		f, qerr, ok := st.q.pop()
		if !ok {
			if qerr == nil {
				qerr = corrupt("result stream closed without done")
			}
			return qerr
		}
		switch f.Type {
		case frameBatch:
			if f.Side != SideOut {
				return corrupt("result batch for side %d", f.Side)
			}
			if f.Batch == nil {
				continue
			}
			if !out.SendBatch(ctx, f.Batch) {
				return nil
			}
		case frameDone:
			return nil
		case frameError:
			return errors.New(string(f.Payload))
		default:
			return corrupt("unexpected frame type 0x%02x in result stream", f.Type)
		}
	}
}

// fanOut opens task on every worker and streams the union of their result
// batches (partitions are disjoint, so each answer arrives exactly once).
func (c *Client) fanOut(ctx context.Context, task []byte, schema *engine.Schema, d *dict.Dict, env core.FragmentEnv, what string) (*engine.CStream, error) {
	streams, err := c.openAll(ctx, task, schema, d)
	if err != nil {
		return nil, err
	}
	out := engine.NewCStream(schema, 2*len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *clientStream) {
			defer wg.Done()
			if err := c.readOut(ctx, st, out); err != nil && ctx.Err() == nil {
				c.health.ReportFailure(c.workerID(i), err)
				env.Fail(fmt.Errorf("cluster worker %s: %s: %w", c.addrs[i], what, err))
			}
		}(i, st)
	}
	go func() {
		wg.Wait()
		out.Close()
	}()
	return out, nil
}

// RunFragment implements core.Distributor: the serializable plan subtree
// runs whole on every worker's partition — a one-leaf fragment is one
// wrapper request, a larger one joins locally — and only results stream
// back, zero shuffled batches.
func (c *Client) RunFragment(ctx context.Context, root core.PlanNode, out *engine.Schema, d *dict.Dict, env core.FragmentEnv) (*engine.CStream, error) {
	bp := getWireBuf(0)
	defer putWireBuf(bp)
	task, err := appendFragTask(*bp, root, d, env)
	if err != nil {
		return nil, err
	}
	*bp = task
	what := "fragment"
	if svc, ok := root.(*core.ServiceNode); ok {
		what = "source " + svc.SourceID
	}
	return c.fanOut(ctx, task, out, d, env, what)
}

// Colocated implements core.Distributor: it reports whether the pool is a
// complete co-partitioned cut of the lake — every worker reachable, all
// reporting the subject-hash scheme, Of matching the pool size, and the
// partition indexes covering 0..N-1 exactly once. The first success is
// cached: partition identity is fixed at worker startup, and a restarted
// worker rejoins with the same identity or fails the query loudly either
// way.
func (c *Client) Colocated(ctx context.Context, d *dict.Dict) bool {
	if c.colocated.Load() {
		return true
	}
	W := len(c.addrs)
	seen := make([]bool, W)
	for i := range c.addrs {
		l, err := c.link(i, d)
		if err != nil {
			return false
		}
		info, err := l.handshake()
		if err != nil {
			return false
		}
		if info.Scheme != PartitionScheme || info.Of != W {
			return false
		}
		if info.Partition < 0 || info.Partition >= W || seen[info.Partition] {
			return false
		}
		seen[info.Partition] = true
	}
	c.colocated.Store(true)
	return true
}

// ShuffleJoin implements core.Distributor: both inputs hash-partition by
// join key across the workers (the row hash the in-process join buckets
// by), each worker symmetric-hash-joins its partition, and the
// output is the union of the per-worker joins.
func (c *Client) ShuffleJoin(ctx context.Context, left, right *engine.CStream, joinVars []string, out *engine.Schema, d *dict.Dict, env core.FragmentEnv) (*engine.CStream, error) {
	bp := getWireBuf(0)
	defer putWireBuf(bp)
	*bp = appendJoinTask(*bp, joinVars, left.Schema().Vars, right.Schema().Vars, out.Vars, env)
	streams, err := c.openAll(ctx, *bp, out, d)
	if err != nil {
		return nil, err
	}

	W := len(streams)
	batch := env.Opts.EffectiveBatchSize()
	// dead[i] is set once worker i's stream failed; the partitioners skip
	// it from then on (the failure itself is parked on the execution, so
	// the query surfaces the error after the stream drains).
	dead := make([]atomic.Bool, W)

	fail := func(wi int, err error) {
		if ctx.Err() != nil || dead[wi].Swap(true) {
			return
		}
		c.health.ReportFailure(c.workerID(wi), err)
		env.Fail(fmt.Errorf("cluster worker %s: shuffle: %w", c.addrs[wi], err))
	}

	var sendWG sync.WaitGroup
	sendSide := func(side byte, in *engine.CStream) {
		defer sendWG.Done()
		pos := in.Schema().Positions(joinVars)
		mapping := make([]int, len(in.Schema().Vars))
		for i := range mapping {
			mapping[i] = i
		}
		// Each worker's builder is reused: the encoder copies a batch's
		// rows onto the wire before it returns, so a flush sends a view of
		// the builder's columns and then refills them.
		builders := make([]*engine.ColBuilder, W)
		for i := range builders {
			builders[i] = engine.NewColBuilderCap(in.Schema(), batch)
		}
		flush := func(wi int) {
			if builders[wi].Rows() == 0 || dead[wi].Load() {
				return
			}
			err := streams[wi].batch(side, builders[wi].View())
			builders[wi].Reset()
			if err != nil {
				fail(wi, err)
			}
		}
		for b, ok := in.Recv(nil); ok; b, ok = in.Recv(nil) {
			for r := 0; r < b.Len; r++ {
				wi := int(engine.HashRowKey(b, r, pos) % uint64(W))
				if dead[wi].Load() {
					continue
				}
				builders[wi].AppendRow(b, r, mapping)
				if builders[wi].Rows() >= batch {
					flush(wi)
				}
			}
			// Ship partials at every input-batch boundary: the wire keeps
			// the exchange's flush rules, so first answers stream through
			// the network hop instead of waiting for full batches.
			for wi := range builders {
				flush(wi)
			}
		}
		for wi := range builders {
			flush(wi)
			if dead[wi].Load() {
				continue
			}
			if err := streams[wi].done(side); err != nil {
				fail(wi, err)
			}
		}
	}
	sendWG.Add(2)
	go sendSide(SideLeft, left)
	go sendSide(SideRight, right)

	outS := engine.NewCStream(out, 2*W)
	var recvWG sync.WaitGroup
	for i, st := range streams {
		recvWG.Add(1)
		go func(i int, st *clientStream) {
			defer recvWG.Done()
			if err := c.readOut(ctx, st, outS); err != nil && ctx.Err() == nil {
				fail(i, err)
			}
		}(i, st)
	}
	go func() {
		sendWG.Wait()
		recvWG.Wait()
		outS.Close()
	}()
	return engine.CMeter(outS, engine.StatsFrom(ctx)), nil
}

// Probe asks every worker for its status over a hello stream on the
// persistent link (or a throwaway dial when no query ever touched the
// worker); links that fail report Up == false with the error.
func (c *Client) Probe(ctx context.Context) []WorkerStatus {
	out := make([]WorkerStatus, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := WorkerStatus{
				Addr:    c.addrs[i],
				Breaker: c.health.State(c.workerID(i)).String(),
			}
			c.mu.Lock()
			l := c.links[i]
			c.mu.Unlock()
			if l != nil {
				lc := l.counters()
				st.BatchesIn = lc.batchesIn
				st.BatchesOut = lc.batchesOut
				st.BytesIn = lc.bytesIn
				st.BytesOut = lc.bytesOut
				st.ShuffledBatches = lc.shufBatches
				st.ShuffledBytes = lc.shufBytes
				st.DictDeltaBytes = lc.deltaBytes
				st.RemapEntries = lc.remapEntries
				st.Reconnects = lc.reconnects
				st.Epoch = lc.epoch
			}
			info, err := c.probeOne(ctx, i, l)
			if err != nil {
				st.Err = err.Error()
			} else {
				st.Up = true
				st.Info = info
				if st.Epoch == 0 {
					st.Epoch = info.Epoch
				}
			}
			out[i] = st
		}(i)
	}
	wg.Wait()
	return out
}

// probeOne fetches a live WorkerInfo: over the persistent link when one
// exists, else by a one-shot dial that just reads the worker's handshake
// hello (no query state is created for a worker the client never used).
func (c *Client) probeOne(ctx context.Context, wi int, l *link) (*WorkerInfo, error) {
	var info *WorkerInfo
	err := c.health.Do(ctx, c.workerID(wi), func(ctx context.Context) error {
		if l == nil {
			i, err := probeDial(c.addrs[wi], c.dialTimeout)
			if err != nil {
				return err
			}
			info = i
			return nil
		}
		st, err := l.open([]byte{taskHello}, nil)
		if err != nil {
			return err
		}
		defer st.release()
		stop := context.AfterFunc(ctx, func() { st.abort(ctx.Err()) })
		defer stop()
		for {
			f, qerr, ok := st.q.pop()
			if !ok {
				if qerr == nil {
					qerr = corrupt("probe stream closed without hello")
				}
				return qerr
			}
			switch f.Type {
			case frameHello:
				var i WorkerInfo
				if err := json.Unmarshal(f.Payload, &i); err != nil {
					return err
				}
				info = &i
				return nil
			case frameError:
				return errors.New(string(f.Payload))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// probeDial reads a worker's handshake hello over a throwaway connection.
func probeDial(addr string, timeout time.Duration) (*WorkerInfo, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(timeout))
	dec := NewDecoder(conn, dict.New())
	f, err := dec.Next()
	if err != nil {
		return nil, err
	}
	if f.Type != frameHello {
		return nil, corrupt("expected hello handshake, got frame type 0x%02x", f.Type)
	}
	var info WorkerInfo
	if err := json.Unmarshal(f.Payload, &info); err != nil {
		return nil, err
	}
	return &info, nil
}
