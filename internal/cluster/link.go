package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ontario/internal/dict"
	"ontario/internal/engine"
)

// link is the coordinator's persistent multiplexed connection to one
// worker. It dials lazily, handshakes (the worker volunteers a hello on
// stream 0 carrying its session epoch), and then demultiplexes frames to
// the client streams sharing the connection. Dictionary-delta remap state
// lives exactly as long as the TCP connection: a re-dial starts a fresh
// codec pair, so a restarted worker (new epoch, empty remap table) can
// never be fed stale IDs.
type link struct {
	addr        string
	dialTimeout time.Duration
	d           *dict.Dict

	mu         sync.Mutex
	conn       net.Conn
	enc        *Encoder
	dec        *Decoder
	gen        uint64 // bumps on every successful dial
	epoch      int64  // worker session epoch from the handshake
	info       WorkerInfo
	nextStream uint64
	streams    map[uint64]*clientStream
	closed     bool

	reconnects atomic.Int64

	// Counters folded in from connections that have since died; totals
	// are fold + the live codec pair.
	fBatchesIn, fBatchesOut  atomic.Int64
	fBytesIn, fBytesOut      atomic.Int64
	fShufBatches, fShufBytes atomic.Int64
	fDeltaBytes              atomic.Int64
}

func newLink(addr string, dialTimeout time.Duration, d *dict.Dict) *link {
	return &link{
		addr:        addr,
		dialTimeout: dialTimeout,
		d:           d,
		streams:     make(map[uint64]*clientStream),
	}
}

// clientStream is one task multiplexed on a link. Writes go through the
// link encoder of the stream's connection generation; frames the demux
// loop routes here queue unboundedly until popped or the stream closes.
type clientStream struct {
	l   *link
	gen uint64
	id  uint64
	enc *Encoder
	q   *frameQ
	out *engine.Schema
}

// connectLocked dials and handshakes; callers hold l.mu.
func (l *link) connectLocked() error {
	if l.closed {
		return fmt.Errorf("cluster: client closed")
	}
	if l.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", l.addr, l.dialTimeout)
	if err != nil {
		return err
	}
	enc := NewEncoder(conn, l.d)
	dec := NewDecoder(conn, l.d)
	dec.SetLookup(l.lookupSchema)

	// The worker speaks first: a hello on stream 0 carrying its session
	// epoch and partition identity, so the handshake costs zero client
	// round-trips beyond the dial.
	conn.SetReadDeadline(time.Now().Add(l.dialTimeout))
	f, err := dec.Next()
	if err != nil {
		conn.Close()
		return fmt.Errorf("link handshake: %w", err)
	}
	if f.Type != frameHello || f.Stream != 0 {
		conn.Close()
		return corrupt("link handshake: expected hello on stream 0, got frame type 0x%02x on stream %d", f.Type, f.Stream)
	}
	var info WorkerInfo
	if err := json.Unmarshal(f.Payload, &info); err != nil {
		conn.Close()
		return fmt.Errorf("link handshake: %w", err)
	}
	conn.SetReadDeadline(time.Time{})

	if l.gen > 0 {
		l.reconnects.Add(1)
	}
	l.gen++
	l.conn, l.enc, l.dec = conn, enc, dec
	l.epoch = info.Epoch
	l.info = info
	go l.demux(dec, l.gen)
	return nil
}

// lookupSchema resolves batch layouts for the live decoder; client
// streams only ever receive result (SideOut) batches.
func (l *link) lookupSchema(stream uint64, side byte) *engine.Schema {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.streams[stream]; st != nil && side == SideOut {
		return st.out
	}
	return nil
}

// demux routes one connection generation's frames to its streams until
// the connection dies. Frames for unknown streams (late batches after a
// task released) are dropped — their dictionary deltas already interned
// inside the decoder, which is the part that is link state.
func (l *link) demux(dec *Decoder, gen uint64) {
	for {
		f, err := dec.Next()
		if err != nil {
			l.fail(gen, err)
			return
		}
		l.mu.Lock()
		st := l.streams[f.Stream]
		l.mu.Unlock()
		if st != nil {
			st.q.push(f)
		}
	}
}

// fail tears down connection generation gen (idempotent; a newer
// generation is left alone): counters fold into the link totals, every
// stream of the generation closes with the error, and the next open
// re-dials.
func (l *link) fail(gen uint64, err error) {
	l.mu.Lock()
	if l.gen != gen || l.conn == nil {
		l.mu.Unlock()
		return
	}
	conn, enc, dec := l.conn, l.enc, l.dec
	l.conn, l.enc, l.dec = nil, nil, nil
	streams := l.streams
	l.streams = make(map[uint64]*clientStream)
	l.mu.Unlock()

	conn.Close()
	l.fBatchesIn.Add(dec.Batches())
	l.fBatchesOut.Add(enc.Batches())
	l.fBytesIn.Add(dec.Bytes())
	l.fBytesOut.Add(enc.Bytes())
	l.fShufBatches.Add(enc.ShuffledBatches())
	l.fShufBytes.Add(enc.ShuffledBytes())
	l.fDeltaBytes.Add(enc.DeltaBytes() + dec.DeltaBytes())
	for _, st := range streams {
		st.q.close(fmt.Errorf("cluster: link to %s broken: %w", l.addr, err))
	}
}

// close shuts the link down for good; open fails from here on.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	gen := l.gen
	l.mu.Unlock()
	l.fail(gen, fmt.Errorf("client closed"))
}

// open connects (if needed) and allocates a fresh stream, writing task as
// its opening task frame. out is the schema of the result batches the
// stream expects (nil for payload-only streams such as probes).
func (l *link) open(task []byte, out *engine.Schema) (*clientStream, error) {
	l.mu.Lock()
	if err := l.connectLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	l.nextStream++
	st := &clientStream{
		l:   l,
		gen: l.gen,
		id:  l.nextStream,
		enc: l.enc,
		q:   newFrameQ(),
		out: out,
	}
	l.streams[st.id] = st
	l.mu.Unlock()
	if err := st.enc.Task(st.id, task); err != nil {
		st.fail(err)
		return nil, err
	}
	return st, nil
}

// handshake returns the worker's hello info, dialing if the link is not
// yet connected. The info is the handshake snapshot — probe for a live
// one.
func (l *link) handshake() (WorkerInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.connectLocked(); err != nil {
		return WorkerInfo{}, err
	}
	return l.info, nil
}

// fail reports a stream-level transport error, tearing down the stream's
// connection generation.
func (st *clientStream) fail(err error) { st.l.fail(st.gen, err) }

// release unregisters the stream; later frames for it drop silently.
func (st *clientStream) release() {
	st.l.mu.Lock()
	delete(st.l.streams, st.id)
	st.l.mu.Unlock()
	st.q.close(nil)
}

// abort cancels the stream remotely (best effort) and unblocks any
// pending pop with err.
func (st *clientStream) abort(err error) {
	st.enc.Cancel(st.id)
	st.q.close(err)
}

func (st *clientStream) batch(side byte, b *engine.ColBatch) error {
	if err := st.enc.Batch(st.id, side, b); err != nil {
		st.fail(err)
		return err
	}
	return nil
}

func (st *clientStream) done(side byte) error {
	if err := st.enc.Done(st.id, side); err != nil {
		st.fail(err)
		return err
	}
	return nil
}

// linkCounters is a consistent snapshot of one link's cumulative wire
// counters (folded dead connections plus the live codec pair).
type linkCounters struct {
	batchesIn, batchesOut  int64
	bytesIn, bytesOut      int64
	shufBatches, shufBytes int64
	deltaBytes             int64
	remapEntries           int64 // live connection only: current table size
	epoch                  int64
	reconnects             int64
	connected              bool
}

func (l *link) counters() linkCounters {
	l.mu.Lock()
	enc, dec, epoch := l.enc, l.dec, l.epoch
	l.mu.Unlock()
	c := linkCounters{
		batchesIn:   l.fBatchesIn.Load(),
		batchesOut:  l.fBatchesOut.Load(),
		bytesIn:     l.fBytesIn.Load(),
		bytesOut:    l.fBytesOut.Load(),
		shufBatches: l.fShufBatches.Load(),
		shufBytes:   l.fShufBytes.Load(),
		deltaBytes:  l.fDeltaBytes.Load(),
		epoch:       epoch,
		reconnects:  l.reconnects.Load(),
	}
	if enc != nil && dec != nil {
		c.connected = true
		c.batchesIn += dec.Batches()
		c.batchesOut += enc.Batches()
		c.bytesIn += dec.Bytes()
		c.bytesOut += enc.Bytes()
		c.shufBatches += enc.ShuffledBatches()
		c.shufBytes += enc.ShuffledBytes()
		c.deltaBytes += enc.DeltaBytes() + dec.DeltaBytes()
		c.remapEntries = dec.RemapEntries()
	}
	return c
}
