package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/server"
)

var (
	needleTTFA    = []byte(`"bindings":[{`)
	needleAnalyze = []byte(`,"ontario:analyze":`)
	docTail       = []byte(`]}}`)
)

// A traced response's end carries the EXPLAIN ANALYZE member after the
// bindings; it stays well under tracedTail. An untraced reply only has to
// end in docTail.
const (
	tracedTail   = 64 << 10
	untracedTail = 8
)

// keepTail appends chunk to tail, holding on to at least the last keep
// bytes seen and never growing past 2*keep.
func keepTail(tail, chunk []byte, keep int) []byte {
	if len(chunk) >= keep {
		return append(tail[:0], chunk[len(chunk)-keep:]...)
	}
	if len(tail)+len(chunk) > 2*keep {
		tail = tail[:copy(tail, tail[len(tail)-keep:])]
	}
	return append(tail, chunk...)
}

// opExtra is what a traced op yields beyond its sample.
type opExtra struct {
	serverSpan int64
	analysis   []byte // raw "ontario:analyze" member
}

// scratch is one client goroutine's reusable read state, so the load
// generator allocates next to nothing per response.
type scratch struct {
	chunk []byte
	win   []byte // carry for a needle spanning two chunks
	tail  []byte // last bytes of the body
}

func newScratch() *scratch {
	return &scratch{chunk: make([]byte, 32<<10), win: make([]byte, 0, 64), tail: make([]byte, 0, 2*tracedTail)}
}

// passResult is one closed-loop pass over an op list.
type passResult struct {
	wallS   float64
	samples []sample
	extras  []opExtra // traced passes only, parallel to samples
}

func (in *instance) url(o op, analyze bool) string {
	v := url.Values{"mode": {o.mode}}
	if o.network != "" {
		v.Set("network", o.network)
	}
	if analyze {
		v.Set("analyze", "1")
	}
	return in.ts.URL + "/sparql?" + v.Encode()
}

// doOp sends one request and reads the streamed reply to its last byte. A
// non-200 status (503 included), an X-Ontario-Error trailer or an
// unterminated document is a failure; the answer count is checked against
// the oracle after the run.
func (in *instance) doOp(idx int, o op, sc *scratch, rec *recorder) (sample, opExtra) {
	s := sample{op: idx, class: o.class}
	var ex opExtra
	qid := queryID(o, idx)
	opID, opStart := rec.begin()
	ex.serverSpan, _ = rec.begin()

	req, err := http.NewRequest(http.MethodPost, in.url(o, rec != nil), strings.NewReader(o.text))
	if err != nil {
		s.err = err.Error()
		return s, ex
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	if rec != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(ex.serverSpan, 10))
		req.Header.Set("X-Bench-Parent", strconv.FormatInt(opID, 10))
		req.Header.Set("X-Bench-Query", qid)
	}
	start := time.Now()
	resp, err := in.hc.Do(req)
	if err != nil {
		s.err = err.Error()
		return s, ex
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return s, ex
	}
	win, tail := sc.win[:0], sc.tail[:0]
	keep := untracedTail
	if rec != nil {
		keep = tracedTail
	}
	sawFirst := false
	for {
		n, rerr := resp.Body.Read(sc.chunk)
		if n > 0 {
			if !sawFirst {
				win = append(win, sc.chunk[:n]...)
				if bytes.Contains(win, needleTTFA) {
					s.ttfaMS = msSince(start)
					sawFirst = true
				} else if keep := len(needleTTFA) - 1; len(win) > keep {
					win = win[:copy(win, win[len(win)-keep:])]
				}
			}
			tail = keepTail(tail, sc.chunk[:n], keep)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.err = "read: " + rerr.Error()
			return s, ex
		}
	}
	s.ms = msSince(start)
	sc.win, sc.tail = win[:0], tail[:0]
	if !sawFirst {
		s.ttfaMS = s.ms // empty result: the first "answer" is completion
	}
	rec.end(opID, 0, "client.op", qid, opStart, map[string]string{"class": o.class})

	if e := resp.Trailer.Get("X-Ontario-Error"); e != "" {
		s.err = "trailer: " + e
		return s, ex
	}
	s.answers, _ = strconv.Atoi(resp.Trailer.Get("X-Ontario-Answers"))
	s.messages, _ = strconv.Atoi(resp.Trailer.Get("X-Ontario-Messages"))
	if rec != nil {
		i := bytes.LastIndex(tail, needleAnalyze)
		if i < 0 || tail[len(tail)-1] != '}' {
			s.err = "unterminated document (no analyze member)"
			return s, ex
		}
		ex.analysis = append([]byte(nil), tail[i+len(needleAnalyze):len(tail)-1]...)
	} else if !bytes.HasSuffix(tail, docTail) {
		s.err = "unterminated document"
	}
	return s, ex
}

// closedLoop runs do(client, 0..n-1) on `clients` goroutines, each taking
// its next index only when its previous call has returned.
func closedLoop(n int, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// queryID names one op of a pass; every span of the op carries it.
func queryID(o op, idx int) string { return o.class + "#" + strconv.Itoa(idx) }

// runPass drives the op list through the instance's HTTP endpoint with a
// closed loop of `clients` connections: each sends its next request only
// after the previous reply's last byte. With a recorder the pass is traced:
// client.op and server.http spans are clocked and the reply carries the
// engine's EXPLAIN ANALYZE actuals.
func (in *instance) runPass(ops []op, rec *recorder) passResult {
	res := passResult{samples: make([]sample, len(ops))}
	if rec != nil {
		res.extras = make([]opExtra, len(ops))
		in.rec.Store(rec)
		defer in.rec.Store(nil)
	}
	var scratches [clients]*scratch
	for c := range scratches {
		scratches[c] = newScratch()
	}
	start := time.Now()
	closedLoop(len(ops), func(c, i int) {
		s, ex := in.doOp(i, ops[i], scratches[c], rec)
		res.samples[i] = s
		if rec != nil {
			res.extras[i] = ex
		}
	})
	res.wallS = time.Since(start).Seconds()
	return res
}

// inprocResult is one op run through Engine.Query and drained in-process.
type inprocResult struct {
	sample
	jsonBytes   int
	simulatedMS float64
	drainMS     float64 // first batch -> exhausted
}

// queryOptions turns an op's protocol parameters into engine options, the
// way the server's requestOptions does.
func (in *instance) queryOptions(o op) []ontario.Option {
	opts := append([]ontario.Option(nil), in.opts...)
	if o.mode == "unaware" {
		opts = append(opts, ontario.WithUnawarePlan())
	} else {
		opts = append(opts, ontario.WithAwarePlan())
	}
	if o.network != "" {
		p, err := ontario.ProfileByName(o.network)
		if err == nil {
			opts = append(opts, ontario.WithNetwork(p))
		}
	}
	return opts
}

// runInproc drives the same ops through Engine.Query and the server's JSON
// batch drain with no HTTP in between, on the same closed loop, clocking
// ontario.query -> ontario.prepare / results.first_answer / results.drain.
func (in *instance) runInproc(ops []op, rec *recorder) []inprocResult {
	out := make([]inprocResult, len(ops))
	closedLoop(len(ops), func(_, i int) { out[i] = in.inprocOp(i, ops[i], rec) })
	return out
}

func (in *instance) inprocOp(idx int, o op, rec *recorder) inprocResult {
	r := inprocResult{sample: sample{op: idx, class: o.class}}
	qid := queryID(o, idx)
	opts := in.queryOptions(o)
	qID, qStart := rec.begin()
	start := time.Now()

	pID, pStart := rec.begin()
	prep, err := in.eng.Prepare(o.text, opts...)
	rec.end(pID, qID, "ontario.prepare", qid, pStart, nil)
	if err != nil {
		r.err = err.Error()
		return r
	}
	fID, fStart := rec.begin()
	res, err := in.eng.QueryPrepared(context.Background(), prep, opts...)
	if err != nil {
		r.err = err.Error()
		return r
	}
	defer res.Close()
	var dID, dStart int64
	first := true
	for {
		payload, n, ok := bridge.ResultsNextJSON(res)
		if !ok {
			break
		}
		if first && n > 0 {
			r.ttfaMS = msSince(start)
			rec.end(fID, qID, "results.first_answer", qid, fStart, nil)
			dID, dStart = rec.begin()
			first = false
		}
		r.jsonBytes += len(payload)
	}
	r.ms = msSince(start)
	if first {
		r.ttfaMS = r.ms
		rec.end(fID, qID, "results.first_answer", qid, fStart, nil)
	} else {
		r.drainMS = r.ms - r.ttfaMS
		rec.end(dID, qID, "results.drain", qid, dStart, nil)
	}
	rec.end(qID, 0, "ontario.query", qid, qStart, map[string]string{"class": o.class})
	if err := res.Err(); err != nil {
		r.err = err.Error()
		return r
	}
	st := res.Stats()
	r.answers, r.messages = st.Answers, st.Messages
	r.simulatedMS = float64(st.SimulatedDelay) / 1e6
	return r
}

// counters is a snapshot of the process and server counters a pass moves.
type counters struct {
	mem        runtime.MemStats
	cpuS, gcS  float64
	hits, miss int64
	linkFrames int64 // cluster workloads: batches over the coordinator's worker links, both ways
}

func (in *instance) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.cpuS, c.gcS = cpuSeconds(), gcCPUSeconds()
	c.hits = in.srv.Metrics().Counter(server.MetricPlanCacheHits)
	c.miss = in.srv.Metrics().Counter(server.MetricPlanCacheMiss)
	if in.pool != nil {
		for _, st := range in.pool.Probe(context.Background()) {
			c.linkFrames += st.BatchesIn + st.BatchesOut
		}
	}
	return c
}

// delta accumulates after-before of the additive counters into d.
type delta struct {
	ops                int
	allocBytes         uint64
	mallocs            uint64
	cpuS, gcS          float64
	planHits, planMiss int64
	linkFrames         int64
}

func (d *delta) add(before, after counters, ops int) {
	d.ops += ops
	d.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	d.mallocs += after.mem.Mallocs - before.mem.Mallocs
	d.cpuS += after.cpuS - before.cpuS
	d.gcS += after.gcS - before.gcS
	d.planHits += after.hits - before.hits
	d.planMiss += after.miss - before.miss
	d.linkFrames += after.linkFrames - before.linkFrames
}

func (d *delta) hitRatio() float64 {
	if d.planHits+d.planMiss == 0 {
		return 0
	}
	return float64(d.planHits) / float64(d.planHits+d.planMiss)
}
