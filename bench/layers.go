package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"ontario"
	"ontario/internal/catalog"
	"ontario/internal/cluster"
	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/sql"
	"ontario/internal/stats"
	"ontario/internal/wrapper"
)

// ---- the engine's own per-operator actuals (traced pass) --------------------

// opAgg sums one operator kind's EXPLAIN ANALYZE actuals over a pass.
type opAgg struct {
	wallMS, sendMS, recvMS float64
	batches, rows          int64
}

type analysisAgg struct {
	byKind   map[string]*opAgg
	cardErr  float64 // sum of |log10((actual+1)/(estimate+1))|
	cardN    int
	requests int64 // wrapper requests: unseeded services plus bind-join blocks
}

func newAnalysisAgg() *analysisAgg { return &analysisAgg{byKind: map[string]*opAgg{}} }

func (a *analysisAgg) kind(k string) *opAgg {
	if a.byKind[k] == nil {
		a.byKind[k] = &opAgg{}
	}
	return a.byKind[k]
}

func (a *analysisAgg) total() opAgg {
	var t opAgg
	for _, k := range a.byKind {
		t.wallMS += k.wallMS
		t.sendMS += k.sendMS
		t.recvMS += k.recvMS
		t.batches += k.batches
		t.rows += k.rows
	}
	return t
}

func (a *analysisAgg) actual(act *ontario.Actual) {
	k := a.kind(act.Kind)
	k.wallMS += float64(act.Wall) / 1e6
	k.sendMS += float64(act.BlockedSend) / 1e6
	k.recvMS += float64(act.BlockedRecv) / 1e6
	k.batches += act.BatchesOut
	k.rows += act.BindingsOut
}

// fold adds one op's analysis to the aggregate and hangs its operator
// actuals under the op's server.http span as derived child spans, anchored
// at that span's start.
func (a *analysisAgg) fold(raw []byte, rec *recorder, parent, start int64, qid string) error {
	var an ontario.Analysis
	if err := json.Unmarshal(raw, &an); err != nil {
		return fmt.Errorf("analyze member: %w", err)
	}
	at := parent
	for i := len(an.Modifiers) - 1; i >= 0; i-- { // outermost modifier first
		m := an.Modifiers[i]
		a.actual(&m)
		at = rec.derived(at, "engine."+m.Kind, qid, start, m.Wall, nil)
	}
	var walk func(n *ontario.PlanSummary, parent int64)
	walk = func(n *ontario.PlanSummary, parent int64) {
		if n == nil {
			return
		}
		id := parent
		if act := n.Actual; act != nil {
			a.actual(act)
			id = rec.derived(parent, "engine."+act.Kind, qid, start, act.Wall, map[string]string{"label": act.Label})
			switch {
			case act.Kind == "service":
				a.requests++
			case act.BlocksIssued > 0:
				a.requests += act.BlocksIssued - 1 // its service child counted one
			}
			if n.Estimate != nil {
				a.cardErr += math.Abs(math.Log10((float64(act.BindingsOut) + 1) / (n.Estimate.Cardinality + 1)))
				a.cardN++
			}
		}
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(an.Plan, at)
	return nil
}

// ---- direct calls into each layer, on the workload's own ops ----------------

// probeResult holds the unit costs the direct layer calls measured.
type probeResult struct {
	buildMS, primeMS    float64
	rows, triples       int
	queries             int
	parseUS, planUS     float64 // summed over queries
	services            int
	requests            int     // unseeded wrapper requests probed
	missMS, replayMS    float64 // summed over requests
	missRows            int
	sqlStatements       int
	sqlParseUS          float64
	rdbMS               float64
	rdbRows             int
	sqlMissMS           float64 // miss time of the SQL-wrapper requests only
	rdfMS               float64
	rdfSolutions        int
	internNS, lookupNS  float64 // per term
	encodeMBs, decodeMB float64
	oversleep           float64
}

// pickProbeOps picks up to n distinct ops, spread evenly over the classes.
func pickProbeOps(ops []op, n int) []op {
	seen := map[string]bool{}
	byClass := map[string][]op{}
	var classes []string
	for _, o := range ops {
		if seen[o.key()] {
			continue
		}
		seen[o.key()] = true
		if byClass[o.class] == nil {
			classes = append(classes, o.class)
		}
		byClass[o.class] = append(byClass[o.class], o)
	}
	var out []op
	for round := 0; len(out) < n; round++ {
		took := false
		for _, c := range classes {
			if round < len(byClass[c]) && len(out) < n {
				out = append(out, byClass[c][round])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

func planOptions(o op) core.Options {
	profile, _ := netsim.ProfileByName(o.network)
	if o.mode == "unaware" {
		return core.UnawareOptions(profile)
	}
	return core.AwareOptions(profile)
}

// unseededServices lists the plan's service nodes the executor runs as
// plain requests. The inner side of a (block) bind join is excluded: its
// requests carry seed blocks built from the outer side's answers at run
// time, which a call from outside the executor cannot reproduce.
func unseededServices(n core.PlanNode) []*core.ServiceNode {
	switch v := n.(type) {
	case *core.ServiceNode:
		return []*core.ServiceNode{v}
	case *core.JoinNode:
		if _, inner := v.R.(*core.ServiceNode); inner && (v.Op == core.JoinBind || v.Op == core.JoinBlockBind) {
			return unseededServices(v.L)
		}
		return append(unseededServices(v.L), unseededServices(v.R)...)
	case *core.LeftJoinNode:
		return append(unseededServices(v.L), unseededServices(v.R)...)
	case *core.FilterNode:
		return unseededServices(v.Child)
	case *core.UnionNode:
		var out []*core.ServiceNode
		for _, c := range v.Children {
			out = append(out, unseededServices(c)...)
		}
		return out
	}
	return nil
}

func drain(cs *engine.CStream) (batches []*engine.ColBatch, rows int) {
	for b := range cs.Batches() {
		batches = append(batches, b)
		rows += b.Len
	}
	return batches, rows
}

type capturedStream struct {
	schema  *engine.Schema
	batches []*engine.ColBatch
}

// probeLayers times direct calls into lslod, stats, sparql, core, wrapper,
// sql, rdb, rdf, dict and the cluster codec on two lakes of its own: lake A
// answers the wrapper requests (a miss, then a replay from the response
// cache), lake B runs the SQL texts those requests issued, because rdb
// caches a statement's result and A has by then seen every one of them.
func probeLayers(build func() (*lslod.Lake, error), ops []op, sz sizes, delayed bool, rec *recorder) (*probeResult, error) {
	p := &probeResult{}
	id, start := rec.begin()
	t := time.Now()
	lakeA, err := build()
	if err != nil {
		return nil, err
	}
	p.buildMS = msSince(t)
	rec.end(id, 0, "lslod.build", "probe", start, nil)
	lakeB, err := build()
	if err != nil {
		return nil, err
	}
	cat := lakeA.Catalog
	for _, sid := range cat.SourceIDs() {
		src := cat.Source(sid)
		if src.DB != nil {
			p.rows += src.DB.TotalRows()
		}
		if src.Graph != nil {
			p.triples += src.Graph.Len()
		}
	}

	id, start = rec.begin()
	t = time.Now()
	prov := stats.NewProvider(cat)
	for _, sid := range cat.SourceIDs() {
		prov.Source(sid)
	}
	p.primeMS = msSince(t)
	rec.end(id, 0, "stats.prime", "probe", start, nil)

	planner := core.NewPlanner(cat)
	if len(ops) > 0 { // the planner primes its own statistics on first use
		if q, err := sparql.Parse(ops[0].text); err == nil {
			planner.Plan(q, planOptions(ops[0]))
		}
	}
	d := dict.New()
	cache := wrapper.NewResponseCache()
	ctx := context.Background()
	var captured []capturedStream

	for i, o := range ops {
		qid := fmt.Sprintf("probe:%s#%d", o.class, i)
		id, start = rec.begin()
		t = time.Now()
		q, err := sparql.Parse(o.text)
		p.parseUS += float64(time.Since(t)) / 1e3
		rec.end(id, 0, "sparql.parse", qid, start, nil)
		if err != nil {
			return nil, fmt.Errorf("probe parse %s: %w", o.class, err)
		}
		id, start = rec.begin()
		t = time.Now()
		plan, err := planner.Plan(q, planOptions(o))
		p.planUS += float64(time.Since(t)) / 1e3
		rec.end(id, 0, "core.plan", qid, start, nil)
		if err != nil {
			return nil, fmt.Errorf("probe plan %s: %w", o.class, err)
		}
		p.queries++
		p.services += core.CountServices(plan.Root)

		for _, svc := range unseededServices(plan.Root) {
			src := cat.Source(svc.SourceID)
			schema := engine.NewSchema(svc.Vars())
			w, sqlw := probeWrapper(src, cache)
			if w == nil {
				continue
			}
			p.requests++
			wid, wstart := rec.begin()
			t = time.Now()
			cs, err := w.ExecuteColumnar(ctx, svc.Req, schema, d)
			if err != nil {
				return nil, fmt.Errorf("probe %s on %s: %w", o.class, svc.SourceID, err)
			}
			batches, rows := drain(cs)
			miss := msSince(t)
			p.missMS += miss
			p.missRows += rows
			captured = append(captured, capturedStream{schema, batches})

			if sqlw != nil {
				p.sqlMissMS += miss
				for _, stmt := range sqlw.LastSQL() {
					p.sqlStatements++
					t = time.Now()
					_, perr := sql.Parse(stmt)
					parse := time.Since(t)
					p.sqlParseUS += float64(parse) / 1e3
					t = time.Now()
					res, qerr := lakeB.Catalog.Source(svc.SourceID).DB.Query(stmt)
					if perr != nil || qerr != nil {
						return nil, fmt.Errorf("probe sql on %s: %v %v", svc.SourceID, perr, qerr)
					}
					exec := time.Since(t) - parse // Query parses the text again
					if exec < 0 {
						exec = 0
					}
					p.rdbMS += float64(exec) / 1e6
					p.rdbRows += len(res.Rows)
					rec.derived(wid, "rdb.query", qid, wstart, exec, nil)
				}
			} else {
				p.rdfMS += miss
				p.rdfSolutions += rows
				rec.derived(wid, "rdf.match", qid, wstart, time.Duration(miss*1e6), nil)
			}
			rec.end(wid, 0, "wrapper.execute", qid, wstart, map[string]string{"source": svc.SourceID})

			rid, rstart := rec.begin()
			t = time.Now()
			cs, err = w.ExecuteColumnar(ctx, svc.Req, schema, d)
			if err != nil {
				return nil, fmt.Errorf("probe replay %s on %s: %w", o.class, svc.SourceID, err)
			}
			drain(cs)
			p.replayMS += msSince(t)
			rec.end(rid, 0, "wrapper.replay", qid, rstart, map[string]string{"source": svc.SourceID})
		}
	}
	p.probeDict(d, captured)
	if err := p.probeCodec(d, captured); err != nil {
		return nil, err
	}
	if delayed {
		p.probeSleep(sz.netScale)
	}
	return p, nil
}

// probeWrapper builds the wrapper the executor would for the source, over
// the probe's own response cache and a No-Delay simulator.
func probeWrapper(src *catalog.Source, cache *wrapper.ResponseCache) (wrapper.ColumnarWrapper, *wrapper.SQLWrapper) {
	switch src.Model {
	case catalog.ModelRelational:
		w := wrapper.NewSQLWrapper(src, wrapper.NoDelaySim(netsimSeed), wrapper.TranslationOptimized, 0)
		w.SetResponseCache(cache)
		return w, w
	case catalog.ModelRDF:
		w := wrapper.NewRDFWrapper(src.ID, src.Graph, wrapper.NoDelaySim(netsimSeed), 0)
		w.SetResponseCache(cache)
		return w, nil
	}
	return nil, nil
}

// probeDict times ID -> term lookups over every ID the captured batches
// carry, and interning of the distinct terms into an empty dictionary (the
// miss path a cold query pays at the wrapper boundary).
func (p *probeResult) probeDict(d *dict.Dict, captured []capturedStream) {
	var ids []dict.ID
	for _, c := range captured {
		for _, b := range c.batches {
			for _, col := range b.Cols {
				for _, id := range col[:b.Len] {
					if id != dict.Unbound {
						ids = append(ids, id)
					}
				}
			}
		}
	}
	if len(ids) == 0 {
		return
	}
	seen := make(map[dict.ID]bool, len(ids))
	var terms []rdf.Term
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			terms = append(terms, d.MustLookup(id))
		}
	}
	t := time.Now()
	for _, id := range ids {
		d.Lookup(id)
	}
	p.lookupNS = float64(time.Since(t)) / float64(len(ids))
	fresh := dict.New()
	t = time.Now()
	for _, term := range terms {
		fresh.Intern(term)
	}
	p.internNS = float64(time.Since(t)) / float64(len(terms))
}

// probeCodec pushes the captured batches through the cluster wire encoder
// and back through the decoder into an empty dictionary.
func (p *probeResult) probeCodec(d *dict.Dict, captured []capturedStream) error {
	var buf bytes.Buffer
	enc := cluster.NewEncoder(&buf, d)
	t := time.Now()
	for i, c := range captured {
		for _, b := range c.batches {
			if err := enc.Batch(uint64(i+1), cluster.SideOut, b); err != nil {
				return fmt.Errorf("probe encode: %w", err)
			}
		}
	}
	el := time.Since(t).Seconds()
	size := float64(buf.Len()) / (1 << 20)
	if size == 0 {
		return nil
	}
	p.encodeMBs = size / el
	dec := cluster.NewDecoder(&buf, dict.New())
	dec.SetLookup(func(stream uint64, _ byte) *engine.Schema {
		if stream == 0 || int(stream) > len(captured) {
			return nil
		}
		return captured[stream-1].schema
	})
	t = time.Now()
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
	}
	p.decodeMB = size / time.Since(t).Seconds()
	return nil
}

// probeSleep is the sandbox-timer sanity check: the wall time of Gamma 2
// delays against what the simulator sampled. A ratio well above 1 means
// time.Sleep overshoots and the delay-bound rows measure the timer.
func (p *probeResult) probeSleep(scale float64) {
	sim := netsim.NewSimulator(netsim.Gamma2, scale, netsimSeed)
	t := time.Now()
	for i := 0; i < 200; i++ {
		sim.Delay()
	}
	if want := sim.SimulatedDelay().Seconds() * scale; want > 0 {
		p.oversleep = time.Since(t).Seconds() / want
	}
}
