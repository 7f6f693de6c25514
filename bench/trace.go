package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary the benchmark can see.
// Times are nanoseconds since the recorder was created. Derived spans are
// not clocked by the benchmark: their duration comes from the engine's own
// EXPLAIN ANALYZE actuals and they are anchored at their parent's start.
type span struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Query   string            `json:"query"` // the op's query id: every span of one op shares it
	Start   int64             `json:"start_ns"`
	End     int64             `json:"end_ns"`
	Derived bool              `json:"derived,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, so untraced passes share the traced pass's code path.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin allocates a span id so children can name their parent before the
// parent has ended.
func (r *recorder) begin() (id, start int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), r.now()
}

func (r *recorder) end(id, parent int64, name, query string, start int64, attrs map[string]string) {
	if r == nil {
		return
	}
	r.add(span{ID: id, Parent: parent, Name: name, Query: query, Start: start, End: r.now(), Attrs: attrs})
}

// derived records a child span whose duration the engine reported.
func (r *recorder) derived(parent int64, name, query string, start int64, d time.Duration, attrs map[string]string) int64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	r.add(span{ID: id, Parent: parent, Name: name, Query: query, Start: start, End: start + int64(d), Derived: true, Attrs: attrs})
	return id
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// starts returns the start time of every recorded span of the given name.
func (r *recorder) starts(name string) map[int64]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int64]int64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.ID] = s.Start
		}
	}
	return out
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children are merged,
// and clipped to the parent, before subtracting).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, at := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := iv[0], iv[1]
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfMS sums self time by span name, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Env         envStamp           `json:"env"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	Spans       []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	doc, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Env: stampEnv(),
		LayerSelfMS: layerSelfMS(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
