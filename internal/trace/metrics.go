package trace

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// defaultBuckets are the histogram bucket upper bounds in milliseconds,
// spanning sub-millisecond simulated latencies up to multi-second query
// executions.
var defaultBuckets = []float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// histogram is a fixed-bucket histogram. It mirrors the Prometheus
// histogram model: cumulative bucket counts plus sum and count.
type histogram struct {
	bounds []float64
	counts []uint64 // one per bound, plus +Inf at the end
	sum    float64
	total  uint64
}

// observe records one value (not concurrency-safe; Metrics serializes).
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// samples renders the histogram's _bucket, _sum and _count lines under
// the given label pairs.
func (h *histogram) samples(labels []string) []Sample {
	le := func(bound string) []string {
		return append(labels[:len(labels):len(labels)], "le", bound)
	}
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		out = append(out, Sample{Suffix: "_bucket", Labels: le(formatFloat(bound)), Value: formatUint(cum)})
	}
	cum += h.counts[len(h.bounds)]
	return append(out,
		Sample{Suffix: "_bucket", Labels: le("+Inf"), Value: formatUint(cum)},
		Sample{Suffix: "_sum", Labels: labels, Value: formatFloat(h.sum)},
		Sample{Suffix: "_count", Labels: labels, Value: formatUint(h.total)})
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func formatUint(v uint64) string   { return strconv.FormatUint(v, 10) }

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote, and newline must be escaped. Label
// values reach the registry from caller-supplied source IDs, so this is a
// correctness (and injection-safety) requirement, not cosmetics.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Sample is one line of a metric family in the Prometheus text format.
type Sample struct {
	// Suffix extends the family name: "_bucket", "_sum" or "_count" for a
	// histogram's lines, empty otherwise.
	Suffix string
	// Labels holds label names and values in turn, in output order.
	Labels []string
	// Value is the sample value as it appears on the line.
	Value string
}

// WriteFamily writes one metric family in the Prometheus text format: its
// "# TYPE" line, then one line per sample, with every label value escaped
// by EscapeLabel.
func WriteFamily(w io.Writer, name, typ string, samples []Sample) error {
	b := make([]byte, 0, 64*(len(samples)+1))
	b = append(append(append(append(b, "# TYPE "...), name...), ' '), typ...)
	b = append(b, '\n')
	for _, s := range samples {
		b = append(append(b, name...), s.Suffix...)
		for i := 0; i+1 < len(s.Labels); i += 2 {
			if i == 0 {
				b = append(b, '{')
			} else {
				b = append(b, ',')
			}
			b = append(append(b, s.Labels[i]...), `="`...)
			b = append(append(b, EscapeLabel(s.Labels[i+1])...), '"')
		}
		if len(s.Labels) > 0 {
			b = append(b, '}')
		}
		b = append(append(append(b, ' '), s.Value...), '\n')
	}
	_, err := w.Write(b)
	return err
}

type histKey struct {
	name       string
	labelName  string // e.g. "source" or "op"; empty for unlabeled
	labelValue string
}

// Metrics is a concurrency-safe registry of counters and latency
// histograms, exported in the Prometheus text format by the server's
// /metrics endpoint. Counter and histogram names are created on first use.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[histKey]*histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		hists:    make(map[histKey]*histogram),
	}
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Counter returns the counter's current value.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Observe records a duration into the named (unlabeled) histogram.
func (m *Metrics) Observe(name string, d time.Duration) {
	m.ObserveSource(name, "", d)
}

// ObserveSource records a duration into the histogram labeled with the
// given source (empty source means unlabeled).
func (m *Metrics) ObserveSource(name, source string, d time.Duration) {
	label := ""
	if source != "" {
		label = "source"
	}
	m.ObserveValue(name, label, source, float64(d)/float64(time.Millisecond), nil)
}

// ObserveLabeled records a duration into the histogram carrying an
// arbitrary label (e.g. op="bind-join").
func (m *Metrics) ObserveLabeled(name, labelName, labelValue string, d time.Duration) {
	m.ObserveValue(name, labelName, labelValue, float64(d)/float64(time.Millisecond), nil)
}

// ObserveValue records a raw value into the named histogram with the given
// label pair (both empty means unlabeled). bounds selects the bucket
// layout when the series is created (nil means defaultBuckets); it is
// ignored on later observations.
func (m *Metrics) ObserveValue(name, labelName, labelValue string, v float64, bounds []float64) {
	m.mu.Lock()
	k := histKey{name: name, labelName: labelName, labelValue: labelValue}
	h, ok := m.hists[k]
	if !ok {
		if bounds == nil {
			bounds = defaultBuckets
		}
		h = &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		m.hists[k] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// WritePrometheus renders every counter and histogram in the Prometheus
// text exposition format, sorted by name (then label) for deterministic
// output.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	type series struct {
		key     histKey
		samples []Sample
	}
	m.mu.Lock()
	counters := make([]series, 0, len(m.counters))
	for n, v := range m.counters {
		counters = append(counters, series{histKey{name: n}, []Sample{{Value: strconv.FormatInt(v, 10)}}})
	}
	hists := make([]series, 0, len(m.hists))
	for k, h := range m.hists {
		var labels []string
		if k.labelName != "" {
			labels = []string{k.labelName, k.labelValue}
		}
		hists = append(hists, series{k, h.samples(labels)})
	}
	m.mu.Unlock()

	write := func(typ string, all []series) error {
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i].key, all[j].key
			if a.name != b.name {
				return a.name < b.name
			}
			if a.labelName != b.labelName {
				return a.labelName < b.labelName
			}
			return a.labelValue < b.labelValue
		})
		for i := 0; i < len(all); {
			name := all[i].key.name
			var samples []Sample
			for ; i < len(all) && all[i].key.name == name; i++ {
				samples = append(samples, all[i].samples...)
			}
			if err := WriteFamily(w, name, typ, samples); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("counter", counters); err != nil {
		return err
	}
	return write("histogram", hists)
}
