package main

import (
	"math"
	"sort"
)

// sample is one completed operation of a pass as the client saw it.
type sample struct {
	op       int // index into the pass's op list
	class    string
	ms       float64 // request sent -> last byte
	ttfaMS   float64 // request sent -> first binding byte (== ms when empty)
	messages int
	answers  int
	err      string // non-empty: the op failed
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (the "inclusive" method); vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method),
// the rule the acceptance check of the benchmark contract uses.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// geomean returns the geometric mean of the positive values of vs;
// non-positive values are floored at floor so one empty cell cannot zero
// the aggregate.
func geomean(vs []float64, floor float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v < floor {
			v = floor
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// classMedians pools the samples by class and returns each class's median
// of pick, with the class names sorted for a stable order.
func classMedians(samples []sample, pick func(sample) float64) (classes []string, medians []float64, counts []int) {
	byClass := map[string][]float64{}
	for _, s := range samples {
		if s.err != "" {
			continue
		}
		byClass[s.class] = append(byClass[s.class], pick(s))
	}
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		medians = append(medians, median(byClass[c]))
		counts = append(counts, len(byClass[c]))
	}
	return classes, medians, counts
}

// classGeomean is the geometric mean over classes of the class median: a
// disturbance must touch half of one class's samples to move that class,
// and a slow class cannot drown a fast one.
func classGeomean(samples []sample, pick func(sample) float64) float64 {
	_, meds, _ := classMedians(samples, pick)
	return geomean(meds, 1e-6)
}

func latencyMS(s sample) float64 { return s.ms }
func ttfaMS(s sample) float64    { return s.ttfaMS }
