package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readReports loads a set of runs: one JSON report per line, as -out
// appends them.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects, in run order, the values of one metric on one workload.
func series(reports []report, workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range reports {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// verdict applies the sandbox rule to one (workload, metric) pair: base and
// change are paired in run order; the change regressed when its median is
// worse than the base's by more than the bound, improved when it wins nine
// tenths of the pairs and the medians differ by more than the base's own
// inter-quartile distance, and is unresolved when the base's spread is
// wider than the bound (unless every run of the change beats every run of
// the base).
func verdict(base, change []float64, d metricDef) (v string, wins, pairs int) {
	sign := 1.0 // positive delta == worse
	if d.better == "higher" {
		sign = -1
	}
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-base[i]) < 0 {
			wins++
		}
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	worse := sign * (mc - mb) / math.Max(math.Abs(mb), 1e-12)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs == 0:
		return "no-data", 0, 0
	case d.bound > 0 && worse > d.bound:
		return "REGRESSED", wins, pairs
	case d.bound > 0 && spread(base) > d.bound && !allBetter:
		return "unresolved", wins, pairs
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(mc-mb) > q3-q1:
		return "improved", wins, pairs
	default:
		return "same", wins, pairs
	}
}

// compareSets prints, per workload and metric, both sets' medians and
// quartiles, the share of pairs the change won, and the verdict. It
// returns the number of regressions.
func compareSets(w io.Writer, base, change []report) int {
	regressions := 0
	for _, wl := range workloads {
		for _, group := range []struct {
			defs   []metricDef
			traced bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, d := range group.defs {
				b, c := series(base, wl.name, d.name, group.traced), series(change, wl.name, d.name, group.traced)
				if len(b) == 0 && len(c) == 0 {
					continue
				}
				bq1, bq3 := quartiles(b)
				cq1, cq3 := quartiles(c)
				v, wins, pairs := verdict(b, c, d)
				if v == "REGRESSED" {
					regressions++
				}
				bound := "  -"
				if d.bound > 0 {
					bound = fmt.Sprintf("%2.0f%%", 100*d.bound)
				}
				fmt.Fprintf(w, "%-11s %-34s %-5s base %9.4g [%9.4g %9.4g] n=%-2d spread %4.1f%%  change %9.4g [%9.4g %9.4g] n=%-2d spread %4.1f%%  delta %+5.1f%%  won %2d/%-2d  bound %s  %s\n",
					wl.name, d.name, d.unit,
					median(b), bq1, bq3, len(b), 100*spread(b),
					median(c), cq1, cq3, len(c), 100*spread(c),
					100*(median(c)-median(b))/math.Max(math.Abs(median(b)), 1e-12),
					wins, pairs, bound, v)
			}
		}
	}
	return regressions
}
