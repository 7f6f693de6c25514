// Networkimpact: reproduce the shape of Figure 2 — answer traces for Q3
// under both QEP types and the four network settings, printed as ASCII
// curves of answers over time.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"ontario"
	"ontario/internal/lslod"
	"ontario/internal/trace"
)

func main() {
	lake, err := lslod.BuildLake(lslod.DefaultScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	eng := ontario.New(lake.Lake)

	var rows []*trace.Trace
	for _, mode := range []string{"unaware", "aware"} {
		plan := ontario.WithUnawarePlan()
		if mode == "aware" {
			plan = ontario.WithAwarePlan()
		}
		for _, net := range ontario.Profiles() {
			tr, err := answerTrace(eng, fmt.Sprintf("Q3 %s [%s]", mode, net.Name),
				plan, ontario.WithNetwork(net), ontario.WithNetworkScale(0.25)) // sleep at 25% of the sampled delays
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, tr)
		}
	}

	// Scale all traces to a common time axis.
	var maxT time.Duration
	for _, r := range rows {
		maxT = max(maxT, r.Total)
	}
	const width = 60
	fmt.Println("Q3 answer traces (each column ≈", (maxT / width).Round(10*time.Microsecond), ")")
	fmt.Println()
	for _, r := range rows {
		curve := make([]rune, width)
		total := r.Count()
		for i := range curve {
			t := maxT * time.Duration(i+1) / width
			n := r.AnswersAt(t)
			switch {
			case total == 0:
				curve[i] = ' '
			case n == total:
				curve[i] = '#'
			case n > 0:
				curve[i] = rune('0' + (9*n)/total)
			default:
				curve[i] = '.'
			}
		}
		fmt.Printf("%-28s |%s| %s, dief@25%%=%.1f\n",
			r.Label, string(curve),
			r.Total.Round(time.Millisecond),
			r.DiefAt(maxT/4))
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 100))
	fmt.Println("Digits show the fraction of answers produced (9 ≈ all); '#' marks completion.")
	fmt.Println("Physical-design-aware plans complete earlier, and the gap widens as the network slows —")
	fmt.Println("slow networks have a higher impact on physical-design-unaware QEPs (paper, Figure 2).")
}

// answerTrace runs Q3 and records each answer's arrival, timed from the
// moment the execution starts (Query returns once it is launched), so
// parse and plan time are excluded as in the paper's measurements.
func answerTrace(eng *ontario.Engine, label string, opts ...ontario.Option) (*trace.Trace, error) {
	res, err := eng.Query(context.Background(), lslod.QueryText("Q3"), opts...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	start := time.Now()
	tr := &trace.Trace{Label: label}
	for res.Next() {
		tr.Points = append(tr.Points, trace.Point{Elapsed: time.Since(start), Count: len(tr.Points) + 1})
	}
	tr.Total = time.Since(start)
	return tr, res.Err()
}
