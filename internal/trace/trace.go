// Package trace records answer traces: the arrival time of every answer of
// a query execution, as plotted in Figure 2 of the paper. It also derives
// the time to first answer and the dief@t continuous-efficiency metric.
package trace

import "time"

// Point is one answer arrival.
type Point struct {
	// Elapsed is the time since execution start.
	Elapsed time.Duration
	// Count is the cumulative number of answers (1-based).
	Count int
}

// Trace is the answer trace of one query execution.
type Trace struct {
	// Label identifies the configuration (e.g. "Q3 aware Gamma 2").
	Label string
	// Points holds one entry per answer in arrival order.
	Points []Point
	// Total is the time from start to stream completion.
	Total time.Duration
}

// Count returns the number of answers.
func (t *Trace) Count() int { return len(t.Points) }

// TimeToFirst returns the arrival time of the first answer, or Total when
// no answer arrived.
func (t *Trace) TimeToFirst() time.Duration {
	if len(t.Points) == 0 {
		return t.Total
	}
	return t.Points[0].Elapsed
}

// AnswersAt returns how many answers had arrived by elapsed time d.
func (t *Trace) AnswersAt(d time.Duration) int {
	n := 0
	for _, p := range t.Points {
		if p.Elapsed <= d {
			n = p.Count
		} else {
			break
		}
	}
	return n
}

// DiefAt computes dief@t (Acosta et al.): the area under the answer trace
// until time d — higher means answers arrive earlier. The unit is
// answer·seconds.
func (t *Trace) DiefAt(d time.Duration) float64 {
	if len(t.Points) == 0 {
		return 0
	}
	area := 0.0
	for i, p := range t.Points {
		if p.Elapsed > d {
			break
		}
		end := d
		if i+1 < len(t.Points) && t.Points[i+1].Elapsed < d {
			end = t.Points[i+1].Elapsed
		}
		area += float64(p.Count) * (end - p.Elapsed).Seconds()
	}
	return area
}
