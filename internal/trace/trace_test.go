package trace

import (
	"testing"
	"time"
)

func mkTrace(times ...time.Duration) *Trace {
	t := &Trace{Label: "t"}
	for i, d := range times {
		t.Points = append(t.Points, Point{Elapsed: d, Count: i + 1})
	}
	if len(times) > 0 {
		t.Total = times[len(times)-1] + 10*time.Millisecond
	}
	return t
}

func TestTimeToFirst(t *testing.T) {
	tr := mkTrace(5*time.Millisecond, 9*time.Millisecond)
	if got := tr.TimeToFirst(); got != 5*time.Millisecond {
		t.Errorf("TimeToFirst = %v", got)
	}
	empty := &Trace{Total: 3 * time.Second}
	if got := empty.TimeToFirst(); got != 3*time.Second {
		t.Errorf("empty TimeToFirst = %v", got)
	}
}

func TestAnswersAt(t *testing.T) {
	tr := mkTrace(1*time.Millisecond, 2*time.Millisecond, 8*time.Millisecond)
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{time.Millisecond, 1},
		{3 * time.Millisecond, 2},
		{time.Second, 3},
	} {
		if got := tr.AnswersAt(tc.at); got != tc.want {
			t.Errorf("AnswersAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestDiefAt(t *testing.T) {
	// Two traces with the same completion time; the earlier producer has a
	// larger dief@t (answers available sooner).
	early := mkTrace(1*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	late := mkTrace(90*time.Millisecond, 95*time.Millisecond, 99*time.Millisecond)
	at := 100 * time.Millisecond
	if early.DiefAt(at) <= late.DiefAt(at) {
		t.Errorf("dief: early %.4f <= late %.4f", early.DiefAt(at), late.DiefAt(at))
	}
	if (&Trace{}).DiefAt(at) != 0 {
		t.Error("dief of empty trace != 0")
	}
}
