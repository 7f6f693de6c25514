package netsim

import (
	"math"
	"testing"
	"time"
)

func TestNoDelayProfile(t *testing.T) {
	s := NewSimulator(NoDelay, 0, 1)
	for i := 0; i < 100; i++ {
		if d := s.Sample(); d != 0 {
			t.Fatalf("NoDelay sampled %v", d)
		}
	}
	if s.SimulatedDelay() != 0 {
		t.Errorf("SimulatedDelay = %v, want 0", s.SimulatedDelay())
	}
	if s.Messages() != 100 {
		t.Errorf("Messages = %d, want 100", s.Messages())
	}
}

func TestGammaMeans(t *testing.T) {
	// Empirical mean must approximate α·β within a loose tolerance.
	for _, p := range []Profile{Gamma1, Gamma2, Gamma3} {
		s := NewSimulator(p, 0, 42)
		const n = 20000
		var total time.Duration
		for i := 0; i < n; i++ {
			total += s.Sample()
		}
		got := float64(total) / float64(n) / float64(time.Millisecond)
		want := p.Alpha * p.Beta
		if math.Abs(got-want) > 0.12*want {
			t.Errorf("%s: empirical mean %.3f ms, want ≈ %.3f ms", p.Name, got, want)
		}
	}
}

func TestGammaVariance(t *testing.T) {
	// Var = α·β². Check Gamma2 (α=3, β=1): var ≈ 3.
	s := NewSimulator(Gamma2, 0, 7)
	const n = 20000
	samples := make([]float64, n)
	var mean float64
	for i := range samples {
		samples[i] = float64(s.Sample()) / float64(time.Millisecond)
		mean += samples[i]
	}
	mean /= n
	var variance float64
	for _, x := range samples {
		variance += (x - mean) * (x - mean)
	}
	variance /= n
	if math.Abs(variance-3) > 0.5 {
		t.Errorf("Gamma2 variance = %.3f, want ≈ 3", variance)
	}
}

func TestSamplesNonNegative(t *testing.T) {
	s := NewSimulator(Gamma3, 0, 3)
	for i := 0; i < 10000; i++ {
		if d := s.Sample(); d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	}
}

func TestSubUnitAlpha(t *testing.T) {
	// Exercise the alpha<1 branch directly.
	s := NewSimulator(Profile{Name: "frac", Alpha: 0.5, Beta: 2}, 0, 9)
	const n = 30000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += s.Sample()
	}
	got := float64(total) / float64(n) / float64(time.Millisecond)
	if math.Abs(got-1.0) > 0.15 {
		t.Errorf("Gamma(0.5,2) empirical mean %.3f ms, want ≈ 1.0 ms", got)
	}
}

func TestMeanLatency(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want time.Duration
	}{
		{NoDelay, 0},
		{Gamma1, 300 * time.Microsecond},
		{Gamma2, 3 * time.Millisecond},
		{Gamma3, 4500 * time.Microsecond},
	} {
		if got := tc.p.MeanLatency(); got != tc.want {
			t.Errorf("%s MeanLatency = %v, want %v", tc.p.Name, got, tc.want)
		}
	}
}

func TestIsSlow(t *testing.T) {
	if NoDelay.IsSlow() || Gamma1.IsSlow() {
		t.Error("fast profiles reported slow")
	}
	if !Gamma2.IsSlow() || !Gamma3.IsSlow() {
		t.Error("slow profiles reported fast")
	}
}

func TestDeterministicSeed(t *testing.T) {
	a := NewSimulator(Gamma2, 0, 123)
	b := NewSimulator(Gamma2, 0, 123)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDelaySleepsScaled(t *testing.T) {
	// With scale=0 Delay must not sleep appreciable time.
	s := NewSimulator(Gamma3, 0, 5)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		s.Delay()
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("scale=0 slept %v", elapsed)
	}
	if s.SimulatedDelay() == 0 {
		t.Error("simulated delay not accounted")
	}
}

// TestSampleNIsNSamples: one SampleN(n) call charges exactly what n Sample
// calls charge — messages, simulated delay and the position in the random
// stream — and a profile without latency counts n messages and draws
// nothing from the stream.
func TestSampleNIsNSamples(t *testing.T) {
	const n = 37
	one, each := NewSimulator(Gamma2, 0, 11), NewSimulator(Gamma2, 0, 11)
	got := one.SampleN(n)
	var want time.Duration
	for i := 0; i < n; i++ {
		want += each.Sample()
	}
	if got != want || one.SimulatedDelay() != each.SimulatedDelay() || one.Messages() != n || each.Messages() != n {
		t.Fatalf("SampleN(%d) = %v, %v simulated, %d messages; %d Sample calls = %v, %v simulated, %d messages",
			n, got, one.SimulatedDelay(), one.Messages(), n, want, each.SimulatedDelay(), each.Messages())
	}
	if a, b := one.Sample(), each.Sample(); a != b {
		t.Fatalf("the streams diverged after the batch: next sample %v vs %v", a, b)
	}

	none, fresh := NewSimulator(NoDelay, 0, 11), NewSimulator(NoDelay, 0, 11)
	if d := none.SampleN(n); d != 0 || none.Messages() != n || none.SimulatedDelay() != 0 {
		t.Fatalf("NoDelay SampleN(%d) = %v with %d messages, %v simulated", n, d, none.Messages(), none.SimulatedDelay())
	}
	if none.rng.Int63() != fresh.rng.Int63() {
		t.Fatal("NoDelay SampleN drew from the random stream")
	}
}
