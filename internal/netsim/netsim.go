// Package netsim simulates network conditions between the federated query
// engine and the data sources, reproducing the paper's setup: the retrieval
// of each answer from a source is delayed by a sample from a gamma
// distribution. The four profiles match Section 3 of the paper:
//
//	No Delay — perfect network
//	Gamma 1  — fast network, gamma(α=1, β=0.3)  ≈ 0.3 ms mean latency
//	Gamma 2  — medium network, gamma(α=3, β=1)   ≈ 3 ms mean latency
//	Gamma 3  — slow network, gamma(α=3, β=1.5)   ≈ 4.5 ms mean latency
//
// The paper samples with numpy.random.gamma and sleeps with time.sleep
// inside the SQL wrapper; here wrapper.respEntry.stream samples each
// message and sleeps to a running deadline, so late timer wake-ups do not
// add up, while Simulator.Delay is one unpaced sleep. A configurable time
// scale lets tests and benchmarks shrink real sleeping while keeping the
// sampled (reported) delays intact.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Profile describes one simulated network condition.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Alpha and Beta are the gamma distribution's shape and scale in
	// milliseconds. Alpha == 0 means no delay.
	Alpha, Beta float64
}

// The paper's four network settings.
var (
	NoDelay = Profile{Name: "No Delay"}
	Gamma1  = Profile{Name: "Gamma 1", Alpha: 1, Beta: 0.3}
	Gamma2  = Profile{Name: "Gamma 2", Alpha: 3, Beta: 1}
	Gamma3  = Profile{Name: "Gamma 3", Alpha: 3, Beta: 1.5}
)

// Profiles lists the paper's network settings in evaluation order.
func Profiles() []Profile { return []Profile{NoDelay, Gamma1, Gamma2, Gamma3} }

// ProfileByName resolves a profile from its CLI/HTTP-parameter name. The
// empty string, "none", "nodelay" and "no-delay" all mean NoDelay.
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "", "none", "nodelay", "no-delay":
		return NoDelay, nil
	case "gamma1":
		return Gamma1, nil
	case "gamma2":
		return Gamma2, nil
	case "gamma3":
		return Gamma3, nil
	default:
		return Profile{}, fmt.Errorf("netsim: unknown network profile %q", name)
	}
}

// MeanLatency returns the distribution mean (α·β) as a duration.
func (p Profile) MeanLatency() time.Duration {
	return time.Duration(p.Alpha * p.Beta * float64(time.Millisecond))
}

// IsSlow reports whether the profile counts as a "slow network" for
// Heuristic 2. The paper treats its medium and slow settings (mean latency
// of 3 ms and above) as slow enough to push filters to the source.
func (p Profile) IsSlow() bool {
	return p.MeanLatency() >= 3*time.Millisecond
}

// Simulator draws per-message delays for one source connection. It is safe
// for concurrent use.
type Simulator struct {
	profile Profile
	scale   float64

	mu  sync.Mutex
	rng *rand.Rand
	// simulated accumulates the sampled (unscaled) delay.
	simulated time.Duration
	messages  int
}

// NewSimulator returns a delay simulator for the profile. Scale multiplies
// the actual sleeping (1.0 reproduces the sampled delay in real time, 0
// disables sleeping entirely); the sampled delay is accounted in
// SimulatedDelay either way. Seed fixes the random stream for
// reproducibility.
func NewSimulator(p Profile, scale float64, seed int64) *Simulator {
	return &Simulator{profile: p, scale: scale, rng: rand.New(&splitmix{state: uint64(seed)})}
}

// splitmix is a seeded rand.Source64 (SplitMix64). Its state is two
// words, versus the ~5KB lagged-Fibonacci table rand.NewSource seeds:
// simulators are built per source per execution, so construction cost
// dominates and the generator's statistical quality is more than enough
// for latency sampling.
type splitmix struct{ state uint64 }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Profile returns the simulator's profile.
func (s *Simulator) Profile() Profile { return s.profile }

// Delay samples one message latency, sleeps scale×latency, and returns the
// sampled latency.
func (s *Simulator) Delay() time.Duration {
	d := s.Sample()
	time.Sleep(s.Pause(d))
	return d
}

// Sample draws one latency without sleeping.
func (s *Simulator) Sample() time.Duration { return s.SampleN(1) }

// SampleN draws the latencies of n messages under one lock — the same
// random stream as n Sample calls — without sleeping, and returns their
// sum.
func (s *Simulator) SampleN(n int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.messages += n
	if s.profile.Alpha == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		ms := gammaSample(s.rng, s.profile.Alpha, s.profile.Beta)
		sum += time.Duration(ms * float64(time.Millisecond))
	}
	s.simulated += sum
	return sum
}

// Sleeps reports whether Delay really waits: a profile with latency at a
// positive time scale.
func (s *Simulator) Sleeps() bool { return s.profile.Alpha > 0 && s.scale > 0 }

// Pause returns the real time a sampled latency d takes: scale×d.
func (s *Simulator) Pause(d time.Duration) time.Duration {
	return time.Duration(float64(d) * s.scale)
}

// SimulatedDelay returns the total sampled delay so far.
func (s *Simulator) SimulatedDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulated
}

// Messages returns the number of delayed messages so far.
func (s *Simulator) Messages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages
}

// gammaSample draws from Gamma(alpha, beta) using the Marsaglia–Tsang
// squeeze method (with Johnk-style boosting for alpha < 1). beta is the
// scale parameter, matching numpy.random.gamma(shape, scale).
func gammaSample(rng *rand.Rand, alpha, beta float64) float64 {
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, alpha+1, beta) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * beta
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * beta
		}
	}
}
