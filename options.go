package ontario

import (
	"fmt"
	"strings"
	"time"

	"ontario/internal/core"
	"ontario/internal/netsim"
	"ontario/internal/wrapper"
)

// Profile describes one simulated network condition: the retrieval of each
// answer from a source is delayed by a sample from a gamma distribution
// with shape Alpha and scale Beta (in milliseconds). Alpha == 0 means no
// delay.
type Profile struct {
	// Name identifies the profile in reports and EXPLAIN output.
	Name        string
	Alpha, Beta float64
}

// The paper's four network settings.
var (
	// NoDelay is a perfect network.
	NoDelay = Profile{Name: "No Delay"}
	// Gamma1 is a fast network (≈ 0.3 ms mean latency).
	Gamma1 = Profile{Name: "Gamma 1", Alpha: 1, Beta: 0.3}
	// Gamma2 is a medium network (≈ 3 ms mean latency).
	Gamma2 = Profile{Name: "Gamma 2", Alpha: 3, Beta: 1}
	// Gamma3 is a slow network (≈ 4.5 ms mean latency).
	Gamma3 = Profile{Name: "Gamma 3", Alpha: 3, Beta: 1.5}
)

// Profiles lists the paper's network settings in evaluation order.
func Profiles() []Profile { return []Profile{NoDelay, Gamma1, Gamma2, Gamma3} }

// GammaProfile returns a custom network profile with gamma-distributed
// per-message latency (shape alpha, scale beta, in milliseconds).
func GammaProfile(name string, alpha, beta float64) Profile {
	return Profile{Name: name, Alpha: alpha, Beta: beta}
}

// ProfileByName resolves one of the named profiles from its CLI/HTTP
// parameter name. The empty string, "none", "nodelay" and "no-delay" all
// mean NoDelay.
func ProfileByName(name string) (Profile, error) {
	p, err := netsim.ProfileByName(name)
	if err != nil {
		return Profile{}, err
	}
	return Profile{Name: p.Name, Alpha: p.Alpha, Beta: p.Beta}, nil
}

// MeanLatency returns the distribution mean (α·β) as a duration.
func (p Profile) MeanLatency() time.Duration {
	return p.netsim().MeanLatency()
}

// IsSlow reports whether the profile counts as a "slow network" for
// Heuristic 2 (mean latency of 3 ms and above).
func (p Profile) IsSlow() bool { return p.netsim().IsSlow() }

func (p Profile) netsim() netsim.Profile {
	return netsim.Profile{Name: p.Name, Alpha: p.Alpha, Beta: p.Beta}
}

// JoinOperator selects the engine-level join implementation.
type JoinOperator int

// Join operators.
const (
	// JoinSymmetricHash is the non-blocking adaptive operator (default).
	JoinSymmetricHash JoinOperator = iota
	// JoinBind re-invokes the right service once per left binding,
	// strictly sequentially.
	JoinBind
	// JoinBlockBind gathers left bindings into blocks and answers each
	// block with a single multi-seed service request, dispatching several
	// blocks concurrently.
	JoinBlockBind
)

// String names the operator.
func (j JoinOperator) String() string { return j.core().String() }

func (j JoinOperator) core() core.JoinOperator {
	switch j {
	case JoinBind:
		return core.JoinBind
	case JoinBlockBind:
		return core.JoinBlockBind
	default:
		return core.JoinSymmetricHash
	}
}

// JoinOperatorByName resolves a join operator from its CLI/HTTP parameter
// name. The empty string, "hash" and "symmetric-hash" all mean
// JoinSymmetricHash.
func JoinOperatorByName(name string) (JoinOperator, error) {
	switch strings.ToLower(name) {
	case "", "hash", "symmetric-hash":
		return JoinSymmetricHash, nil
	case "bind":
		return JoinBind, nil
	case "block-bind", "block":
		return JoinBlockBind, nil
	default:
		return 0, fmt.Errorf("ontario: unknown join operator %q", name)
	}
}

// Optimizer selects the join-ordering and operator-selection strategy.
type Optimizer int

// Optimizers.
const (
	// OptimizerCost orders joins with the statistics-backed cost model and
	// picks the physical operator per join — the default of aware plans.
	OptimizerCost Optimizer = iota
	// OptimizerGreedy is the legacy strategy: order joins greedily by
	// shared-variable count and apply one global join operator (the
	// ablation baseline, and the default of unaware plans).
	OptimizerGreedy
)

// String names the optimizer.
func (o Optimizer) String() string { return o.core().String() }

func (o Optimizer) core() core.OptimizerMode {
	if o == OptimizerGreedy {
		return core.OptimizerGreedy
	}
	return core.OptimizerCost
}

// OptimizerByName resolves an optimizer from its CLI/HTTP parameter name
// ("cost" or "greedy", case-insensitive).
func OptimizerByName(name string) (Optimizer, error) {
	m, err := core.OptimizerByName(name)
	if err != nil {
		return 0, err
	}
	if m == core.OptimizerGreedy {
		return OptimizerGreedy, nil
	}
	return OptimizerCost, nil
}

// Option configures one query execution. Options are order-independent:
// each records a setting, and the engine resolves them all at once when
// the query is planned — the plan mode (aware/unaware/Heuristic 2) is
// applied first, then the overlays (network, optimizer, join operator,
// translation, decomposition), so WithOptimizer works the same before or
// after WithAwarePlan.
type Option func(*config)

type planMode int

const (
	modeDefault planMode = iota // unaware
	modeAware
	modeUnaware
)

type config struct {
	mode       planMode
	heuristic2 bool
	network    Profile
	networkSet bool
	optimizer  *Optimizer
	joinOp     *JoinOperator
	naive      bool
	bindBlock  int
	bindConc   int
	batchSize  int
	scale      float64
	seed       int64
	// cluster distributes the execution over a partitioned worker pool.
	// Internal-only (via internal/bridge, wired by cmd/ontario-server's
	// coordinator role). Like scale/seed it is an execution-time setting:
	// it is injected when a query starts, never planned into a cached
	// Prepared, so clustered and single-node runs share plans.
	cluster core.Distributor
}

func newConfig(options []Option) config {
	cfg := config{scale: 1.0, seed: 1}
	for _, o := range options {
		o(&cfg)
	}
	return cfg
}

// resolve computes the planner options: the plan mode fixes the defaults,
// then every explicitly-set overlay is applied on top. The result is the
// same for every permutation of the same option set.
func (c config) resolve() core.Options {
	network := netsim.NoDelay
	if c.networkSet {
		network = c.network.netsim()
	}
	var opts core.Options
	if c.mode == modeAware || c.heuristic2 {
		opts = core.AwareOptions(network)
	} else {
		opts = core.UnawareOptions(network)
	}
	if c.heuristic2 {
		opts.FilterPolicy = core.FilterHeuristic2
	}
	if c.optimizer != nil {
		opts.Optimizer = c.optimizer.core()
	}
	if c.joinOp != nil {
		opts.JoinOperator = c.joinOp.core()
	}
	if c.naive {
		opts.Translation = wrapper.TranslationNaive
	}
	opts.BindBlockSize = c.bindBlock
	opts.BindConcurrency = c.bindConc
	opts.BatchSize = c.batchSize
	return opts
}

// WithAwarePlan selects the physical-design-aware plan: Heuristic 1 join
// pushdown, filters pushed when the attribute is indexed, and the
// cost-based optimizer.
func WithAwarePlan() Option {
	return func(c *config) { c.mode = modeAware }
}

// WithUnawarePlan selects the physical-design-unaware baseline plan.
func WithUnawarePlan() Option {
	return func(c *config) { c.mode = modeUnaware }
}

// WithHeuristic2 applies Heuristic 2 verbatim for filter placement (engine
// level unless the attribute is indexed and the network is slow). It
// implies an aware plan.
func WithHeuristic2() Option {
	return func(c *config) { c.heuristic2 = true }
}

// WithNetwork sets the simulated network profile.
func WithNetwork(p Profile) Option {
	return func(c *config) { c.network, c.networkSet = p, true }
}

// WithOptimizer overrides the plan mode's join-ordering / operator-
// selection strategy (aware plans default to OptimizerCost, unaware plans
// to OptimizerGreedy).
func WithOptimizer(o Optimizer) Option {
	return func(c *config) { c.optimizer = &o }
}

// WithJoinOperator forces one engine-level join implementation for every
// join, instead of the optimizer's per-join choice. The forced operator is
// kept as given: JoinBind is the strictly sequential bind join even where
// the left input would fill a block. Under OptimizerCost, JoinSymmetricHash
// (the default) forces nothing: the optimizer still chooses each join.
func WithJoinOperator(op JoinOperator) Option {
	return func(c *config) { c.joinOp = &op }
}

// WithNaiveTranslation uses the unoptimized SPARQL-to-SQL translation for
// merged stars (the limitation the paper reports for Ontario).
func WithNaiveTranslation() Option {
	return func(c *config) { c.naive = true }
}

// WithBindBlockSize caps the number of left bindings the block bind join
// gathers into one multi-seed service request (default 16). The block
// grows as left bindings arrive — one seed, then 2, 4, … up to the cap —
// so a left input that arrives at once is cut into full blocks and one
// that trickles in sends its first seed at once. The block is pushed down
// as a single SQL IN/OR predicate at relational sources and evaluated in
// one graph pass at RDF sources, so each block costs one simulated network
// message instead of one per left binding. A size of 1 degenerates to
// per-binding requests, and the cost optimizer then considers the
// sequential bind join instead. The cap prices the block variant in the
// cost optimizer's per-join choice; it never turns a forced JoinBind into
// a block bind join.
func WithBindBlockSize(n int) Option {
	return func(c *config) { c.bindBlock = n }
}

// WithBindConcurrency bounds how many block bind-join requests may be in
// flight at once (default 4).
func WithBindConcurrency(n int) Option {
	return func(c *config) { c.bindConc = n }
}

// WithBatchSize sets the number of solution bindings the execution data
// plane packs into one exchange batch (default 256). Operators consume and
// emit whole batches, amortizing per-tuple channel and scheduling costs;
// leaf producers flush a partial batch after a short interval and on
// close, so streaming semantics and time-to-first-answer are preserved. A
// size of 1 degenerates to binding-at-a-time execution (the pre-batching
// behaviour, useful as an ablation baseline).
func WithBatchSize(n int) Option {
	return func(c *config) { c.batchSize = n }
}

// WithNetworkScale multiplies the real sleeping of the network simulation;
// 0 disables sleeping (sampled delays are still recorded), 1 reproduces
// the sampled delays in real time.
func WithNetworkScale(scale float64) Option {
	return func(c *config) { c.scale = scale }
}

// WithSeed fixes the network simulation's random streams.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}
