package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/cluster"
	"ontario/internal/lslod"
	"ontario/internal/server"
)

// clients is the closed loop's width: callers of a SPARQL endpoint wait for
// their reply, and the reference box has two cores, so two connections keep
// the load generator from competing with the server it measures.
const clients = 2

// dataSeed pins the lake contents and netsimSeed the latency sample stream.
// The run's -seed drives constant selection and op order only: the
// acceptance check varies -seed between runs, and a data-dependent
// cardinality (Q3 over SmallScale returns 13 +- 4 rows depending on the
// data seed) would move messages and delay-bound latency by more than any
// bound the benchmark could then honour.
const (
	dataSeed   = 1
	netsimSeed = 1
)

// sizes fixes how much work a run does. Op counts are constants, never
// "as many as fit in N seconds", so two runs execute identical passes; only
// the number of whole passes follows -seconds.
type sizes struct {
	lake        lslod.Scale // param-cold, replay-warm, cluster-2w
	grid        lslod.Scale // grid-delay
	coldWarm    int         // param-cold warm-up ops per template
	coldTimed   int         // param-cold timed ops per template
	replayWarm  int         // replay-warm warm ops after the cold five
	replayPass  int         // replay-warm ops per pass
	gridSweeps  int         // grid-delay sweeps of the ten cells per pass
	clusterWarm int
	clusterPass int
	minPasses   int // whole passes a run makes at least
	classPool   int // pooled samples every class median must rest on
	setups      int // set-ups per run (median reported) where a pass does not set up itself
	netScale    float64
	probeOps    int // distinct ops the direct layer probes cover
	inprocOps   int // cap on the in-process pass
	oracleEvery int // param-cold verifies every n-th op; the others every distinct op
}

func scaled(s lslod.Scale, k int) lslod.Scale {
	return lslod.Scale{
		Diseases: s.Diseases * k, Genes: s.Genes * k, DiseaseGeneLinks: s.DiseaseGeneLinks * k,
		PossibleDrugLinks: s.PossibleDrugLinks * k, Probesets: s.Probesets * k, Drugs: s.Drugs * k,
		Targets: s.Targets * k, DrugTargetLinks: s.DrugTargetLinks * k, Patients: s.Patients * k,
		PatientGeneLinks: s.PatientGeneLinks * k, Compounds: s.Compounds * k, ChemEntities: s.ChemEntities * k,
		Effects: s.Effects * k, Trials: s.Trials * k, Providers: s.Providers * k,
		ProviderDrugLinks: s.ProviderDrugLinks * k, Associations: s.Associations * k,
	}
}

func fullSizes() sizes {
	return sizes{
		lake: scaled(lslod.DefaultScale(), 4), grid: lslod.SmallScale(),
		coldWarm: 4, coldTimed: 20,
		replayWarm: 1000, replayPass: 1500,
		gridSweeps:  2,
		clusterWarm: 30, clusterPass: 60,
		minPasses: 3, classPool: 10, setups: 3, netScale: 1,
		probeOps: 25, inprocOps: 500, oracleEvery: 10,
	}
}

// smokeSizes is the tier-1 configuration: every code path, a few ops per
// class, no sleeping beyond one short grid sweep.
func smokeSizes() sizes {
	return sizes{
		lake: lslod.SmallScale(), grid: lslod.SmallScale(),
		coldWarm: 1, coldTimed: 2,
		replayWarm: 10, replayPass: 20,
		gridSweeps:  1,
		clusterWarm: 5, clusterPass: 10,
		minPasses: 1, classPool: 1, setups: 1, netScale: 0.001,
		probeOps: 5, inprocOps: 10, oracleEvery: 5,
	}
}

// op is one request of a workload: a query text plus the plan-shaping
// parameters of the SPARQL protocol request. The engine only ever sees
// these generated values.
type op struct {
	class   string // template or grid cell: the unit class medians are taken over
	text    string
	mode    string // "aware" | "unaware"
	network string // "" (No Delay) | "gamma2"
}

func (o op) key() string { return o.mode + "|" + o.network + "|" + o.text }

type workload struct {
	name string
	why  string
	// fresh workloads set up a new lake, engine and server for every pass,
	// so every timed op misses every cache.
	fresh bool
	// ops returns the warm-up list (run inside set-up) and the timed list
	// of one pass, both fully determined by sz and seed.
	ops func(sz sizes, seed int64) (warm, timed []op)
	// build assembles the serving instance, caches empty.
	build func(sz sizes) (*instance, error)
}

var workloads = []workload{
	{
		name:  "param-cold",
		why:   "distinct parameterised Q1-Q5 on a fresh mixed lake per pass: every op misses every cache, so parse, plan, translation, rdb, rdf and interning are what is timed",
		fresh: true,
		ops:   coldOps,
		build: func(sz sizes) (*instance, error) { return buildSingle(sz.lake, true, sz) },
	},
	{
		name:  "replay-warm",
		why:   "the five fixed texts replayed on one warm lake: every op hits the plan and response caches, so exchange, materialisation, JSON and HTTP are what is timed",
		ops:   replayOps,
		build: func(sz sizes) (*instance, error) { return buildSingle(sz.lake, true, sz) },
	},
	{
		name:  "grid-delay",
		why:   "the paper's grid, Q1-Q5 x aware/unaware under Gamma 2 with real sleeps: latency is messages x delay, so planner and bind-join changes move it and CPU work must not",
		ops:   gridOps,
		build: func(sz sizes) (*instance, error) { return buildSingle(sz.grid, false, sz) },
	},
	{
		name:  "cluster-2w",
		why:   "the replay texts through a coordinator and two partitioned workers on loopback TCP: worker-side evaluation and the shuffle wire against the single-process row",
		ops:   clusterOps,
		build: func(sz sizes) (*instance, error) { return buildCluster(sz.lake, 2, sz) },
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- op generators ---------------------------------------------------------

const rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// coldTemplates are Q1-Q5 with their constants lifted into parameters
// (Q5p adds a phase equality to the trial star); domain lists the values
// present in the generated data that the parameters range over.
type coldTemplate struct {
	class  string
	text   func(args []string) string
	domain func(d *lslod.Data) [][]string
}

func distinct(vs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func singles(vs []string) [][]string {
	out := make([][]string, len(vs))
	for i, v := range vs {
		out[i] = []string{v}
	}
	return out
}

func pairs(as, bs []string) [][]string {
	var out [][]string
	for _, a := range as {
		for _, b := range bs {
			out = append(out, []string{a, b})
		}
	}
	return out
}

func coldTemplates() []coldTemplate {
	return []coldTemplate{
		{
			class: "Q1p",
			text: func(a []string) string {
				return fmt.Sprintf(`
SELECT ?disease ?name ?gene WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?name .
  ?disease <%s> ?gene .
  FILTER (CONTAINS(?name, %q))
}`, rdfType, lslod.ClassDisease, lslod.PredDiseaseName, lslod.PredAssociatedGene, a[0])
			},
			domain: func(d *lslod.Data) [][]string {
				var heads []string // "carditis", "neuroma", ...: the name's first word
				for _, x := range d.Diseases {
					head, _, _ := strings.Cut(x.Name, ",")
					heads = append(heads, head)
				}
				return singles(distinct(heads))
			},
		},
		{
			class: "Q2p",
			text: func(a []string) string {
				return fmt.Sprintf(`
SELECT ?disease ?dname ?gene ?glabel WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> ?dname .
  ?disease <%s> ?gene .
  ?gene <%s> <%s> .
  ?gene <%s> ?glabel .
  ?gene <%s> ?chrom .
  FILTER (?chrom = %q)
}`, rdfType, lslod.ClassDisease, lslod.PredDiseaseName, lslod.PredAssociatedGene,
					rdfType, lslod.ClassGene, lslod.PredGeneLabel, lslod.PredGeneChromosome, a[0])
			},
			domain: func(d *lslod.Data) [][]string {
				var vs []string
				for _, x := range d.Genes {
					vs = append(vs, x.Chromosome)
				}
				return singles(distinct(vs))
			},
		},
		{
			class: "Q3p",
			text: func(a []string) string {
				return fmt.Sprintf(`
SELECT ?probe ?pname ?signal ?gene ?glabel WHERE {
  ?probe <%s> <%s> .
  ?probe <%s> ?pname .
  ?probe <%s> ?signal .
  ?probe <%s> ?gene .
  ?probe <%s> ?chrom .
  ?gene <%s> <%s> .
  ?gene <%s> ?glabel .
  FILTER (?chrom = %q)
}`, rdfType, lslod.ClassProbeset, lslod.PredProbesetName, lslod.PredSignal, lslod.PredTranscribedFrom,
					lslod.PredProbeChromosome, rdfType, lslod.ClassGene, lslod.PredGeneLabel, a[0])
			},
			domain: func(d *lslod.Data) [][]string {
				var vs []string
				for _, x := range d.Probesets {
					vs = append(vs, x.Chromosome)
				}
				return singles(distinct(vs))
			},
		},
		{
			class: "Q4p",
			text: func(a []string) string {
				return fmt.Sprintf(`
SELECT ?disease ?gene ?probe WHERE {
  ?disease <%s> <%s> .
  ?disease <%s> %q .
  ?disease <%s> ?gene .
  ?gene <%s> <%s> .
  ?gene <%s> ?glabel .
  ?probe <%s> <%s> .
  ?probe <%s> ?gene .
  ?probe <%s> ?species .
  FILTER (?species = %q)
}`, rdfType, lslod.ClassDisease, lslod.PredDiseaseClass, a[0], lslod.PredAssociatedGene,
					rdfType, lslod.ClassGene, lslod.PredGeneLabel,
					rdfType, lslod.ClassProbeset, lslod.PredTranscribedFrom, lslod.PredSpecies, a[1])
			},
			domain: func(d *lslod.Data) [][]string {
				var classes, species []string
				for _, x := range d.Diseases {
					classes = append(classes, x.Class)
				}
				for _, x := range d.Probesets {
					species = append(species, x.Species)
				}
				return pairs(distinct(classes), distinct(species))
			},
		},
		{
			class: "Q5p",
			text: func(a []string) string {
				return fmt.Sprintf(`
SELECT ?trial ?title ?dname ?drugname WHERE {
  ?trial <%s> <%s> .
  ?trial <%s> ?title .
  ?trial <%s> ?status .
  ?trial <%s> %q .
  ?trial <%s> ?disease .
  ?trial <%s> ?drug .
  ?disease <%s> <%s> .
  ?disease <%s> ?dname .
  ?drug <%s> <%s> .
  ?drug <%s> ?drugname .
  FILTER (?status = %q)
}`, rdfType, lslod.ClassTrial, lslod.PredTrialTitle, lslod.PredStatus, lslod.PredPhase, a[1],
					lslod.PredCondition, lslod.PredIntervention,
					rdfType, lslod.ClassDisease, lslod.PredDiseaseName,
					rdfType, lslod.ClassDrug, lslod.PredGenericName, a[0])
			},
			domain: func(d *lslod.Data) [][]string {
				var statuses, phases []string
				for _, x := range d.Trials {
					statuses = append(statuses, x.Status)
					phases = append(phases, x.Phase)
				}
				return pairs(distinct(statuses), distinct(phases))
			},
		},
	}
}

// coldOps draws, per template, coldWarm+coldTimed argument tuples without
// replacement from the template's domain, so no two ops of a pass share a
// text. A domain smaller than the draw is used whole. The draw is pinned
// with the data (dataSeed) and the run's seed orders the ops: which
// constants a pass uses decides how much work it is, and a draw per seed
// moved messages_per_query by 3 % and alloc_mb_per_query by 5 % between
// seeds, more than their bounds.
func coldOps(sz sizes, seed int64) (warm, timed []op) {
	data := lslod.Generate(sz.lake, dataSeed)
	draw := rand.New(rand.NewSource(dataSeed))
	for _, t := range coldTemplates() {
		dom := t.domain(data)
		draw.Shuffle(len(dom), func(i, j int) { dom[i], dom[j] = dom[j], dom[i] })
		need := sz.coldWarm + sz.coldTimed
		if len(dom) < need {
			need = len(dom)
		}
		nWarm := need * sz.coldWarm / (sz.coldWarm + sz.coldTimed)
		for i, args := range dom[:need] {
			o := op{class: t.class, text: t.text(args), mode: "aware"}
			if i < nWarm {
				warm = append(warm, o)
			} else {
				timed = append(timed, o)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return inBlocks(rng, warm), inBlocks(rng, timed)
}

// blockSize is how many ops of one class run back to back. The two clients
// take consecutive ops, so inside a block both run the same class: a light
// query's latency then does not depend on whether the seed happened to pair
// it with a heavy one (that made class medians bimodal), and only the op at
// a block's edge meets another class.
const blockSize = 10

// inBlocks orders ops by seed: each class's ops are shuffled and cut into
// blocks of at most blockSize, and the blocks are shuffled.
func inBlocks(rng *rand.Rand, ops []op) []op {
	byClass := map[string][]op{}
	var classes []string
	for _, o := range ops {
		if byClass[o.class] == nil {
			classes = append(classes, o.class)
		}
		byClass[o.class] = append(byClass[o.class], o)
	}
	var blocks [][]op
	for _, c := range classes {
		of := byClass[c]
		rng.Shuffle(len(of), func(i, j int) { of[i], of[j] = of[j], of[i] })
		for len(of) > 0 {
			n := min(blockSize, len(of))
			blocks = append(blocks, of[:n])
			of = of[n:]
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	out := make([]op, 0, len(ops))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func fixedFive() []op {
	var out []op
	for _, q := range lslod.Queries() {
		out = append(out, op{class: q.ID, text: q.Text, mode: "aware"})
	}
	return out
}

// cycled returns n ops cycling base in equal shares, in seed order.
func cycled(rng *rand.Rand, base []op, n int) []op {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base[i%len(base)])
	}
	return inBlocks(rng, out)
}

func replayOps(sz sizes, seed int64) (warm, timed []op) {
	rng := rand.New(rand.NewSource(seed))
	five := fixedFive()
	warm = append(append(warm, five...), cycled(rng, five, sz.replayWarm)...)
	return warm, cycled(rng, five, sz.replayPass)
}

func clusterOps(sz sizes, seed int64) (warm, timed []op) {
	rng := rand.New(rand.NewSource(seed))
	five := fixedFive()
	return cycled(rng, five, sz.clusterWarm), cycled(rng, five, sz.clusterPass)
}

// gridOps is the paper's table: Q1-Q5 x {aware, unaware} under Gamma 2.
// Gamma 1's 0.3 ms sleeps are below the sandbox's timer resolution.
func gridOps(sz sizes, seed int64) (warm, timed []op) {
	rng := rand.New(rand.NewSource(seed))
	var cells []op
	for _, q := range lslod.Queries() {
		for _, mode := range []string{"aware", "unaware"} {
			cells = append(cells, op{class: q.ID + "-" + mode, text: q.Text, mode: mode, network: "gamma2"})
		}
	}
	warm = append(warm, cells...)
	return warm, cycled(rng, cells, sz.gridSweeps*len(cells))
}

// ---- instances -------------------------------------------------------------

// instance is one serving configuration: lake, engine, server on an
// in-process loopback listener, and for cluster workloads the worker pool.
type instance struct {
	lake    *lslod.Lake
	eng     *ontario.Engine
	srv     *server.Server
	ts      *httptest.Server
	hc      *http.Client
	rec     atomic.Pointer[recorder] // set while a traced pass runs
	pool    *cluster.Client
	workers []*cluster.Worker
	opts    []ontario.Option // the server's default options (in-process runs reuse them)
}

func (in *instance) close() {
	in.hc.CloseIdleConnections()
	in.ts.Close()
	if in.pool != nil {
		in.pool.Close()
	}
	for _, w := range in.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.Shutdown(ctx)
		cancel()
	}
}

func buildLake(scale lslod.Scale, mixed bool) (*lslod.Lake, error) {
	if mixed {
		// RDF beside relational, so the rdf layer is on the measured path.
		return lslod.BuildMixedLake(scale, dataSeed, []string{lslod.DSDrugBank, lslod.DSLinkedCT})
	}
	return lslod.BuildLake(scale, dataSeed)
}

func buildSingle(scale lslod.Scale, mixed bool, sz sizes) (*instance, error) {
	l, err := buildLake(scale, mixed)
	if err != nil {
		return nil, err
	}
	in := &instance{lake: l}
	in.serve(sz, nil)
	return in, nil
}

func buildCluster(scale lslod.Scale, n int, sz sizes) (*instance, error) {
	in := &instance{}
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := buildLake(scale, true)
		if err != nil {
			return nil, err
		}
		if err := cluster.PartitionLake(l.Lake, i, n); err != nil {
			return nil, err
		}
		w, err := cluster.NewWorker(l.Lake, cluster.WorkerConfig{Partition: i, Of: n})
		if err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go w.Serve(lis) // returns when close() shuts the worker down
		in.workers = append(in.workers, w)
		addrs = append(addrs, lis.Addr().String())
	}
	full, err := buildLake(scale, true)
	if err != nil {
		return nil, err
	}
	in.lake = full
	in.pool, err = cluster.NewClient(addrs, cluster.ClientConfig{})
	if err != nil {
		return nil, err
	}
	opt, ok := bridge.ClusterOption(in.pool).(ontario.Option)
	if !ok {
		return nil, fmt.Errorf("cluster option bridge unavailable")
	}
	in.serve(sz, opt)
	return in, nil
}

// serve mounts internal/server over the instance's lake on a loopback
// listener. Mode and network arrive per request, as protocol parameters.
func (in *instance) serve(sz sizes, extra ontario.Option) {
	in.eng = ontario.New(in.lake.Lake)
	in.opts = []ontario.Option{ontario.WithNetworkScale(sz.netScale), ontario.WithSeed(netsimSeed)}
	if extra != nil {
		in.opts = append(in.opts, extra)
	}
	in.srv = server.New(in.eng, server.Config{
		MaxConcurrent:  clients,
		QueryTimeout:   60 * time.Second,
		DefaultOptions: in.opts,
	})
	in.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := in.rec.Load()
		if rec == nil {
			in.srv.ServeHTTP(w, r)
			return
		}
		// The client allocated this span's id so it can hang the engine's
		// operator actuals under it after the pass.
		id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Parent"), 10, 64)
		start := rec.now()
		in.srv.ServeHTTP(w, r)
		rec.end(id, parent, "server.http", r.Header.Get("X-Bench-Query"), start, nil)
	}))
	tr := &http.Transport{MaxIdleConns: clients + 2, MaxIdleConnsPerHost: clients + 2}
	in.hc = &http.Client{Transport: tr}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
