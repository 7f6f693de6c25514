// Command ontario-server runs the federated SPARQL endpoint over the
// synthetic LSLOD lake:
//
//	POST /sparql   SPARQL Protocol-style query endpoint (also GET ?query=,
//	               form-encoded POST); answers stream as
//	               application/sparql-results+json while the executor
//	               produces them. Optional parameters: mode=aware|unaware,
//	               network=nodelay|gamma1|gamma2|gamma3, timeout=<dur>,
//	               optimizer=cost|greedy, explain=1 (render the plan with
//	               cost estimates instead of executing), analyze=1 (append
//	               the EXPLAIN ANALYZE report — per-operator actuals and
//	               remote spans — to the streamed result document).
//	/metrics       Prometheus text-format counters and latency histograms,
//	               including plan-cache hits/misses, per-operator wall
//	               times, and the estimate-vs-actual cardinality error.
//	/healthz       liveness probe with build info, uptime and counters.
//	/debug/queries slow-query log (?threshold=250ms filters).
//	/debug/pprof/  runtime profiling (disable with -pprof=false).
//
// Plans are cached at lake lifetime in the engine's LRU, keyed by
// normalized query text plus the plan-shaping parameters; a repeated
// query skips parsing and planning.
//
// Admission control: at most -max-concurrent queries execute at once; up
// to -queue-depth more wait; beyond that, requests get 503 with a
// Retry-After hint. -source-limit bounds concurrently in-flight wrapper
// requests per source across all queries.
//
// Federation: -federate "id=http://host:port,..." registers peer
// ontario-server nodes as live remote sources. Each peer's molecule
// templates are discovered from its /molecules endpoint and its queries go
// over real HTTP under the resilience policy (-remote-timeout,
// -remote-retries, -breaker-threshold, -breaker-cooldown); this node
// advertises its own templates on /molecules in turn, so nodes can
// federate over each other. Discovery runs in the background after the
// node starts serving: peers are retried with backoff for up to
// -federate-wait and swapped into the running server when they answer, so
// two nodes federating over each other can bootstrap in either order and
// a transient peer outage never prevents a restart. Per-source health
// gauges (breaker state, failure rate, measured latency) are on /metrics.
//
// Cluster: -role selects the node's place in a partitioned scale-out
// deployment (see the README's "Running a cluster"):
//
//   - single (default): the standalone node described above.
//   - worker: owns hash-partition -partition i/N of the lake and executes
//     plan fragments the coordinator ships over the shuffle wire protocol
//     on -cluster-addr; the HTTP endpoint still serves the partition
//     locally (useful for /healthz and /metrics probes).
//   - coordinator: plans queries against the full catalog and distributes
//     execution over the -workers pool; /healthz and /metrics report
//     per-worker health and shuffle traffic.
//
// Every role shuts down gracefully on SIGINT/SIGTERM: the HTTP listener
// stops accepting, in-flight (and admission-queued) queries get
// -shutdown-grace to drain, and a worker drains its running fragments the
// same way.
//
// Every query gets a trace identity: a W3C traceparent arriving on
// /sparql is adopted (this node becomes a child span of the caller),
// otherwise fresh IDs are assigned. The query ID returns in the
// X-Ontario-Query-Id header, correlates every access-log line, and is
// forwarded to federated peers on each hop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/buildinfo"
	"ontario/internal/cluster"
	"ontario/internal/lslod"
	"ontario/internal/server"
	"ontario/internal/wrapper"
	"ontario/lake"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		small     = flag.Bool("small", false, "use the small data scale")
		seed      = flag.Int64("seed", 1, "data and network seed")
		scalef    = flag.Float64("net-scale", 1.0, "network sleep scale (0 disables sleeping)")
		network   = flag.String("network", "nodelay", "default network profile: nodelay | gamma1 | gamma2 | gamma3")
		mode      = flag.String("mode", "aware", "default plan mode: aware | unaware")
		maxConc   = flag.Int("max-concurrent", 4, "max concurrently executing queries")
		queue     = flag.Int("queue-depth", 16, "max queries waiting for an execution slot (negative disables queueing)")
		srcLimit  = flag.Int("source-limit", 4, "max in-flight wrapper requests per source, a slot held while the source answers; the simulated transfer is not source work (0 = unlimited)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query deadline")
		slowLog   = flag.Int("slow-query-log", 128, "slow-query log capacity for /debug/queries (negative disables)")
		enablePpf = flag.Bool("pprof", true, "mount net/http/pprof under /debug/pprof/")
		logJSON   = flag.Bool("log-json", false, "emit access and server logs as JSON instead of text")

		federate      = flag.String("federate", "", `peer ontario-server nodes as "id=http://host:port,id2=..." (molecules discovered from each peer's /molecules)`)
		federateWait  = flag.Duration("federate-wait", 2*time.Minute, "how long background discovery keeps retrying an unreachable -federate peer before starting without it")
		remoteTimeout = flag.Duration("remote-timeout", 10*time.Second, "per-attempt timeout for remote sources (negative disables)")
		remoteRetries = flag.Int("remote-retries", 3, "retries per remote request (negative disables)")
		breakerThresh = flag.Int("breaker-threshold", 5, "consecutive remote failures that open a source's circuit breaker (negative disables)")
		breakerCool   = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker rejects requests before a half-open probe")

		role          = flag.String("role", "single", "node role: single | coordinator | worker")
		clusterAddr   = flag.String("cluster-addr", ":9090", "worker role: TCP listen address for the shuffle wire protocol")
		workers       = flag.String("workers", "", `coordinator role: comma-separated worker shuffle addresses ("host:9090,host2:9090"), in partition order`)
		partition     = flag.String("partition", "", `worker role: this node's hash-partition as "i/N" (0-based, e.g. "0/2")`)
		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second, "how long SIGINT/SIGTERM lets in-flight queries drain before forcing exit")
	)
	flag.Parse()
	switch *role {
	case "single", "coordinator", "worker":
	default:
		fail(fmt.Errorf("unknown -role %q (want single, coordinator or worker)", *role))
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	profile, err := ontario.ProfileByName(*network)
	if err != nil {
		fail(err)
	}

	scale := lslod.DefaultScale()
	if *small {
		scale = lslod.SmallScale()
	}

	// -federate entries are validated up front (a malformed flag is a
	// config error and fails fast), but the peers themselves are resolved
	// in the background after the server is up: each one's molecule
	// templates come from its live /molecules endpoint, which may not be
	// reachable yet — in particular when two nodes federate over each
	// other, neither can be required to start first.
	type peerSpec struct{ id, base string }
	var peerSpecs []peerSpec
	if *federate != "" {
		if *role != "single" {
			fail(fmt.Errorf("-federate only applies to -role single (put federation peers behind the coordinator's workers)"))
		}
		for _, part := range strings.Split(*federate, ",") {
			id, base, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || id == "" || base == "" {
				fail(fmt.Errorf(`invalid -federate entry %q (want "id=http://host:port")`, part))
			}
			peerSpecs = append(peerSpecs, peerSpec{id: id, base: base})
		}
	}
	type peer struct {
		id, url string
		mols    []lake.Molecule
	}

	engOpts := []ontario.EngineOption{
		ontario.WithResilience(ontario.Resilience{
			Timeout:          *remoteTimeout,
			MaxRetries:       *remoteRetries,
			BreakerThreshold: *breakerThresh,
			BreakerCooldown:  *breakerCool,
		}),
	}
	if *srcLimit > 0 {
		engOpts = append(engOpts, ontario.WithSourceLimit(*srcLimit))
	}

	var workerPart, workerOf int
	if *role == "worker" {
		workerPart, workerOf, err = parsePartition(*partition)
		if err != nil {
			fail(err)
		}
	}

	buildLake := func(peers []peer) (*lslod.Lake, error) {
		l, err := lslod.BuildLakeCustom(scale, *seed, func(b *lake.Builder) {
			for _, p := range peers {
				b.AddSPARQLEndpoint(p.id, p.url, p.mols...)
			}
		})
		if err != nil {
			return nil, err
		}
		if *role == "worker" {
			// The worker owns one hash-partition: the lake is built in
			// full (cheap, synthetic) and thinned in place, so every
			// worker ends up with the same catalog shape over disjoint
			// data.
			if err := cluster.PartitionLake(l.Lake, workerPart, workerOf); err != nil {
				return nil, err
			}
		}
		return l, nil
	}
	buildEngine := func(peers []peer) (*ontario.Engine, error) {
		l, err := buildLake(peers)
		if err != nil {
			return nil, err
		}
		return ontario.New(l.Lake, engOpts...), nil
	}

	logger.Info("building LSLOD lake",
		slog.Bool("small", *small), slog.Int64("seed", *seed), slog.String("role", *role))

	var clusterWorker *cluster.Worker
	var eng *ontario.Engine
	if *role == "worker" {
		l, err := buildLake(nil)
		if err != nil {
			fail(err)
		}
		clusterWorker, err = cluster.NewWorker(l.Lake, cluster.WorkerConfig{
			Partition:     workerPart,
			Of:            workerOf,
			MaxConcurrent: *maxConc,
			Logger:        log.New(os.Stderr, "cluster-worker: ", log.LstdFlags),
		})
		if err != nil {
			fail(err)
		}
		eng = ontario.New(l.Lake, engOpts...)
	} else {
		eng, err = buildEngine(nil)
		if err != nil {
			fail(err)
		}
	}

	defaults := []ontario.Option{
		ontario.WithNetwork(profile),
		ontario.WithNetworkScale(*scalef),
		ontario.WithSeed(*seed),
	}
	switch *mode {
	case "aware":
		defaults = append(defaults, ontario.WithAwarePlan())
	case "unaware":
		defaults = append(defaults, ontario.WithUnawarePlan())
	default:
		fail(fmt.Errorf("unknown mode %q (want aware or unaware)", *mode))
	}

	// Coordinator role: every query executes distributed over the worker
	// pool; /healthz and /metrics report the pool's state.
	var clusterStatus func() []server.WorkerStatus
	if *role == "coordinator" {
		if *workers == "" {
			fail(fmt.Errorf("-role coordinator requires -workers"))
		}
		var addrs []string
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		client, err := cluster.NewClient(addrs, cluster.ClientConfig{
			Resilience: wrapper.ResilienceConfig{
				Timeout:          *remoteTimeout,
				MaxRetries:       *remoteRetries,
				BreakerThreshold: *breakerThresh,
				BreakerCooldown:  *breakerCool,
			},
		})
		if err != nil {
			fail(err)
		}
		defer client.Close()
		opt, ok := bridge.ClusterOption(client).(ontario.Option)
		if !ok {
			fail(fmt.Errorf("cluster option bridge returned an unexpected type"))
		}
		defaults = append(defaults, opt)
		clusterStatus = func() []server.WorkerStatus {
			pctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			return serverWorkerStatus(client.Probe(pctx))
		}
		logger.Info("coordinating over worker pool", slog.Int("workers", len(addrs)))
	}

	srv := server.New(eng, server.Config{
		MaxConcurrent:    *maxConc,
		QueueDepth:       *queue,
		QueryTimeout:     *timeout,
		SlowQueryLogSize: *slowLog,
		EnablePprof:      *enablePpf,
		Logger:           logger,
		DefaultOptions:   defaults,
		ClusterStatus:    clusterStatus,
	})

	if len(peerSpecs) > 0 {
		// Deferred federation: the node serves its local lake immediately;
		// once the peers answer, the lake is rebuilt with them and swapped
		// into the running server. An unreachable peer is a warning, not a
		// startup failure.
		go func() {
			ctx, cancel := context.WithTimeout(ctx, *federateWait)
			defer cancel()
			var peers []peer
			for _, ps := range peerSpecs {
				mols, err := discoverWithRetry(ctx, ps.base, logger)
				if err != nil {
					logger.Warn("federation: peer unreachable, serving without it",
						slog.String("peer", ps.id), slog.String("base", ps.base),
						slog.Duration("waited", *federateWait), slog.String("error", err.Error()))
					continue
				}
				logger.Info("federating over peer",
					slog.String("peer", ps.id), slog.String("base", ps.base),
					slog.Int("molecules", len(mols)))
				peers = append(peers, peer{id: ps.id, url: strings.TrimRight(ps.base, "/") + "/sparql", mols: mols})
			}
			if len(peers) == 0 {
				return
			}
			feng, err := buildEngine(peers)
			if err != nil {
				logger.Warn("federation: rebuilding the lake with peers failed, serving locally",
					slog.String("error", err.Error()))
				return
			}
			srv.SetEngine(feng)
			logger.Info("federation active",
				slog.Int("registered", len(peers)), slog.Int("configured", len(peerSpecs)))
		}()
	}

	if clusterWorker != nil {
		lis, err := net.Listen("tcp", *clusterAddr)
		if err != nil {
			fail(err)
		}
		logger.Info("worker serving fragments",
			slog.String("cluster_addr", lis.Addr().String()),
			slog.Int("partition", workerPart), slog.Int("of", workerOf))
		go func() {
			if err := clusterWorker.Serve(lis); err != nil {
				logger.Error("worker shuffle listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	version, commit := buildinfo.Info()
	logger.Info("ontario-server listening",
		slog.String("addr", *addr),
		slog.String("role", *role),
		slog.String("version", version),
		slog.String("commit", commit),
		slog.String("mode", *mode),
		slog.String("network", profile.Name),
		slog.Int("max_concurrent", *maxConc),
		slog.Int("queue_depth", *queue),
		slog.Int("source_limit", *srcLimit),
		slog.Duration("timeout", *timeout))
	err = serveHTTP(ctx, logger, *addr, srv, *shutdownGrace)
	if clusterWorker != nil {
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		if werr := clusterWorker.Shutdown(sctx); werr != nil && err == nil {
			err = werr
		}
		cancel()
	}
	if err != nil {
		fail(err)
	}
}

// serveHTTP runs the handler until it fails or ctx is cancelled (SIGINT/
// SIGTERM), then drains gracefully: the listener closes, in-flight and
// admission-queued requests get grace to finish, stragglers are cut off.
func serveHTTP(ctx context.Context, logger *slog.Logger, addr string, h http.Handler, grace time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", slog.Duration("grace", grace))
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

// parsePartition parses a "-partition i/N" value.
func parsePartition(s string) (part, of int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf(`-role worker requires -partition "i/N" (e.g. "0/2"), got %q`, s)
	}
	part, err = strconv.Atoi(strings.TrimSpace(i))
	if err == nil {
		of, err = strconv.Atoi(strings.TrimSpace(n))
	}
	if err != nil || part < 0 || of < 1 || part >= of {
		return 0, 0, fmt.Errorf(`invalid -partition %q (want "i/N" with 0 <= i < N)`, s)
	}
	return part, of, nil
}

// serverWorkerStatus mirrors the cluster client's worker view into the
// serving layer's transport-free type.
func serverWorkerStatus(ws []cluster.WorkerStatus) []server.WorkerStatus {
	out := make([]server.WorkerStatus, len(ws))
	for i, w := range ws {
		s := server.WorkerStatus{
			Addr: w.Addr, Up: w.Up, Breaker: w.Breaker, Err: w.Err,
			BatchesIn: w.BatchesIn, BatchesOut: w.BatchesOut,
			BytesIn: w.BytesIn, BytesOut: w.BytesOut,
			DictDeltaBytes: w.DictDeltaBytes,
			RemapEntries:   w.RemapEntries,
			Reconnects:     w.Reconnects,
			Epoch:          w.Epoch,
		}
		if w.Info != nil {
			s.Partition, s.Of = w.Info.Partition, w.Info.Of
			s.Scheme = w.Info.Scheme
			s.ActiveFragments, s.QueuedFragments = w.Info.Active, w.Info.Queued
			s.CacheHits, s.CacheMisses = w.Info.CacheHits, w.Info.CacheMisses
			s.CacheEvictions, s.CacheEntries = w.Info.CacheEvictions, int64(w.Info.CacheEntries)
		}
		out[i] = s
	}
	return out
}

// discoverWithRetry polls the peer's /molecules with exponential backoff
// (1s doubling to 10s, 5s per attempt) until it answers or ctx expires,
// returning the last discovery error on give-up.
func discoverWithRetry(ctx context.Context, base string, logger *slog.Logger) ([]lake.Molecule, error) {
	backoff := time.Second
	for {
		actx, cancel := context.WithTimeout(ctx, 5*time.Second)
		mols, err := lake.DiscoverMolecules(actx, base)
		cancel()
		if err == nil {
			return mols, nil
		}
		logger.Info("federation: discovery retry",
			slog.String("base", strings.TrimRight(base, "/")),
			slog.String("error", err.Error()),
			slog.Duration("backoff", backoff))
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(backoff):
		}
		if backoff < 10*time.Second {
			backoff *= 2
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ontario-server:", err)
	os.Exit(1)
}
