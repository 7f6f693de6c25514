// Command ontario-bench reruns the paper's evaluation against the
// synthetic LSLOD lake:
//
//	-experiment grid   the eight configurations (2 QEP types × 4 networks)
//	                   for Q1–Q5, with the aware/unaware speedup table (E3)
//	-experiment fig2   the Figure-2 answer traces for Q3 (E2); use -csv to
//	                   emit the trace points for plotting
//	-experiment h1     Q2 translation-quality sensitivity (E6)
//	-experiment h2     Q1/Q3 filter-placement comparison (E4/E5)
//	-experiment bind   sequential vs block bind join: requests, messages
//	                   and wall-clock per block size (-bind-block, comma
//	                   separated; -bind-concurrency bounds in-flight blocks)
//	-experiment optimizer
//	                   cost-based join ordering + per-join operator
//	                   selection vs the greedy baseline: messages and
//	                   elapsed time per LSLOD query (aware plans)
//	-experiment serve  serving-layer load test: -serve-clients concurrent
//	                   clients drive the HTTP endpoint (admission control
//	                   -serve-concurrency/-serve-queue, per-source limit
//	                   -serve-source-limit) per network profile, reporting
//	                   throughput, p50/p95 latency, and time-to-first-answer
//	-experiment exchange
//	                   vectorized data plane sweep: the serve workload per
//	                   exchange batch size (-exchange-batches, 1 = the
//	                   binding-at-a-time baseline) × probe parallelism
//	                   (-exchange-par), reporting bindings/sec throughput
//	-experiment cluster
//	                   distributed scale-out: the query mix against a
//	                   coordinator shuffling fragments over N in-process
//	                   partitioned workers, per pool size
//	                   (-cluster-workers), reporting bindings/sec and the
//	                   1→N speedup of the columnar shuffle data plane
//	-experiment all    all of the paper experiments above (serve and
//	                   exchange must be requested explicitly: at
//	                   -net-scale 1 a multi-client load test over the gamma
//	                   profiles takes far longer than the single-query
//	                   experiments)
//
// With -json <dir>, every experiment also writes its results as
// <dir>/BENCH_<experiment>.json so the performance trajectory is recorded
// across code revisions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ontario/internal/exp"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
)

func main() {
	var (
		which    = flag.String("experiment", "all", "grid | fig2 | h1 | h2 | bind | optimizer | serve | exchange | cluster | all")
		small    = flag.Bool("small", false, "use the small data scale")
		seed     = flag.Int64("seed", 1, "data and network seed")
		scalef   = flag.Float64("net-scale", 1.0, "network sleep scale (0 disables sleeping, 1 real time)")
		csvOut   = flag.String("csv", "", "write Figure-2 answer traces as CSV to this file")
		jsonDir  = flag.String("json", "", "write experiment results as BENCH_<experiment>.json into this directory")
		bindBlk  = flag.String("bind-block", "8,16,32", "comma-separated block sizes for -experiment bind")
		bindConc = flag.Int("bind-concurrency", 0, "in-flight block requests for -experiment bind (0 = default)")

		serveClients  = flag.Int("serve-clients", 8, "concurrent clients for -experiment serve")
		serveRequests = flag.Int("serve-requests", 40, "total requests for -experiment serve")
		serveConc     = flag.Int("serve-concurrency", 4, "server max concurrently executing queries")
		serveQueue    = flag.Int("serve-queue", 16, "server admission queue depth")
		serveSrcLimit = flag.Int("serve-source-limit", 4, "per-source in-flight request limit (0 = unlimited)")
		serveTimeout  = flag.Duration("serve-timeout", 60*time.Second, "per-query deadline for -experiment serve")

		exchBatches = flag.String("exchange-batches", "1,16,64,256,1024", "comma-separated exchange batch sizes for -experiment exchange")
		exchPar     = flag.String("exchange-par", "1,4", "comma-separated probe parallelism levels for -experiment exchange")
		exchNetwork = flag.String("exchange-network", "none", "network profile for -experiment exchange")

		clusterWorkers = flag.String("cluster-workers", "1,2,3,4", "comma-separated worker pool sizes for -experiment cluster")
		clusterNet     = flag.String("cluster-network", "gamma1", "simulated source-latency profile for -experiment cluster (none disables)")
	)
	flag.Parse()

	scale := lslod.DefaultScale()
	if *small {
		scale = lslod.SmallScale()
	}
	lake, err := lslod.BuildLake(scale, *seed)
	if err != nil {
		fail(err)
	}
	runner := exp.NewRunner(lake)
	runner.NetworkScale = *scalef
	runner.Seed = *seed
	ctx := context.Background()

	run := strings.ToLower(*which)
	doAll := run == "all"

	emitJSON := func(write func(dir string) (string, error)) {
		if *jsonDir == "" {
			return
		}
		path, err := write(*jsonDir)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nresults written to %s\n", path)
	}
	writeJSON := func(experiment string, rows []*exp.Row) {
		emitJSON(func(dir string) (string, error) {
			return exp.WriteRowsJSON(dir, experiment, rows)
		})
	}

	if doAll || run == "grid" {
		header("E3: full configuration grid (2 QEP types x 4 networks x Q1-Q5)")
		rows, err := runner.RunGrid(ctx)
		if err != nil {
			fail(err)
		}
		exp.WriteTable(os.Stdout, rows)
		fmt.Println()
		header("aware vs unaware speedups")
		exp.WriteSpeedups(os.Stdout, exp.Speedups(rows))
		writeJSON("grid", rows)
	}

	if doAll || run == "fig2" {
		header("E2 (Figure 2): answer traces for Q3, both QEP types x 4 networks")
		rows, err := runner.RunFig2(ctx)
		if err != nil {
			fail(err)
		}
		exp.WriteTable(os.Stdout, rows)
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fail(err)
			}
			if err := exp.WriteTraceCSV(f, rows); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("\ntrace points written to %s\n", *csvOut)
		}
		writeJSON("fig2", rows)
	}

	if doAll || run == "h1" {
		header("E6: Heuristic 1 translation sensitivity on Q2 (paper: optimized SQL approx. halves the unaware time)")
		var all []*exp.Row
		for _, net := range []netsim.Profile{netsim.NoDelay, netsim.Gamma2} {
			rows, err := runner.RunH1(ctx, net)
			if err != nil {
				fail(err)
			}
			exp.WriteTable(os.Stdout, rows)
			fmt.Println()
			all = append(all, rows...)
		}
		writeJSON("h1", all)
	}

	if doAll || run == "bind" {
		blocks, err := parseBlockSizes(*bindBlk)
		if err != nil {
			fail(err)
		}
		runner.BindConcurrency = *bindConc
		header("bind joins: sequential (one request per left binding) vs block (one multi-seed request per block)")
		rows, err := runner.RunBindJoin(ctx, netsim.Gamma2, blocks)
		if err != nil {
			fail(err)
		}
		exp.WriteTable(os.Stdout, rows)
		writeJSON("bind", rows)
	}

	if doAll || run == "optimizer" {
		header("optimizer: cost-based ordering + per-join operator selection vs greedy (aware plans, Gamma 2)")
		rows, err := runner.RunOptimizer(ctx, netsim.Gamma2)
		if err != nil {
			fail(err)
		}
		exp.WriteTable(os.Stdout, rows)
		writeJSON("optimizer", rows)
	}

	if doAll || run == "h2" {
		header("E4/E5: Heuristic 2 filter placement on Q1 (engine-level wins on fast nets) and Q3 (source-level wins)")
		rows, err := runner.RunH2(ctx)
		if err != nil {
			fail(err)
		}
		exp.WriteTable(os.Stdout, rows)
		writeJSON("h2", rows)
	}

	if run == "serve" {
		header(fmt.Sprintf("serve: %d clients, %d requests against the HTTP endpoint (C=%d, queue=%d, source-limit=%d)",
			*serveClients, *serveRequests, *serveConc, *serveQueue, *serveSrcLimit))
		var results []*exp.ServeResult
		for _, net := range netsim.Profiles() {
			res, err := runner.RunServe(ctx, exp.ServeConfig{
				Clients:       *serveClients,
				Requests:      *serveRequests,
				MaxConcurrent: *serveConc,
				QueueDepth:    *serveQueue,
				SourceLimit:   *serveSrcLimit,
				Network:       net,
				Timeout:       *serveTimeout,
			})
			if err != nil {
				fail(err)
			}
			results = append(results, res)
		}
		exp.WriteServeTable(os.Stdout, results)
		emitJSON(func(dir string) (string, error) {
			return exp.WriteServeJSON(dir, results)
		})
	}

	if run == "resilience" {
		header("resilience: two federated ontario-server nodes over live HTTP; the orgs backend is healthy, slow, flaky (50% 503s) or down")
		rows, err := exp.RunResilience(ctx, exp.ResilienceExpConfig{})
		if err != nil {
			fail(err)
		}
		exp.WriteResilienceTable(os.Stdout, rows)
		emitJSON(func(dir string) (string, error) {
			return exp.WriteResilienceJSON(dir, rows)
		})
	}

	if run == "exchange" {
		batches, err := parseIntList(*exchBatches, 1)
		if err != nil {
			fail(err)
		}
		pars, err := parseIntList(*exchPar, 1)
		if err != nil {
			fail(err)
		}
		net, err := netsim.ProfileByName(*exchNetwork)
		if err != nil {
			fail(err)
		}
		header(fmt.Sprintf("exchange: batch sizes %v x probe parallelism %v on the serve workload (%d clients, %d requests, %s)",
			batches, pars, *serveClients, *serveRequests, net.Name))
		rows, err := runner.RunExchange(ctx, exp.ExchangeConfig{
			Serve: exp.ServeConfig{
				Clients:       *serveClients,
				Requests:      *serveRequests,
				MaxConcurrent: *serveConc,
				QueueDepth:    *serveQueue,
				SourceLimit:   *serveSrcLimit,
				Network:       net,
				Timeout:       *serveTimeout,
			},
			BatchSizes:  batches,
			Parallelism: pars,
		})
		if err != nil {
			fail(err)
		}
		exp.WriteExchangeTable(os.Stdout, rows)
		emitJSON(func(dir string) (string, error) {
			return exp.WriteExchangeJSON(dir, rows)
		})
	}

	if run == "cluster" {
		counts, err := parseIntList(*clusterWorkers, 1)
		if err != nil {
			fail(err)
		}
		net, err := netsim.ProfileByName(*clusterNet)
		if err != nil {
			fail(err)
		}
		header(fmt.Sprintf("cluster: the query mix distributed over worker pools of %v (%d clients, %d requests per cell, %s x%g)",
			counts, *serveClients, *serveRequests, net.Name, *scalef))
		rows, err := exp.RunCluster(ctx, exp.ClusterExpConfig{
			Scale:        scale,
			Seed:         *seed,
			Workers:      counts,
			Clients:      *serveClients,
			Requests:     *serveRequests,
			Network:      net,
			NetworkScale: *scalef,
			Timeout:      *serveTimeout,
		})
		if err != nil {
			fail(err)
		}
		exp.WriteClusterTable(os.Stdout, rows)
		emitJSON(func(dir string) (string, error) {
			return exp.WriteClusterJSON(dir, rows)
		})
	}
}

// parseIntList parses a comma-separated list of integers >= min.
func parseIntList(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < min {
			return nil, fmt.Errorf("invalid value %q (want integers >= %d)", part, min)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseBlockSizes(s string) ([]int, error) { return parseIntList(s, 2) }

func header(s string) {
	fmt.Println()
	fmt.Println(s)
	fmt.Println(strings.Repeat("=", len(s)))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ontario-bench:", err)
	os.Exit(1)
}
