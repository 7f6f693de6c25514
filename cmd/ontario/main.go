// Command ontario runs SPARQL queries against the synthetic LSLOD data
// lake, printing answers or the query execution plan.
//
// Usage:
//
//	ontario -query Q3 -mode aware -network gamma2
//	ontario -sparql 'SELECT ?s WHERE { ... }' -explain
//	ontario -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ontario"
	"ontario/internal/lslod"
)

func main() {
	var (
		queryID   = flag.String("query", "", "benchmark query ID (Q1..Q5)")
		sparqlIn  = flag.String("sparql", "", "SPARQL query text (alternative to -query)")
		mode      = flag.String("mode", "aware", "plan mode: aware | unaware | h2")
		network   = flag.String("network", "none", "network profile: none | gamma1 | gamma2 | gamma3")
		explain   = flag.Bool("explain", false, "print the plan instead of executing")
		analyze   = flag.Bool("analyze", false, "execute, then print the plan annotated with per-operator actuals (EXPLAIN ANALYZE)")
		list      = flag.Bool("list", false, "list the benchmark queries and exit")
		mixed     = flag.String("mixed", "", "comma-separated datasets to keep as native RDF")
		scalef    = flag.Float64("net-scale", 1.0, "network sleep scale (0 disables sleeping)")
		seed      = flag.Int64("seed", 1, "data and network random seed")
		small     = flag.Bool("small", false, "use the small data scale")
		limit     = flag.Int("print", 20, "print at most this many answers")
		naive     = flag.Bool("naive-translation", false, "use the naive SPARQL-to-SQL translation")
		optimizer = flag.String("optimizer", "", "join ordering / operator selection: cost | greedy (default: cost for aware plans, greedy for unaware)")
		joinOp    = flag.String("join", "hash", "engine join operator: hash | bind | block-bind (forced for every join; under the cost optimizer hash forces nothing and each join is chosen by cost)")
		bindBlk   = flag.Int("bind-block", 0, "block bind join: left bindings per multi-seed request (0 = default)")
		bindConc  = flag.Int("bind-concurrency", 0, "block bind join: concurrent in-flight block requests (0 = default)")
		batchSz   = flag.Int("batch", 0, "exchange batch size: bindings per batch in the execution data plane (0 = default 256, 1 = binding-at-a-time)")
		rawSQL    = flag.String("sql", "", "run raw SQL directly against one dataset (requires -dataset)")
		dataset   = flag.String("dataset", "", "dataset for -sql (e.g. diseasome)")
	)
	flag.Parse()

	if *list {
		for _, q := range lslod.Queries() {
			fmt.Printf("%s: %s\n%s\n\n", q.ID, q.Intent, strings.TrimSpace(q.Text))
		}
		return
	}

	if *rawSQL != "" {
		if err := runRawSQL(*rawSQL, *dataset, *small, *seed, *limit); err != nil {
			fmt.Fprintln(os.Stderr, "ontario:", err)
			os.Exit(1)
		}
		return
	}

	queryText := *sparqlIn
	if queryText == "" {
		if *queryID == "" {
			fmt.Fprintln(os.Stderr, "ontario: provide -query Q1..Q5 or -sparql '...' (or -list)")
			os.Exit(2)
		}
		found := false
		for _, q := range lslod.Queries() {
			if strings.EqualFold(q.ID, *queryID) {
				queryText, found = q.Text, true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ontario: unknown query %s\n", *queryID)
			os.Exit(2)
		}
	}

	profile, err := profileByName(*network)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ontario:", err)
		os.Exit(2)
	}

	scale := lslod.DefaultScale()
	if *small {
		scale = lslod.SmallScale()
	}
	var lake *lslod.Lake
	if *mixed != "" {
		lake, err = lslod.BuildMixedLake(scale, *seed, strings.Split(*mixed, ","))
	} else {
		lake, err = lslod.BuildLake(scale, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ontario:", err)
		os.Exit(1)
	}

	opts := []ontario.Option{
		ontario.WithNetwork(profile),
		ontario.WithNetworkScale(*scalef),
		ontario.WithSeed(*seed),
	}
	switch strings.ToLower(*mode) {
	case "aware":
		opts = append(opts, ontario.WithAwarePlan())
	case "unaware":
		opts = append(opts, ontario.WithUnawarePlan())
	case "h2":
		opts = append(opts, ontario.WithAwarePlan(), ontario.WithHeuristic2())
	default:
		fmt.Fprintf(os.Stderr, "ontario: unknown mode %s\n", *mode)
		os.Exit(2)
	}
	if *naive {
		opts = append(opts, ontario.WithNaiveTranslation())
	}
	if *optimizer != "" {
		mode, err := ontario.OptimizerByName(*optimizer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ontario:", err)
			os.Exit(2)
		}
		opts = append(opts, ontario.WithOptimizer(mode))
	}
	op, err := ontario.JoinOperatorByName(*joinOp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ontario:", err)
		os.Exit(2)
	}
	if op != ontario.JoinSymmetricHash {
		opts = append(opts, ontario.WithJoinOperator(op))
	}
	if *bindBlk > 0 {
		opts = append(opts, ontario.WithBindBlockSize(*bindBlk))
	}
	if *bindConc > 0 {
		opts = append(opts, ontario.WithBindConcurrency(*bindConc))
	}
	if *batchSz > 0 {
		opts = append(opts, ontario.WithBatchSize(*batchSz))
	}

	eng := ontario.New(lake.Lake)
	if *explain {
		out, err := eng.Explain(queryText, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ontario:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	res, err := eng.Query(context.Background(), queryText, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ontario:", err)
		os.Exit(1)
	}
	defer res.Close()
	vars := res.Vars()
	sort.Strings(vars)
	fmt.Println(strings.Join(vars, "\t"))
	printed, extra := 0, 0
	for res.Next() {
		if printed >= *limit {
			extra++
			continue
		}
		printed++
		b := res.Binding()
		parts := make([]string, len(vars))
		for j, v := range vars {
			parts[j] = b[v].String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ontario:", err)
		os.Exit(1)
	}
	if extra > 0 {
		fmt.Printf("... (%d more answers)\n", extra)
	}
	st := res.Stats()
	fmt.Printf("\n%d answers in %s (first answer after %s, %d network messages, %s simulated delay)\n",
		st.Answers,
		st.Duration.Round(100*time.Microsecond),
		st.TimeToFirstAnswer.Round(100*time.Microsecond),
		st.Messages, st.SimulatedDelay.Round(100*time.Microsecond))
	if *analyze {
		fmt.Print("\n" + res.Analyze().String())
	}
}

// runRawSQL executes a SQL statement against one dataset's relational
// database and prints the rows and the physical plan — an inspection tool
// for the lake's physical design.
func runRawSQL(stmt, dataset string, small bool, seed int64, limit int) error {
	if dataset == "" {
		return fmt.Errorf("-sql requires -dataset (one of %s)", strings.Join(lslod.Datasets(), ", "))
	}
	scale := lslod.DefaultScale()
	if small {
		scale = lslod.SmallScale()
	}
	lake, err := lslod.BuildLake(scale, seed)
	if err != nil {
		return err
	}
	src := lake.Catalog.Source(dataset)
	if src == nil || src.DB == nil {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	res, err := src.DB.Query(stmt)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for i, row := range res.Rows {
		if i >= limit {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Printf("\n%d rows\nplan:\n%s", len(res.Rows), res.Plan)
	return nil
}

func profileByName(name string) (ontario.Profile, error) {
	return ontario.ProfileByName(name)
}
