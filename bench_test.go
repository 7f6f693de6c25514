// Benchmarks regenerating the paper's evaluation artifacts, one benchmark
// family per table/figure (see DESIGN.md's experiment index), plus the
// ablations of the design choices DESIGN.md calls out. Network sleeping is
// scaled down so runs stay fast; the relative shapes (who wins, by roughly
// what factor) are what matters.
//
// Run with: go test -bench=. -benchmem
package ontario_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ontario"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/sparql"
	"ontario/internal/sql"
)

// benchNetScale shrinks real sleeping during benchmarks while keeping the
// sampled delays (and thus the relative network impact) intact.
const benchNetScale = 0.02

var (
	benchOnce sync.Once
	benchL    *lslod.Lake
)

func benchLake(b *testing.B) *lslod.Lake {
	b.Helper()
	benchOnce.Do(func() {
		lake, err := lslod.BuildLake(lslod.SmallScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		benchL = lake
	})
	return benchL
}

// runCell runs one LSLOD query per iteration under opts, at
// benchNetScale, and reports its answer and message counts.
func runCell(b *testing.B, queryID string, opts []ontario.Option) {
	b.Helper()
	eng := ontario.New(benchLake(b).Lake)
	opts = append(opts, ontario.WithNetworkScale(benchNetScale))
	text := lslod.QueryText(queryID)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var answers, messages int
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(ctx, text, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Collect(); err != nil {
			b.Fatal(err)
		}
		st := res.Stats()
		answers, messages = st.Answers, st.Messages
	}
	b.ReportMetric(float64(answers), "answers")
	b.ReportMetric(float64(messages), "messages")
}

// planOption is the plan-mode option of a cell.
func planOption(aware bool) ontario.Option {
	if aware {
		return ontario.WithAwarePlan()
	}
	return ontario.WithUnawarePlan()
}

// BenchmarkGrid regenerates E3: the paper's eight configurations (2 QEP
// types × 4 network settings) for each of Q1–Q5. Expected shape: aware ≤
// unaware, with the gap growing from No Delay to Gamma 3.
func BenchmarkGrid(b *testing.B) {
	for _, q := range []string{"Q1", "Q2", "Q3", "Q4", "Q5"} {
		for _, aware := range []bool{false, true} {
			for _, net := range ontario.Profiles() {
				mode := "unaware"
				if aware {
					mode = "aware"
				}
				name := fmt.Sprintf("%s/%s/%s", q, mode, profileSlug(net.Name))
				b.Run(name, func(b *testing.B) {
					runCell(b, q, []ontario.Option{planOption(aware), ontario.WithNetwork(net)})
				})
			}
		}
	}
}

// BenchmarkFig2AnswerTraces regenerates E2 (Figure 2): Q3 under both QEP
// types and all network settings. The aware plan pushes the indexed
// chromosome filter down, shrinking the transferred intermediate result;
// slow networks hit the unaware plan hardest.
func BenchmarkFig2AnswerTraces(b *testing.B) {
	for _, aware := range []bool{false, true} {
		for _, net := range ontario.Profiles() {
			mode := "unaware"
			if aware {
				mode = "aware"
			}
			b.Run(fmt.Sprintf("%s/%s", mode, profileSlug(net.Name)), func(b *testing.B) {
				runCell(b, "Q3", []ontario.Option{planOption(aware), ontario.WithNetwork(net)})
			})
		}
	}
}

// BenchmarkH2FilterPlacement regenerates E4/E5: filter placement for Q1
// (weakly selective LIKE the source serves poorly) and Q3 (selective
// indexed equality the source serves well).
func BenchmarkH2FilterPlacement(b *testing.B) {
	for _, q := range []string{"Q1", "Q3"} {
		for _, net := range []ontario.Profile{ontario.NoDelay, ontario.Gamma3} {
			for _, aware := range []bool{false, true} {
				place := "engine"
				if aware {
					place = "source"
				}
				b.Run(fmt.Sprintf("%s/filter-at-%s/%s", q, place, profileSlug(net.Name)), func(b *testing.B) {
					runCell(b, q, []ontario.Option{planOption(aware), ontario.WithNetwork(net)})
				})
			}
		}
	}
}

// BenchmarkH1TranslationQuality regenerates E6: Q2 with the join of two
// same-source stars. Expected shape (paper): naive translation makes the
// pushdown useless or worse; the optimized translation at least halves the
// unaware time.
func BenchmarkH1TranslationQuality(b *testing.B) {
	for _, net := range []ontario.Profile{ontario.NoDelay, ontario.Gamma2} {
		b.Run("unaware/"+profileSlug(net.Name), func(b *testing.B) {
			runCell(b, "Q2", []ontario.Option{ontario.WithUnawarePlan(), ontario.WithNetwork(net)})
		})
		b.Run("aware-naive/"+profileSlug(net.Name), func(b *testing.B) {
			runCell(b, "Q2", []ontario.Option{ontario.WithAwarePlan(), ontario.WithNaiveTranslation(), ontario.WithNetwork(net)})
		})
		b.Run("aware-optimized/"+profileSlug(net.Name), func(b *testing.B) {
			runCell(b, "Q2", []ontario.Option{ontario.WithAwarePlan(), ontario.WithNetwork(net)})
		})
	}
}

// BenchmarkJoinOperators is ablation A2: the engine-level join operator
// under network delay — the non-blocking symmetric hash join (ANAPSID's
// adaptive operator) against the bind join's one request per left row.
func BenchmarkJoinOperators(b *testing.B) {
	ops := []struct {
		name string
		op   ontario.JoinOperator
	}{
		{"symmetric-hash", ontario.JoinSymmetricHash},
		{"bind", ontario.JoinBind},
	}
	for _, o := range ops {
		for _, net := range []ontario.Profile{ontario.NoDelay, ontario.Gamma2} {
			b.Run(o.name+"/"+profileSlug(net.Name), func(b *testing.B) {
				opts := []ontario.Option{ontario.WithUnawarePlan(), ontario.WithNetwork(net)}
				if o.op != ontario.JoinSymmetricHash {
					opts = append(opts, ontario.WithJoinOperator(o.op))
				}
				runCell(b, "Q5", opts)
			})
		}
	}
}

// BenchmarkSelectivityRule is ablation A3: the paper's 15% indexing rule.
// Equality on probeset.chromosome (indexed, 24 values) vs equality on
// probeset.species (index denied: Homo sapiens exceeds 15% of records).
func BenchmarkSelectivityRule(b *testing.B) {
	lake := benchLake(b)
	db := lake.Catalog.Source(lslod.DSAffymetrix).DB
	queries := map[string]string{
		"indexed-chromosome": "SELECT id FROM probeset WHERE chromosome = 'chr11'",
		"denied-species":     "SELECT id FROM probeset WHERE species = 'Homo sapiens'",
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexKinds is ablation A1: hash vs ordered secondary indexes vs
// a sequential scan, for point lookups and range scans.
func BenchmarkIndexKinds(b *testing.B) {
	mk := func(kind string) *rdb.Database {
		db := rdb.NewDatabase("ablate")
		t, err := db.CreateTable(&rdb.Schema{
			Name: "rows",
			Columns: []rdb.Column{
				{Name: "id", Type: rdb.TypeInt, NotNull: true},
				{Name: "k", Type: rdb.TypeInt},
			},
			PrimaryKey: "id",
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			if err := t.Insert(rdb.Row{rdb.IntValue(int64(i)), rdb.IntValue(int64(i % 997))}); err != nil {
				b.Fatal(err)
			}
		}
		switch kind {
		case "hash":
			if err := t.CreateIndex(rdb.IndexSpec{Column: "k", Kind: rdb.IndexHash}); err != nil {
				b.Fatal(err)
			}
		case "btree":
			if err := t.CreateIndex(rdb.IndexSpec{Column: "k", Kind: rdb.IndexBTree}); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	for _, kind := range []string{"scan", "hash", "btree"} {
		db := mk(kind)
		b.Run("point/"+kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query("SELECT id FROM rows WHERE k = 500"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, kind := range []string{"scan", "btree"} {
		db := mk(kind)
		b.Run("range/"+kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query("SELECT id FROM rows WHERE k >= 100 AND k <= 120"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNormalization is ablation A5 (the paper's future-work
// question): 3NF vs denormalized storage of Diseasome, on Q2 (same-source
// star join).
func BenchmarkNormalization(b *testing.B) {
	den, err := lslod.BuildDenormalizedLake(lslod.SmallScale(), 1)
	if err != nil {
		b.Fatal(err)
	}
	lakes := map[string]*lslod.Lake{"3nf": benchLake(b), "denormalized": den}
	ctx := context.Background()
	for _, layout := range []string{"3nf", "denormalized"} {
		for _, aware := range []bool{false, true} {
			mode := "unaware"
			if aware {
				mode = "aware"
			}
			b.Run(layout+"/"+mode, func(b *testing.B) {
				eng := ontario.New(lakes[layout].Lake)
				opts := []ontario.Option{ontario.WithNetworkScale(0)}
				if aware {
					opts = append(opts, ontario.WithAwarePlan())
				} else {
					opts = append(opts, ontario.WithUnawarePlan())
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query(ctx, lslod.Queries()[1].Text, opts...)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.Collect(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanGeneration measures the planner alone (decomposition,
// source selection, heuristics).
func BenchmarkPlanGeneration(b *testing.B) {
	lake := benchLake(b)
	eng := ontario.New(lake.Lake)
	for _, q := range lslod.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Explain(q.Text, ontario.WithAwarePlan()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSPARQLParse and BenchmarkSQLParse measure the frontends.
func BenchmarkSPARQLParse(b *testing.B) {
	text := lslod.Queries()[3].Text
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParse(b *testing.B) {
	const stmt = "SELECT t1.c0, t2.c1 FROM disease t1 JOIN disease_gene t2 ON t2.disease_id = t1.id WHERE t1.name LIKE '%itis%' AND t2.gene_id >= 10 ORDER BY t1.id LIMIT 100"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGammaSampler measures the netsim gamma sampler.
func BenchmarkGammaSampler(b *testing.B) {
	sim := netsim.NewSimulator(netsim.Gamma3, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Sample()
	}
}

func profileSlug(name string) string {
	switch name {
	case "No Delay":
		return "nodelay"
	case "Gamma 1":
		return "gamma1"
	case "Gamma 2":
		return "gamma2"
	default:
		return "gamma3"
	}
}
