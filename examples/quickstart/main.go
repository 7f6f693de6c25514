// Quickstart: build the synthetic LSLOD Semantic Data Lake, run one
// federated SPARQL query with both plan types, and compare.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ontario"
	"ontario/internal/lslod"
)

func main() {
	// A Semantic Data Lake: ten life-science datasets, each stored in its
	// own relational database with 3NF tables and selective indexes.
	lake, err := lslod.BuildLake(lslod.DefaultScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	eng := ontario.New(lake.Lake)

	// Which diseases are associated with genes on chromosome 7?
	query := `
SELECT ?disease ?name ?glabel WHERE {
  ?disease <` + lslod.PredDiseaseName + `> ?name .
  ?disease <` + lslod.PredAssociatedGene + `> ?gene .
  ?gene <` + lslod.PredGeneLabel + `> ?glabel .
  ?gene <` + lslod.PredGeneChromosome + `> ?chrom .
  FILTER (?chrom = "chr7")
}`

	ctx := context.Background()
	for _, mode := range []string{"unaware", "aware"} {
		opts := []ontario.Option{
			ontario.WithNetwork(ontario.Gamma2), // ~3 ms mean latency per answer
			ontario.WithNetworkScale(0.2),       // sleep at 20% of sampled delays
		}
		if mode == "aware" {
			opts = append(opts, ontario.WithAwarePlan())
		} else {
			opts = append(opts, ontario.WithUnawarePlan())
		}
		res, err := eng.Query(ctx, query, opts...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := res.Collect(); err != nil {
			log.Fatal(err)
		}
		st := res.Stats()
		fmt.Printf("%-8s plan: %3d answers in %8s (first after %8s, %4d network messages)\n",
			mode, st.Answers,
			st.Duration.Round(10*time.Microsecond),
			st.TimeToFirstAnswer.Round(10*time.Microsecond),
			st.Messages)
	}

	// Show the physical-design-aware plan: both stars live in Diseasome
	// and the join attribute is indexed, so Heuristic 1 merged them into a
	// single SQL query.
	plan, err := eng.Explain(query, ontario.WithAwarePlan())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nphysical-design-aware plan:\n%s", plan)
}
