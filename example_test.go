package ontario_test

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"ontario"
	"ontario/internal/lslod"
	"ontario/lake"
)

// Example runs one federated query with both plan types and compares the
// transferred intermediate results.
func Example() {
	l, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	eng := ontario.New(l.Lake)

	query := `
SELECT ?disease ?gene WHERE {
  ?disease <` + lslod.PredDiseaseName + `> ?name .
  ?disease <` + lslod.PredAssociatedGene + `> ?gene .
  ?gene <` + lslod.PredGeneChromosome + `> "chr7" .
}`
	ctx := context.Background()
	run := func(opts ...ontario.Option) (int, int) {
		res, err := eng.Query(ctx, query, append(opts, ontario.WithNetworkScale(0))...)
		if err != nil {
			log.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			log.Fatal(err)
		}
		return len(answers), res.Stats().Messages
	}
	unawareAnswers, unawareMessages := run(ontario.WithUnawarePlan())
	awareAnswers, awareMessages := run(ontario.WithAwarePlan())
	fmt.Printf("same answers: %v\n", unawareAnswers == awareAnswers)
	fmt.Printf("aware transfers fewer intermediate results: %v\n",
		awareMessages < unawareMessages)
	// Output:
	// same answers: true
	// aware transfers fewer intermediate results: true
}

// exampleLake builds a two-source lake with the public builder: a
// relational HR database and an RDF graph about the same departments.
func exampleLake() *lake.Lake {
	const (
		classEmployee = "http://example.org/Employee"
		predName      = "http://example.org/name"
		predDept      = "http://example.org/dept"
	)
	l, err := lake.NewBuilder().
		AddTable("hr", lake.TableSpec{
			Name: "employee",
			Columns: []lake.Column{
				{Name: "id", Type: lake.TypeInt, NotNull: true},
				{Name: "name", Type: lake.TypeString},
				{Name: "dept", Type: lake.TypeString},
			},
			PrimaryKey: "id",
			Rows: [][]any{
				{1, "Ada", "eng"},
				{2, "Grace", "eng"},
				{3, "Lin", "ops"},
			},
			Indexes: []lake.Index{{Column: "dept"}},
		}).
		MapClass("hr", lake.ClassMapping{
			Class:           classEmployee,
			Table:           "employee",
			SubjectTemplate: "http://example.org/employee/{value}",
			Properties: []lake.PropertyMapping{
				{Predicate: predName, Column: "name"},
				{Predicate: predDept, Column: "dept"},
			},
		}).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	return l
}

// ExampleResults iterates a query's solutions through the cursor API.
func ExampleResults() {
	eng := ontario.New(exampleLake())
	res, err := eng.Query(context.Background(), `
SELECT ?n WHERE {
  ?e <http://example.org/name> ?n .
  ?e <http://example.org/dept> "eng" .
}`)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	var names []string
	for res.Next() {
		names = append(names, res.Binding()["n"].Value)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	sort.Strings(names)
	fmt.Println(strings.Join(names, ", "))
	// Output:
	// Ada, Grace
}

// ExampleEngine_Prepare plans a query once and executes it repeatedly —
// the unit a server-side plan cache stores.
func ExampleEngine_Prepare() {
	eng := ontario.New(exampleLake())
	prep, err := eng.Prepare(`
SELECT ?n WHERE { ?e <http://example.org/name> ?n . }`,
		ontario.WithAwarePlan())
	if err != nil {
		log.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := eng.QueryPrepared(context.Background(), prep)
		if err != nil {
			log.Fatal(err)
		}
		answers, err := res.Collect()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: %d answers\n", run, len(answers))
	}
	// Output:
	// run 0: 3 answers
	// run 1: 3 answers
}

// ExampleEngine_Explain shows a physical-design-aware plan: both stars
// live in Diseasome and the join attribute is indexed, so Heuristic 1
// merges them into one SQL request.
func ExampleEngine_Explain() {
	l, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	eng := ontario.New(l.Lake)
	plan, err := eng.Explain(`
SELECT ?d ?g WHERE {
  ?d <`+lslod.PredDiseaseName+`> ?n .
  ?d <`+lslod.PredAssociatedGene+`> ?g .
  ?g <`+lslod.PredGeneLabel+`> ?l .
}`, ontario.WithAwarePlan())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	// Output:
	// Plan[physical-design-aware, optimizer=cost, filters=source-if-indexed, translation=optimized, join=per-join]
	//   MergedService[diseasome] star(?d:Disease, 2 patterns) star(?g:Gene, 1 patterns)  {est card=150 msgs=150 cost=9.0}
}

// ExampleEngine_Query_heuristic2 shows Heuristic 2: on a fast network the
// filter stays at the engine; on a slow network it is pushed into the
// relational source.
func ExampleEngine_Query_heuristic2() {
	l, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	eng := ontario.New(l.Lake)
	query := `
SELECT ?p WHERE {
  ?p <` + lslod.PredProbeChromosome + `> ?c .
  ?p <` + lslod.PredSignal + `> ?s .
  FILTER (?c = "chr5")
}`
	for _, net := range []ontario.Profile{ontario.Gamma1, ontario.Gamma3} {
		res, err := eng.Query(context.Background(), query,
			ontario.WithHeuristic2(), ontario.WithNetwork(net), ontario.WithNetworkScale(0))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := res.Collect(); err != nil {
			log.Fatal(err)
		}
		pushed := strings.Contains(res.Plan().String(), "pushed-filters")
		fmt.Printf("%s: filter pushed to source: %v\n", net.Name, pushed)
	}
	// Output:
	// Gamma 1: filter pushed to source: false
	// Gamma 3: filter pushed to source: true
}
