package core

import (
	"fmt"
	"strings"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

const (
	bbDrugClass   = "http://c/Drug"
	bbPersonClass = "http://c/Person"
	bbTargets     = "http://p/targets"
	bbName        = "http://p/name"
	bbFriend      = "http://p/friend"
)

// blockBindLake builds a two-source lake tailored to the bind-join message
// story: an RDF source with nDrugs drugs, each targeting one person, and a
// relational source with the persons, each carrying `fanOut` friend rows
// in a side table. A dependent join from drugs to persons therefore
// retrieves fanOut answers per left binding.
func blockBindLake(t *testing.T, nDrugs, fanOut int) *catalog.Catalog {
	t.Helper()

	g := rdf.NewGraph()
	for i := 1; i <= nDrugs; i++ {
		d := rdf.NewIRI(fmt.Sprintf("http://e/drug/%d", i))
		g.Add(rdf.Triple{S: d, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(bbDrugClass)})
		g.Add(rdf.Triple{S: d, P: rdf.NewIRI(bbTargets), O: rdf.NewIRI(fmt.Sprintf("http://e/person/%d", i))})
	}

	db := rdb.NewDatabase("people")
	person, err := db.CreateTable(&rdb.Schema{
		Name: "person",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "name", Type: rdb.TypeString, NotNull: true},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	friend, err := db.CreateTable(&rdb.Schema{
		Name: "person_friend",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "person_id", Type: rdb.TypeInt, NotNull: true},
			{Name: "friend_id", Type: rdb.TypeInt, NotNull: true},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	rowID := 0
	for i := 1; i <= nDrugs; i++ {
		if err := person.Insert(rdb.Row{rdb.IntValue(int64(i)), rdb.StringValue(fmt.Sprintf("person-%d", i))}); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < fanOut; f++ {
			rowID++
			if err := friend.Insert(rdb.Row{rdb.IntValue(int64(rowID)), rdb.IntValue(int64(i)), rdb.IntValue(int64(1 + (i+f)%nDrugs))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := friend.CreateIndex(rdb.IndexSpec{Column: "person_id", Kind: rdb.IndexHash}); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	if err := cat.AddSource(&catalog.Source{ID: "pharma", Model: catalog.ModelRDF, Graph: g}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(&catalog.Source{
		ID:    "people",
		Model: catalog.ModelRelational,
		DB:    db,
		Mappings: map[string]*catalog.ClassMapping{
			bbPersonClass: {
				Class: bbPersonClass, Table: "person",
				SubjectColumn: "id", SubjectTemplate: "http://e/person/{value}",
				Properties: map[string]*catalog.PropertyMapping{
					bbName: {Predicate: bbName, Column: "name"},
					bbFriend: {
						Predicate: bbFriend, JoinTable: "person_friend",
						JoinFK: "person_id", ValueColumn: "friend_id",
						ObjectTemplate: "http://e/person/{value}", ObjectClass: bbPersonClass,
					},
				},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	cat.AddMT(&catalog.RDFMT{
		Class: bbDrugClass,
		Predicates: []catalog.PredicateDesc{
			{Predicate: rdf.RDFType},
			{Predicate: bbTargets, LinkedClass: bbPersonClass},
		},
		Sources: []string{"pharma"},
	})
	cat.AddMT(&catalog.RDFMT{
		Class: bbPersonClass,
		Predicates: []catalog.PredicateDesc{
			{Predicate: bbName},
			{Predicate: bbFriend, LinkedClass: bbPersonClass},
		},
		Sources: []string{"people"},
	})
	return cat
}

func blockBindQuery(t *testing.T) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(fmt.Sprintf(
		`SELECT ?d ?p ?nm ?f WHERE { ?d a <%s> . ?d <%s> ?p . ?p <%s> ?nm . ?p <%s> ?f . }`,
		bbDrugClass, bbTargets, bbName, bbFriend))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func runBlockBind(t *testing.T, cat *catalog.Catalog, opts Options) ([]sparql.Binding, int, *Plan) {
	t.Helper()
	return runWithMessages(t, cat, blockBindQuery(t), opts)
}

// TestBlockBindJoinMessageReduction is the end-to-end regression test of
// the bind-join batching story: for a two-star query over an RDF +
// relational source pair, the block bind join must answer the dependent
// side in ⌈n/B⌉ messages where the sequential bind join needs one request
// — and here fanOut response messages — per left binding, with identical
// answer multisets.
func TestBlockBindJoinMessageReduction(t *testing.T) {
	const (
		nDrugs  = 64
		fanOut  = 4
		block   = 16
		answers = nDrugs * fanOut
	)
	cat := blockBindLake(t, nDrugs, fanOut)
	vars := []string{"d", "p", "nm", "f"}

	baseline := Options{Network: netsim.NoDelay, JoinOperator: JoinSymmetricHash}
	wantAnswers, _, _ := runBlockBind(t, cat, baseline)
	if len(wantAnswers) != answers {
		t.Fatalf("symmetric-hash reference produced %d answers, want %d", len(wantAnswers), answers)
	}

	seq := Options{Network: netsim.NoDelay, JoinOperator: JoinBind}
	seqAnswers, seqMessages, seqPlan := runBlockBind(t, cat, seq)
	assertSameBindings(t, "sequential bind join", seqAnswers, wantAnswers, vars)
	if !strings.Contains(seqPlan.Explain(), "Join[bind]") {
		t.Fatalf("sequential plan lost its bind join:\n%s", seqPlan.Explain())
	}
	// n left answers cross the network, then every right answer does.
	if want := nDrugs + nDrugs*fanOut; seqMessages != want {
		t.Errorf("sequential bind join used %d messages, want %d", seqMessages, want)
	}

	blk := Options{Network: netsim.NoDelay, JoinOperator: JoinBlockBind, BindBlockSize: block, BindConcurrency: 4}
	blkAnswers, blkMessages, blkPlan := runBlockBind(t, cat, blk)
	assertSameBindings(t, "block bind join", blkAnswers, wantAnswers, vars)
	if !strings.Contains(blkPlan.Explain(), "Join[block-bind]") {
		t.Fatalf("block plan lost its block bind join:\n%s", blkPlan.Explain())
	}

	// The dependent side collapses to ⌈n/B⌉ block responses; the left star
	// still streams its n answers.
	leftMessages := nDrugs
	blocks := (nDrugs + block - 1) / block
	if want := leftMessages + blocks; blkMessages > want {
		t.Errorf("block bind join used %d messages, want <= %d (= %d left + %d blocks)",
			blkMessages, want, leftMessages, blocks)
	}
	if ratio := float64(seqMessages) / float64(blkMessages); ratio < 4 {
		t.Errorf("block bind join reduced messages only %.2fx (seq %d vs block %d), want >= 4x",
			ratio, seqMessages, blkMessages)
	}
}

// TestForcedJoinOperatorKeptAsGiven: a forced bind or block bind join is
// the operator of every join in the plan, under both optimizers, whatever
// the left input's size — a 64-drug left star fills four blocks, a 3-drug
// one does not — and on the benchmark queries in both plan modes.
func TestForcedJoinOperatorKeptAsGiven(t *testing.T) {
	type planCase struct {
		name string
		cat  *catalog.Catalog
		q    *sparql.Query
		opts Options
	}
	var cases []planCase
	for _, n := range []int{64, 3} {
		cases = append(cases, planCase{fmt.Sprintf("%d drugs", n), blockBindLake(t, n, 1), blockBindQuery(t), Options{}})
	}
	lake := testLake(t)
	for _, id := range []string{"Q2", "Q3", "Q4", "Q5"} {
		cases = append(cases,
			planCase{id + " aware", lake.Catalog, lslod.Query(id), AwareOptions(netsim.NoDelay)},
			planCase{id + " unaware", lake.Catalog, lslod.Query(id), UnawareOptions(netsim.NoDelay)})
	}
	for _, c := range cases {
		for _, opt := range []OptimizerMode{OptimizerGreedy, OptimizerCost} {
			for _, op := range []JoinOperator{JoinBind, JoinBlockBind} {
				opts := c.opts
				opts.Optimizer, opts.JoinOperator = opt, op
				plan, err := NewPlanner(c.cat).Plan(c.q, opts)
				if err != nil {
					t.Fatal(err)
				}
				joins := 0
				var walk func(PlanNode)
				walk = func(n PlanNode) {
					if j, ok := n.(*JoinNode); ok {
						joins++
						if j.Op != op {
							t.Errorf("%s, %s optimizer, forced %s: plan has Join[%s]:\n%s", c.name, opt, op, j.Op, plan.Explain())
						}
					}
					for _, ch := range children(n) {
						walk(ch)
					}
				}
				walk(plan.Root)
				if joins == 0 && !c.opts.Aware {
					t.Errorf("%s, %s optimizer: plan has no join to check:\n%s", c.name, opt, plan.Explain())
				}
			}
		}
	}
}

// TestBlockBindJoinAgainstLSLODReference runs every benchmark query on the
// synthetic lake with the block bind join forced and checks the answers
// against the symmetric-hash plan, so batching is exercised on realistic
// plans (unions, merged stars, filters).
func TestBlockBindJoinAgainstLSLODReference(t *testing.T) {
	lake := testLake(t)
	for _, id := range []string{"Q1", "Q2", "Q3", "Q4", "Q5"} {
		q := lslod.Query(id)
		want := runQuery(t, lake, q, Options{Network: netsim.NoDelay})
		for _, blockSize := range []int{2, 16} {
			got := runQuery(t, lake, q, Options{
				Network:       netsim.NoDelay,
				JoinOperator:  JoinBlockBind,
				BindBlockSize: blockSize,
			})
			assertSameBindings(t, fmt.Sprintf("%s block-bind B=%d", id, blockSize), got, want, q.ProjectedVars())
		}
	}
}
