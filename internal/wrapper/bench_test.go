package wrapper

import (
	"testing"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

var benchSQLRows int

// BenchmarkSQLMiss times the SQL wrapper's miss path — the seed condition
// built from the seed IDs over the leaf's translation, the statement run
// in row ordinals, the cells decoded through the cell-ID views — for a
// per-answer request and a 16-seed block request of a drug star with a
// side-table property, over the small lake's DrugBank source. Both are
// derived from one leaf with WithSeeds, as a bind join derives them, so
// the stars are translated once for the whole run. The iterations run
// columnarEntry, which reads the response cache's ID views but never its
// entries, so every one misses; the views are warm after the first.
func BenchmarkSQLMiss(b *testing.B) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		b.Fatal(err)
	}
	src := lk.Catalog.Source(lslod.DSDrugBank)
	d := dict.New()
	w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
	w.SetResponseCache(NewResponseCache())
	req := &Request{Stars: []*StarQuery{{SubjectVar: "s", Class: lslod.ClassDrug, Patterns: []sparql.TriplePattern{
		{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(rdf.RDFType)), O: sparql.TermNode(rdf.NewIRI(lslod.ClassDrug))},
		{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(lslod.PredGenericName)), O: sparql.VarNode("n")},
		{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(lslod.PredTarget)), O: sparql.VarNode("t")},
	}}}}
	schema := engine.NewSchema(req.Vars())
	all, err := w.columnarEntry(req, schema, d)
	if err != nil || all.nrows < 16 {
		b.Fatalf("unseeded star: %v rows, %v", all.nrows, err)
	}
	subjects := all.cols[schema.Pos("s")]
	block := engine.Seeds{Vars: []string{"s"}}
	for r := 0; block.Rows < 16; r += all.nrows / 16 {
		block.IDs = append(block.IDs, subjects[r])
		block.Rows++
	}
	for _, bc := range []struct {
		name string
		req  func(i int) *Request
	}{
		{"per-answer", func(i int) *Request {
			return req.WithSeeds(engine.Seeds{Vars: []string{"s"}, IDs: []dict.ID{block.IDs[i%block.Rows]}, Rows: 1}, false)
		}},
		{"block", func(int) *Request { return req.WithSeeds(block, true) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := w.columnarEntry(bc.req(i), schema, d)
				if err != nil {
					b.Fatal(err)
				}
				benchSQLRows = e.nrows
			}
		})
	}
}
