package wrapper

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// sqlCase is one request against one relational source.
type sqlCase struct {
	src *catalog.Source
	req *Request
}

// lakeSQLRequests returns the SQL requests of Q1–Q5 over lk: per query and
// relational source, every star the source maps — alone, and all of them
// together when there are several — with the query's filters over their
// variables. A star without a type pattern takes the first class (by IRI)
// whose mapping carries all its predicates.
func lakeSQLRequests(lk *lslod.Lake) []sqlCase {
	var out []sqlCase
	for _, id := range []string{"Q1", "Q2", "Q3", "Q4", "Q5"} {
		q := lslod.Query(id)
		var stars []*StarQuery
		bySubj := map[string]*StarQuery{}
		for _, tp := range q.Patterns {
			if !tp.S.IsVar || tp.P.IsVar {
				continue
			}
			s := bySubj[tp.S.Var]
			if s == nil {
				s = &StarQuery{SubjectVar: tp.S.Var}
				bySubj[tp.S.Var] = s
				stars = append(stars, s)
			}
			s.Patterns = append(s.Patterns, tp)
			if tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar {
				s.Class = tp.O.Term.Value
			}
		}
		for _, sid := range lk.Catalog.SourceIDs() {
			src := lk.Catalog.Source(sid)
			if src.DB == nil {
				continue
			}
			var at []*StarQuery
			for _, s := range stars {
				if c := mappedClass(src, s); c != "" {
					at = append(at, &StarQuery{SubjectVar: s.SubjectVar, Class: c, Patterns: s.Patterns})
				}
			}
			add := func(stars []*StarQuery) {
				req := &Request{Stars: stars}
				vars := req.Vars()
				for _, f := range q.Filters {
					if !slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(vars, v) }) {
						req.Filters = append(req.Filters, f)
					}
				}
				out = append(out, sqlCase{src, req})
			}
			for _, s := range at {
				add([]*StarQuery{s})
			}
			if len(at) > 1 {
				add(at)
			}
		}
	}
	return out
}

func mappedClass(src *catalog.Source, s *StarQuery) string {
	if s.Class != "" {
		if src.Mapping(s.Class) != nil {
			return s.Class
		}
		return ""
	}
	var classes []string
	for c := range src.Mappings {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if !slices.ContainsFunc(s.Patterns, func(tp sparql.TriplePattern) bool { return src.Mapping(c).Property(tp.P.Term.Value) == nil }) {
			return c
		}
	}
	return ""
}

// sameEntry fails unless got and want hold the same rows in the same order.
func sameEntry(t *testing.T, what string, got, want *respEntry) {
	t.Helper()
	if got.nrows != want.nrows || !slices.EqualFunc(got.cols, want.cols, slices.Equal[[]dict.ID]) {
		t.Fatalf("%s: decoded %d rows, catalog.ValueTerm+Intern decodes %d, or the rows differ", what, got.nrows, want.nrows)
	}
}

// seededForms returns the per-answer requests seeded with the subject of
// e's first rows, and a block of up to eight of them.
func seededForms(req *Request, schema *engine.Schema, e *respEntry) []*Request {
	sv := req.Stars[0].SubjectVar
	col := e.cols[schema.Pos(sv)]
	var out []*Request
	block := engine.Seeds{Vars: []string{sv}}
	for r := 0; r < min(e.nrows, 8); r++ {
		if r < 3 {
			out = append(out, req.WithSeeds(engine.Seeds{Vars: []string{sv}, IDs: []dict.ID{col[r]}, Rows: 1}, false))
		}
		block.IDs = append(block.IDs, col[r])
		block.Rows++
	}
	if block.Rows > 0 {
		out = append(out, req.WithSeeds(block, true))
	}
	return out
}

// entryFor answers req the way a miss does.
func entryFor(t *testing.T, w *SQLWrapper, req *Request, schema *engine.Schema, d *dict.Dict) *respEntry {
	t.Helper()
	e, err := w.columnarEntry(req, schema, d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCellIDViewMatchesIntern: rows decoded through a response cache's
// ID views of table columns equal the rows decoded by catalog.ValueTerm and
// Intern — on the SQL requests of Q1–Q5 over the small lake and their
// seeded forms, after a row is inserted past a view's size, and when
// concurrent misses fill the views of one response cache. The misses run
// through columnarEntry, which reads the cache's views but never its
// entries.
func TestCellIDViewMatchesIntern(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := lakeSQLRequests(lk)

	t.Run("requests", func(t *testing.T) {
		d := dict.New()
		cache := NewResponseCache()
		wrappers := map[*catalog.Source]*SQLWrapper{}
		nonEmpty := 0
		for i, c := range cases {
			w := wrappers[c.src]
			if w == nil {
				w = NewSQLWrapper(c.src, nil, TranslationOptimized, 0)
				w.SetResponseCache(cache)
				wrappers[c.src] = w
			}
			schema := engine.NewSchema(c.req.Vars())
			got := entryFor(t, w, c.req, schema, d)
			sameEntry(t, fmt.Sprintf("case %d at %s", i, c.src.ID), got, refSQLEntry(t, w, c.req, schema, d))
			for j, req := range seededForms(c.req, schema, got) {
				sameEntry(t, fmt.Sprintf("case %d at %s, seeded form %d", i, c.src.ID, j),
					entryFor(t, w, req, schema, d), refSQLEntry(t, w, req, schema, d))
			}
			if got.nrows > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 5 {
			t.Fatalf("only %d of %d requests answered rows", nonEmpty, len(cases))
		}
	})

	t.Run("row inserted after sizing", func(t *testing.T) {
		lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
		if err != nil {
			t.Fatal(err)
		}
		src := lk.Catalog.Source(lslod.DSDrugBank)
		d := dict.New()
		cache := NewResponseCache()
		w := NewSQLWrapper(src, nil, TranslationOptimized, 0)
		w.SetResponseCache(cache)
		req := &Request{Stars: []*StarQuery{{SubjectVar: "s", Class: lslod.ClassDrug, Patterns: []sparql.TriplePattern{
			{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(rdf.RDFType)), O: sparql.TermNode(rdf.NewIRI(lslod.ClassDrug))},
			{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI(lslod.PredGenericName)), O: sparql.VarNode("n")},
		}}}}
		schema := engine.NewSchema(req.Vars())
		before := entryFor(t, w, req, schema, d)

		tab := src.DB.Table(src.Mapping(lslod.ClassDrug).Table)
		row := slices.Clone(tab.Row(0))
		pk := tab.Schema.ColumnIndex(tab.Schema.PrimaryKey)
		row[pk] = rdb.IntValue(1 << 40)
		if row[pk].Type != tab.Schema.Columns[pk].Type {
			row[pk] = rdb.StringValue("inserted-after-sizing")
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		after := entryFor(t, w, req, schema, d)
		if after.nrows != before.nrows+1 {
			t.Fatalf("%d rows after the insert, want %d", after.nrows, before.nrows+1)
		}
		sameEntry(t, "after the insert", after, refSQLEntry(t, w, req, schema, d))
		for _, v := range cache.views {
			if len(v) >= tab.RowCount() {
				t.Fatalf("a view of %d slots covers the grown table of %d rows", len(v), tab.RowCount())
			}
		}
	})

	t.Run("concurrent misses", func(t *testing.T) {
		d := dict.New()
		cache := NewResponseCache()
		var wg sync.WaitGroup
		for gi := 0; gi < 4; gi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := map[*catalog.Source]*SQLWrapper{}
				for i := range cases {
					c := cases[(i*(gi+1)+gi)%len(cases)]
					w := ws[c.src]
					if w == nil {
						// A source ID of its own, so no goroutine replays
						// another's response; the tables, and so the
						// views, are shared.
						src := *c.src
						src.ID = fmt.Sprintf("%s#%d", src.ID, gi)
						w = NewSQLWrapper(&src, nil, TranslationOptimized, 0)
						w.SetResponseCache(cache)
						ws[c.src] = w
					}
					s, err := w.ExecuteColumnar(context.Background(), c.req, engine.NewSchema(c.req.Vars()), d)
					if err != nil {
						t.Error(err)
						return
					}
					for range s.Batches() {
					}
				}
			}()
		}
		wg.Wait()
		filled := 0
		for k, v := range cache.views {
			for ord := range v {
				if id := v.load(ord); id != dict.Unbound {
					filled++
					if want := d.Intern(catalog.ValueTerm(k.t.Row(ord)[k.col], k.tmpl)); id != want {
						t.Fatalf("%s column %d row %d holds %d, want %d", k.t.Schema.Name, k.col, ord, id, want)
					}
				}
			}
		}
		if filled == 0 {
			t.Fatal("the misses filled no slot of the cache's views")
		}
	})
}

// TestLastSQLSameOnReplay: a response cache entry keeps no statement, yet
// LastSQL after a hit returns the text the miss ran — per-answer, block
// and provably empty requests alike.
func TestLastSQLSameOnReplay(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := dict.New()
	cache := NewResponseCache()
	wrappers := map[*catalog.Source]*SQLWrapper{}
	run := func(w *SQLWrapper, req *Request, schema *engine.Schema) []string {
		s, err := w.ExecuteColumnar(context.Background(), req, schema, d)
		if err != nil {
			t.Fatal(err)
		}
		for range s.Batches() {
		}
		return w.LastSQL()
	}
	empty := 0
	for i, c := range lakeSQLRequests(lk) {
		w := wrappers[c.src]
		if w == nil {
			w = NewSQLWrapper(c.src, nil, TranslationOptimized, 0)
			w.SetResponseCache(cache)
			wrappers[c.src] = w
		}
		schema := engine.NewSchema(c.req.Vars())
		e := entryFor(t, NewSQLWrapper(c.src, nil, TranslationOptimized, 0), c.req, schema, d)
		unmatched := c.req.WithSeeds(engine.Seeds{Vars: []string{c.req.Stars[0].SubjectVar}, IDs: []dict.ID{d.Intern(rdf.NewIRI("http://elsewhere/x"))}, Rows: 1}, false)
		for j, req := range append(seededForms(c.req, schema, e), c.req, unmatched) {
			miss := run(w, req, schema)
			hits := cache.Stats().Hits
			replay := run(w, req, schema)
			if cache.Stats().Hits != hits+1 {
				t.Fatalf("case %d form %d: the second run was not a cache hit", i, j)
			}
			if !slices.Equal(miss, replay) {
				t.Fatalf("case %d form %d: LastSQL after the miss %q, after the hit %q", i, j, miss, replay)
			}
			if len(miss) == 0 {
				empty++
			}
		}
	}
	if empty == 0 {
		t.Fatal("no provably empty request was replayed")
	}
}
