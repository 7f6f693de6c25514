// Package stats computes and caches per-source statistics of the data
// lake's catalog for the cost-based optimizer: class extents, per-predicate
// triple counts and distinct subject/object counts for RDF graphs, row
// counts and per-column distinct counts for relational tables, and index
// availability. Statistics are derived once per source on first use and
// cached; the catalog's in-memory sources are immutable after load, so the
// cache never needs invalidation.
package stats

import (
	"sync"

	"ontario/internal/catalog"
	"ontario/internal/rdf"
)

// Provider supplies per-source statistics to the cost model. Source returns
// nil for unknown sources; callers fall back to pessimistic defaults.
type Provider interface {
	Source(id string) *SourceStats
}

// PredicateStats describes one predicate of a class at a source.
type PredicateStats struct {
	Predicate string
	// Count is the number of (subject, predicate, object) facts: triples at
	// RDF sources, value rows (base-table or side-table) at relational ones.
	Count int
	// DistinctSubjects and DistinctObjects count distinct terms on each end.
	DistinctSubjects int
	DistinctObjects  int
	// Indexed reports whether the storage column backing the predicate is
	// indexed at the source (RDF graphs index every position).
	Indexed bool
}

// Fanout is the average number of facts per subject carrying the predicate.
func (ps *PredicateStats) Fanout() float64 {
	if ps == nil || ps.DistinctSubjects <= 0 {
		return 1
	}
	return float64(ps.Count) / float64(ps.DistinctSubjects)
}

// ClassStats describes the extent of one class at a source.
type ClassStats struct {
	Class string
	// Extent is the number of class instances: typed subjects at RDF
	// sources, distinct subject keys at relational ones.
	Extent int
	// SubjectIndexed reports whether instance lookup by subject is an index
	// access (primary key or indexed subject column).
	SubjectIndexed bool
	Predicates     map[string]*PredicateStats
}

// Predicate returns the class's statistics for a predicate IRI, or nil.
func (cs *ClassStats) Predicate(p string) *PredicateStats {
	if cs == nil {
		return nil
	}
	return cs.Predicates[p]
}

// SourceStats describes one source of the lake.
type SourceStats struct {
	SourceID string
	Model    catalog.DataModel
	// Triples is the RDF graph size; Rows the total relational row count.
	Triples int
	Rows    int
	Classes map[string]*ClassStats
}

// Class returns the statistics of a class at the source, or nil.
func (ss *SourceStats) Class(class string) *ClassStats {
	if ss == nil {
		return nil
	}
	return ss.Classes[class]
}

// CatalogProvider computes statistics from a catalog.Catalog lazily and
// caches them per source. It is safe for concurrent use.
type CatalogProvider struct {
	cat   *catalog.Catalog
	mu    sync.Mutex
	cache map[string]*SourceStats
}

// NewProvider returns a caching provider over the catalog.
func NewProvider(cat *catalog.Catalog) *CatalogProvider {
	return &CatalogProvider{cat: cat, cache: make(map[string]*SourceStats)}
}

// Source implements Provider.
func (p *CatalogProvider) Source(id string) *SourceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ss, ok := p.cache[id]; ok {
		return ss
	}
	src := p.cat.Source(id)
	if src == nil {
		return nil
	}
	var ss *SourceStats
	switch src.Model {
	case catalog.ModelRDF:
		ss = rdfStats(src)
	case catalog.ModelRelational:
		ss = relationalStats(src)
	default:
		return nil
	}
	p.cache[id] = ss
	return ss
}

// rdfStats derives class and predicate statistics: one pass over the graph
// types the subjects, then each predicate's triples are attributed to the
// classes of their subjects.
func rdfStats(src *catalog.Source) *SourceStats {
	g := src.Graph
	ss := &SourceStats{
		SourceID: src.ID,
		Model:    catalog.ModelRDF,
		Triples:  g.Len(),
		Classes:  make(map[string]*ClassStats),
	}
	classOf := make(map[rdf.Term][]string)
	g.ForEach(func(t rdf.Triple) {
		if t.P.Value != rdf.RDFType || !t.O.IsIRI() {
			return
		}
		class := t.O.Value
		classOf[t.S] = append(classOf[t.S], class)
		cs := ss.class(class)
		cs.Extent++
	})
	// Counts are taken one predicate at a time, with two sets cleared
	// between predicates: a subject counts once for each of its classes, an
	// object once for each class of the subjects pointing at it.
	type classTerm struct {
		class string
		term  rdf.Term
	}
	subjects := make(map[rdf.Term]struct{})
	objects := make(map[classTerm]struct{})
	untyped := []string{""}
	for _, p := range g.Predicates() {
		if p.Value == rdf.RDFType {
			continue
		}
		clear(subjects)
		clear(objects)
		g.ForEachMatch(nil, &p, nil, func(_ int, t *rdf.Triple) {
			classes := classOf[t.S]
			if len(classes) == 0 {
				// Untyped subject: attribute under the pseudo-class "" so
				// predicate-only stars still find source-wide numbers.
				classes = untyped
			}
			_, seenSubject := subjects[t.S]
			subjects[t.S] = struct{}{}
			for _, class := range classes {
				cs := ss.class(class)
				ps := cs.Predicates[p.Value]
				if ps == nil {
					ps = &PredicateStats{Predicate: p.Value, Indexed: true}
					cs.Predicates[p.Value] = ps
				}
				ps.Count++
				if !seenSubject {
					ps.DistinctSubjects++
				}
				k := classTerm{class, t.O}
				if _, ok := objects[k]; !ok {
					objects[k] = struct{}{}
					ps.DistinctObjects++
				}
			}
		})
	}
	for _, cs := range ss.Classes {
		cs.SubjectIndexed = true
		if cs.Extent == 0 {
			// Pseudo-class of untyped subjects: extent = max distinct
			// subjects over its predicates.
			for _, ps := range cs.Predicates {
				if ps.DistinctSubjects > cs.Extent {
					cs.Extent = ps.DistinctSubjects
				}
			}
		}
	}
	return ss
}

// relationalStats derives class and predicate statistics from the mapped
// tables' maintained rdb.Stats.
func relationalStats(src *catalog.Source) *SourceStats {
	ss := &SourceStats{
		SourceID: src.ID,
		Model:    catalog.ModelRelational,
		Rows:     src.DB.TotalRows(),
		Classes:  make(map[string]*ClassStats),
	}
	for class, cm := range src.Mappings {
		t := src.DB.Table(cm.Table)
		if t == nil {
			continue
		}
		tstats := t.Stats()
		extent := tstats.RowCount
		if cm.Denormalized {
			if d := tstats.DistinctCount[cm.SubjectColumn]; d > 0 {
				extent = d
			}
		}
		cs := &ClassStats{
			Class:          class,
			Extent:         extent,
			SubjectIndexed: src.SubjectIndexed(cm),
			Predicates:     make(map[string]*PredicateStats),
		}
		for pred, pm := range cm.Properties {
			ps := &PredicateStats{Predicate: pred, Indexed: src.HasIndexOn(cm, pred, false)}
			if pm.IsJoin() {
				jt := src.DB.Table(pm.JoinTable)
				if jt != nil {
					js := jt.Stats()
					ps.Count = js.RowCount
					ps.DistinctSubjects = js.DistinctCount[pm.JoinFK]
					ps.DistinctObjects = js.DistinctCount[pm.ValueColumn]
				}
			} else {
				ps.Count = tstats.RowCount
				ps.DistinctSubjects = extent
				ps.DistinctObjects = tstats.DistinctCount[pm.Column]
			}
			cs.Predicates[pred] = ps
		}
		ss.Classes[class] = cs
	}
	return ss
}

func (ss *SourceStats) class(name string) *ClassStats {
	cs := ss.Classes[name]
	if cs == nil {
		cs = &ClassStats{Class: name, Predicates: make(map[string]*PredicateStats)}
		ss.Classes[name] = cs
	}
	return cs
}
