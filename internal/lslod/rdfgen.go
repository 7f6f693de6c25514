package lslod

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/lake"
)

// GraphFromSource materializes the RDF view of a relational source by
// walking its class mappings — the inverse of the paper's RDF-to-relational
// transformation. It is the reference that tests cross-check wrapper
// results and datasetSpec.triples against, and cmd/lslod-gen's exporter.
func GraphFromSource(src *catalog.Source) (*rdf.Graph, error) {
	if src.Model != catalog.ModelRelational {
		return nil, fmt.Errorf("lslod: source %s is not relational", src.ID)
	}
	g := rdf.NewGraph()
	classes := make([]string, 0, len(src.Mappings))
	for c := range src.Mappings {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cm := src.Mappings[class]
		if err := exportClass(g, src, cm); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func exportClass(g *rdf.Graph, src *catalog.Source, cm *catalog.ClassMapping) error {
	res, err := src.DB.Query("SELECT * FROM " + cm.Table)
	if err != nil {
		return err
	}
	t := src.DB.Table(cm.Table)
	pkIdx := t.Schema.ColumnIndex(cm.SubjectColumn)
	typeIRI := rdf.NewIRI(rdf.RDFType)
	classIRI := rdf.NewIRI(cm.Class)

	preds := make([]string, 0, len(cm.Properties))
	for p := range cm.Properties {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	for _, row := range res.Rows {
		subj := catalog.ValueTerm(row[pkIdx], cm.SubjectTemplate)
		g.Add(rdf.Triple{S: subj, P: typeIRI, O: classIRI})
		for _, p := range preds {
			pm := cm.Properties[p]
			predIRI := rdf.NewIRI(p)
			if pm.IsJoin() {
				if err := exportSideTable(g, src, subj, predIRI, row[pkIdx], pm); err != nil {
					return err
				}
				continue
			}
			ci := t.Schema.ColumnIndex(pm.Column)
			v := row[ci]
			if v.Null {
				continue
			}
			g.Add(rdf.Triple{S: subj, P: predIRI, O: catalog.ValueTerm(v, pm.ObjectTemplate)})
		}
	}
	return nil
}

func exportSideTable(g *rdf.Graph, src *catalog.Source, subj, pred rdf.Term, key rdb.Value, pm *catalog.PropertyMapping) error {
	stmt := fmt.Sprintf("SELECT %s FROM %s WHERE %s = %s",
		pm.ValueColumn, pm.JoinTable, pm.JoinFK, sqlLiteral(key))
	res, err := src.DB.Query(stmt)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		if row[0].Null {
			continue
		}
		g.Add(rdf.Triple{S: subj, P: pred, O: catalog.ValueTerm(row[0], pm.ObjectTemplate)})
	}
	return nil
}

func sqlLiteral(v rdb.Value) string {
	if v.Type == rdb.TypeString {
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	}
	return v.String()
}

// triples emits the dataset's RDF view straight from its generated rows,
// in exactly the order GraphFromSource exports the relational source built
// from the same spec: classes sorted, rows in table order, each subject's
// rdf:type first and then its properties sorted by predicate. A direct
// column gives one triple unless it is NULL; a side-table property gives
// the side table's non-NULL values whose foreign key equals the subject
// key, in side-table row order. Nothing is deduplicated: the graph the
// triples are added to drops repeats and keeps the first.
func (s *datasetSpec) triples() []lake.Triple {
	tables := make(map[string]*specTable, len(s.tables))
	for _, t := range s.tables {
		tables[t.schema.Name] = t
	}
	iri := func(v string) lake.Term { return lakeTerm(rdf.NewIRI(v)) }
	typeIRI := iri(rdf.RDFType)

	// rowProp is one property of a class: a direct column, or the side
	// table's objects grouped by foreign key.
	type rowProp struct {
		pred lake.Term
		tmpl string
		col  int
		side map[string][]lake.Term
	}
	var out []lake.Triple
	for _, cm := range s.mappings {
		t := tables[cm.Table]
		key := t.schema.ColumnIndex(cm.SubjectColumn)
		class := iri(cm.Class)
		preds := make([]string, 0, len(cm.Properties))
		for p := range cm.Properties {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		props := make([]rowProp, len(preds))
		n := len(t.rows) // an upper bound on the class's triples
		for i, p := range preds {
			pm := cm.Properties[p]
			props[i] = rowProp{pred: iri(p), tmpl: pm.ObjectTemplate}
			if pm.IsJoin() {
				props[i].side = sideObjects(tables[pm.JoinTable], pm)
				n += len(tables[pm.JoinTable].rows)
			} else {
				props[i].col = t.schema.ColumnIndex(pm.Column)
				n += len(t.rows)
			}
		}
		out = slices.Grow(out, n)
		for _, row := range t.rows {
			k := row[key]
			subj := lakeTerm(catalog.ValueTerm(k, cm.SubjectTemplate))
			out = append(out, lake.Triple{S: subj, P: typeIRI, O: class})
			for _, p := range props {
				if p.side == nil {
					if v := row[p.col]; !v.Null {
						out = append(out, lake.Triple{S: subj, P: p.pred, O: lakeTerm(catalog.ValueTerm(v, p.tmpl))})
					}
					continue
				}
				for _, o := range p.side[k.IndexKey()] {
					out = append(out, lake.Triple{S: subj, P: p.pred, O: o})
				}
			}
		}
	}
	return out
}

// sideObjects groups a side table's non-NULL value-column objects by the
// foreign key's IndexKey (SQL equality), each group in table row order. A
// NULL foreign key equals no subject key, so its row is left out and a NULL
// subject key finds no group. The map is never nil, which marks the
// property as a side-table one.
func sideObjects(t *specTable, pm *catalog.PropertyMapping) map[string][]lake.Term {
	fk := t.schema.ColumnIndex(pm.JoinFK)
	vc := t.schema.ColumnIndex(pm.ValueColumn)
	out := make(map[string][]lake.Term)
	for _, row := range t.rows {
		if row[fk].Null || row[vc].Null {
			continue
		}
		k := row[fk].IndexKey()
		out[k] = append(out[k], lakeTerm(catalog.ValueTerm(row[vc], pm.ObjectTemplate)))
	}
	return out
}

func lakeTerm(t rdf.Term) lake.Term {
	return lake.Term{Kind: lake.TermKind(t.Kind), Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
}
