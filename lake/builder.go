// Package lake builds Semantic Data Lakes for the ontario query engine:
// heterogeneous collections of sources — in-memory RDF graphs, relational
// tables with R2RML-style mappings and declared indexes, and custom
// backends implementing the Source interface — described by RDF Molecule
// Templates for source selection.
//
// A lake is assembled with a Builder:
//
//	l, err := lake.NewBuilder().
//	    AddGraph("people", triples).
//	    AddTable("hr", lake.TableSpec{...}).
//	    MapClass("hr", lake.ClassMapping{...}).
//	    AddSource(myCSVSource).
//	    Build()
//	eng := ontario.New(l)
//
// Molecule templates are derived automatically from the registered graphs
// and table mappings; AddMolecule declares them explicitly when the
// derivation cannot see a link (custom sources' molecules come from their
// Molecules method).
package lake

import (
	dbsql "database/sql"
	"fmt"
	"io"
	"sort"

	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
)

// ColumnType enumerates relational column types.
type ColumnType int

// Column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
	TypeBool
)

// String names the type.
func (t ColumnType) String() string { return rdbType(t).String() }

func rdbType(t ColumnType) rdb.Type {
	switch t {
	case TypeInt:
		return rdb.TypeInt
	case TypeFloat:
		return rdb.TypeFloat
	case TypeBool:
		return rdb.TypeBool
	default:
		return rdb.TypeString
	}
}

// Column declares one table column.
type Column struct {
	Name string
	Type ColumnType
	// NotNull marks the column as non-nullable.
	NotNull bool
}

// IndexKind enumerates secondary index representations.
type IndexKind int

// Index kinds.
const (
	// HashIndex is an equality-only hash index.
	HashIndex IndexKind = iota
	// BTreeIndex is an ordered index also serving range predicates.
	BTreeIndex
)

// Index declares a single-column secondary index — the physical-design
// metadata the engine's heuristics and cost model exploit.
type Index struct {
	Column string
	Kind   IndexKind
}

// TableSpec declares one relational table with its rows. Row values are
// native Go values per column: int/int64 (Int), float64 (Float), string
// (String), bool (Bool); nil is NULL.
type TableSpec struct {
	Name       string
	Columns    []Column
	PrimaryKey string
	Rows       [][]any
	Indexes    []Index
}

// PropertyMapping maps one RDF predicate of a class to relational storage.
// Exactly one of Column or (JoinTable, JoinFK, ValueColumn) is set: a
// direct attribute on the class's base table, or a normalized side table
// whose JoinFK references the base table's subject column and whose
// ValueColumn holds the value.
type PropertyMapping struct {
	Predicate string
	// Column is the direct attribute on the base table.
	Column string
	// JoinTable/JoinFK/ValueColumn describe a side-table property.
	JoinTable   string
	JoinFK      string
	ValueColumn string
	// ObjectTemplate, when non-empty, renders the stored value into an IRI
	// ("...{value}..."), marking the object as a resource rather than a
	// literal; ObjectClass optionally names that resource's class (it
	// becomes the molecule's link).
	ObjectTemplate string
	ObjectClass    string
}

// ClassMapping maps one RDF class onto a relational star rooted at Table —
// the R2RML-style transformation record of the paper.
type ClassMapping struct {
	// Class is the mapped class IRI.
	Class string
	// Table is the base table.
	Table string
	// SubjectColumn identifies the subject: the primary key for normalized
	// layouts, a repeated column for denormalized ones. Empty defaults to
	// the table's primary key.
	SubjectColumn string
	// SubjectTemplate renders a key into the subject IRI, e.g.
	// "http://lake/hr/employee/{value}".
	SubjectTemplate string
	// Denormalized marks a non-3NF wide-table layout: the subject column
	// repeats across rows and wrappers de-duplicate to recover RDF set
	// semantics.
	Denormalized bool
	Properties   []PropertyMapping
}

// Builder assembles a Lake. Methods record declarations and defer all
// validation to Build, so they chain without per-call error handling.
type Builder struct {
	order     []string // source IDs in registration order
	graphs    map[string]*rdf.Graph
	tables    map[string][]TableSpec
	mappings  map[string][]ClassMapping
	customs   map[string]Source
	endpoints map[string]string    // remote SPARQL endpoints by source ID
	sqldbs    map[string]*dbsql.DB // live connections backing relational sources
	explicit  []Molecule
	errs      []error
}

// NewBuilder returns an empty lake builder.
func NewBuilder() *Builder {
	return &Builder{
		graphs:    make(map[string]*rdf.Graph),
		tables:    make(map[string][]TableSpec),
		mappings:  make(map[string][]ClassMapping),
		customs:   make(map[string]Source),
		endpoints: make(map[string]string),
		sqldbs:    make(map[string]*dbsql.DB),
	}
}

func (b *Builder) errf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return b
}

// track registers the source ID the first time it is seen and checks the
// ID names at most one kind of source.
func (b *Builder) track(id string, kind string) bool {
	if id == "" {
		b.errf("lake: %s source has empty ID", kind)
		return false
	}
	_, g := b.graphs[id]
	_, t := b.tables[id]
	_, c := b.customs[id]
	_, e := b.endpoints[id]
	if !g && !t && !c && !e {
		b.order = append(b.order, id)
		return true
	}
	switch {
	case g && kind != "graph", t && kind != "relational", c && kind != "custom", e && kind != "sparql-endpoint":
		b.errf("lake: source %s registered as more than one kind", id)
		return false
	}
	return true
}

// AddGraph registers (or extends) an in-memory RDF graph source with the
// given triples.
func (b *Builder) AddGraph(sourceID string, triples []Triple) *Builder {
	if !b.track(sourceID, "graph") {
		return b
	}
	g := b.graphs[sourceID]
	if g == nil {
		g = rdf.NewGraph()
		b.graphs[sourceID] = g
	}
	for _, t := range triples {
		g.Add(rdf.Triple{S: termToRDF(t.S), P: termToRDF(t.P), O: termToRDF(t.O)})
	}
	return b
}

// AddGraphNTriples registers (or extends) an in-memory RDF graph source
// from an N-Triples stream.
func (b *Builder) AddGraphNTriples(sourceID string, r io.Reader) *Builder {
	if !b.track(sourceID, "graph") {
		return b
	}
	triples, err := rdf.ParseNTriples(r)
	if err != nil {
		return b.errf("lake: source %s: %w", sourceID, err)
	}
	g := b.graphs[sourceID]
	if g == nil {
		g = rdf.NewGraph()
		b.graphs[sourceID] = g
	}
	for _, t := range triples {
		g.Add(t)
	}
	return b
}

// AddTable declares one table of a relational source, creating the source
// on first use. Tables of one source share a database and can serve merged
// (pushed-down) star joins.
func (b *Builder) AddTable(sourceID string, t TableSpec) *Builder {
	if !b.track(sourceID, "relational") {
		return b
	}
	b.tables[sourceID] = append(b.tables[sourceID], t)
	return b
}

// MapClass maps an RDF class onto tables of the relational source declared
// with AddTable.
func (b *Builder) MapClass(sourceID string, cm ClassMapping) *Builder {
	if !b.track(sourceID, "relational") {
		return b
	}
	b.mappings[sourceID] = append(b.mappings[sourceID], cm)
	return b
}

// AddSource registers a custom backend. Its molecule templates come from
// its Molecules method.
func (b *Builder) AddSource(s Source) *Builder {
	if s == nil {
		return b.errf("lake: AddSource(nil)")
	}
	id := s.ID()
	if _, dup := b.customs[id]; dup {
		return b.errf("lake: custom source %s registered twice", id)
	}
	if !b.track(id, "custom") {
		return b
	}
	b.customs[id] = s
	return b
}

// AddMolecule registers a molecule template explicitly, merging with any
// derived one for the same class. Use it to declare links the automatic
// derivation cannot see (e.g. a predicate whose objects live in another
// source); explicit predicates take precedence over derived ones.
func (b *Builder) AddMolecule(m Molecule) *Builder {
	b.explicit = append(b.explicit, m)
	return b
}

// Build validates the declarations, assembles the sources, derives the
// molecule templates and returns the lake.
func (b *Builder) Build() (*Lake, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.order) == 0 {
		return nil, fmt.Errorf("lake: no sources registered")
	}
	cat := catalog.New()
	for _, id := range b.order {
		src, err := b.buildSource(id)
		if err != nil {
			return nil, err
		}
		if err := cat.AddSource(src); err != nil {
			return nil, err
		}
	}
	// Explicit molecules first: on a predicate collision, the first
	// registration's link metadata wins.
	for _, m := range b.explicit {
		for _, s := range m.Sources {
			if cat.Source(s) == nil {
				return nil, fmt.Errorf("lake: molecule %s names unknown source %s", m.Class, s)
			}
		}
		cat.AddMT(moleculeToMT(m))
	}
	for _, id := range b.order {
		for _, m := range b.deriveMolecules(id, cat) {
			cat.AddMT(moleculeToMT(m))
		}
	}
	return &Lake{cat: cat}, nil
}

func (b *Builder) buildSource(id string) (*catalog.Source, error) {
	if g, ok := b.graphs[id]; ok {
		return &catalog.Source{ID: id, Model: catalog.ModelRDF, Graph: g}, nil
	}
	if s, ok := b.customs[id]; ok {
		return &catalog.Source{ID: id, Model: catalog.ModelCustom, External: externalAdapter{src: s}}, nil
	}
	if url, ok := b.endpoints[id]; ok {
		return &catalog.Source{ID: id, Model: catalog.ModelSPARQLEndpoint, Endpoint: url}, nil
	}
	specs := b.tables[id]
	if len(specs) == 0 {
		return nil, fmt.Errorf("lake: relational source %s has mappings but no tables", id)
	}
	db := rdb.NewDatabase(id)
	for _, spec := range specs {
		if err := buildTable(db, spec); err != nil {
			return nil, fmt.Errorf("lake: source %s: %w", id, err)
		}
	}
	mappings := make(map[string]*catalog.ClassMapping, len(b.mappings[id]))
	for _, cm := range b.mappings[id] {
		converted, err := classMappingToInternal(db, cm)
		if err != nil {
			return nil, fmt.Errorf("lake: source %s: %w", id, err)
		}
		if _, dup := mappings[cm.Class]; dup {
			return nil, fmt.Errorf("lake: source %s maps class %s twice", id, cm.Class)
		}
		mappings[cm.Class] = converted
	}
	if conn, ok := b.sqldbs[id]; ok {
		// A live connection executes the generated SQL; the rdb database
		// carries only the schema for the translation (declared rows, if
		// any, are planning stand-ins and never queried).
		return &catalog.Source{ID: id, Model: catalog.ModelSQLDatabase, DB: db, SQLDB: conn, Mappings: mappings}, nil
	}
	return &catalog.Source{ID: id, Model: catalog.ModelRelational, DB: db, Mappings: mappings}, nil
}

func buildTable(db *rdb.Database, spec TableSpec) error {
	schema := &rdb.Schema{Name: spec.Name, PrimaryKey: spec.PrimaryKey}
	for _, c := range spec.Columns {
		schema.Columns = append(schema.Columns, rdb.Column{Name: c.Name, Type: rdbType(c.Type), NotNull: c.NotNull})
	}
	t, err := db.CreateTable(schema)
	if err != nil {
		return err
	}
	for ri, row := range spec.Rows {
		if len(row) != len(spec.Columns) {
			return fmt.Errorf("table %s row %d has %d values, want %d", spec.Name, ri, len(row), len(spec.Columns))
		}
		r := make(rdb.Row, len(row))
		for ci, v := range row {
			val, err := toValue(v, rdbType(spec.Columns[ci].Type))
			if err != nil {
				return fmt.Errorf("table %s row %d column %s: %w", spec.Name, ri, spec.Columns[ci].Name, err)
			}
			r[ci] = val
		}
		if err := t.Insert(r); err != nil {
			return fmt.Errorf("table %s row %d: %w", spec.Name, ri, err)
		}
	}
	for _, ix := range spec.Indexes {
		kind := rdb.IndexHash
		if ix.Kind == BTreeIndex {
			kind = rdb.IndexBTree
		}
		if err := t.CreateIndex(rdb.IndexSpec{Column: ix.Column, Kind: kind}); err != nil {
			return err
		}
	}
	return nil
}

// toValue coerces a native Go value to a typed SQL value.
func toValue(v any, t rdb.Type) (rdb.Value, error) {
	if v == nil {
		return rdb.NullValue(t), nil
	}
	switch t {
	case rdb.TypeInt:
		switch n := v.(type) {
		case int:
			return rdb.IntValue(int64(n)), nil
		case int64:
			return rdb.IntValue(n), nil
		case int32:
			return rdb.IntValue(int64(n)), nil
		}
	case rdb.TypeFloat:
		switch n := v.(type) {
		case float64:
			return rdb.FloatValue(n), nil
		case float32:
			return rdb.FloatValue(float64(n)), nil
		case int:
			return rdb.FloatValue(float64(n)), nil
		case int64:
			return rdb.FloatValue(float64(n)), nil
		}
	case rdb.TypeString:
		if s, ok := v.(string); ok {
			return rdb.StringValue(s), nil
		}
	case rdb.TypeBool:
		if bv, ok := v.(bool); ok {
			return rdb.BoolValue(bv), nil
		}
	}
	return rdb.Value{}, fmt.Errorf("cannot store %T as %s", v, t)
}

func classMappingToInternal(db *rdb.Database, cm ClassMapping) (*catalog.ClassMapping, error) {
	if cm.Class == "" || cm.Table == "" {
		return nil, fmt.Errorf("class mapping needs Class and Table (got %q, %q)", cm.Class, cm.Table)
	}
	subject := cm.SubjectColumn
	if subject == "" {
		t := db.Table(cm.Table)
		if t == nil {
			return nil, fmt.Errorf("class %s maps to unknown table %s", cm.Class, cm.Table)
		}
		subject = t.Schema.PrimaryKey
	}
	out := &catalog.ClassMapping{
		Class:           cm.Class,
		Table:           cm.Table,
		SubjectColumn:   subject,
		SubjectTemplate: cm.SubjectTemplate,
		Denormalized:    cm.Denormalized,
		Properties:      make(map[string]*catalog.PropertyMapping, len(cm.Properties)),
	}
	for _, pm := range cm.Properties {
		if pm.Predicate == "" {
			return nil, fmt.Errorf("class %s has a property mapping without a predicate", cm.Class)
		}
		if _, dup := out.Properties[pm.Predicate]; dup {
			return nil, fmt.Errorf("class %s maps predicate %s twice", cm.Class, pm.Predicate)
		}
		direct := pm.Column != ""
		side := pm.JoinTable != "" || pm.JoinFK != "" || pm.ValueColumn != ""
		if direct == side {
			return nil, fmt.Errorf("class %s predicate %s: set exactly one of Column or JoinTable/JoinFK/ValueColumn",
				cm.Class, pm.Predicate)
		}
		out.Properties[pm.Predicate] = &catalog.PropertyMapping{
			Predicate:      pm.Predicate,
			Column:         pm.Column,
			JoinTable:      pm.JoinTable,
			JoinFK:         pm.JoinFK,
			ValueColumn:    pm.ValueColumn,
			ObjectTemplate: pm.ObjectTemplate,
			ObjectClass:    pm.ObjectClass,
		}
	}
	return out, nil
}

func moleculeToMT(m Molecule) *catalog.RDFMT {
	mt := &catalog.RDFMT{Class: m.Class, Sources: append([]string(nil), m.Sources...)}
	for _, p := range m.Predicates {
		mt.Predicates = append(mt.Predicates, catalog.PredicateDesc{Predicate: p.IRI, LinkedClass: p.LinkedClass})
	}
	return mt
}

// deriveMolecules derives the molecule templates of one source: from the
// class mappings for relational sources, from rdf:type assertions for
// graphs, and from the Molecules method for custom backends.
func (b *Builder) deriveMolecules(id string, cat *catalog.Catalog) []Molecule {
	if _, ok := b.endpoints[id]; ok {
		// Remote endpoints describe themselves through the molecules passed
		// to AddSPARQLEndpoint (or discovered via DiscoverMolecules); there
		// is nothing local to derive from.
		return nil
	}
	if s, ok := b.customs[id]; ok {
		var out []Molecule
		for _, m := range s.Molecules() {
			m.Sources = []string{id}
			out = append(out, m)
		}
		return out
	}
	if g, ok := b.graphs[id]; ok {
		return deriveGraphMolecules(id, g)
	}
	var out []Molecule
	for _, cm := range b.mappings[id] {
		m := Molecule{Class: cm.Class, Sources: []string{id}}
		preds := make([]string, 0, len(cm.Properties))
		byPred := make(map[string]PropertyMapping, len(cm.Properties))
		for _, pm := range cm.Properties {
			preds = append(preds, pm.Predicate)
			byPred[pm.Predicate] = pm
		}
		sort.Strings(preds)
		for _, p := range preds {
			m.Predicates = append(m.Predicates, Predicate{IRI: p, LinkedClass: byPred[p].ObjectClass})
		}
		out = append(out, m)
	}
	return out
}

// deriveGraphMolecules scans a graph: each rdf:type assertion types a
// subject, every predicate of a typed subject joins its classes' molecules
// (rdf:type itself excluded), and an object that is itself typed in the
// graph contributes its class as the predicate's link.
func deriveGraphMolecules(id string, g *rdf.Graph) []Molecule {
	types := make(map[rdf.Term][]string) // subject -> classes
	g.ForEach(func(t rdf.Triple) {
		if t.P.Value == rdf.RDFType && t.P.Kind == rdf.TermIRI && t.O.Kind == rdf.TermIRI {
			types[t.S] = append(types[t.S], t.O.Value)
		}
	})
	preds := make(map[string]map[string]string) // class -> predicate -> linked class
	g.ForEach(func(t rdf.Triple) {
		if t.P.Value == rdf.RDFType {
			return
		}
		linked := ""
		if t.O.Kind == rdf.TermIRI {
			if cls := types[t.O]; len(cls) > 0 {
				linked = cls[0]
			}
		}
		for _, class := range types[t.S] {
			pm := preds[class]
			if pm == nil {
				pm = make(map[string]string)
				preds[class] = pm
			}
			if prev, ok := pm[t.P.Value]; !ok || (prev == "" && linked != "") {
				pm[t.P.Value] = linked
			}
		}
	})
	classes := make([]string, 0, len(preds))
	for c := range preds {
		classes = append(classes, c)
	}
	for s := range types {
		for _, c := range types[s] {
			if _, ok := preds[c]; !ok {
				preds[c] = map[string]string{}
				classes = append(classes, c)
			}
		}
	}
	sort.Strings(classes)
	var out []Molecule
	seen := map[string]bool{}
	for _, class := range classes {
		if seen[class] {
			continue
		}
		seen[class] = true
		m := Molecule{Class: class, Sources: []string{id}}
		ps := make([]string, 0, len(preds[class]))
		for p := range preds[class] {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		for _, p := range ps {
			m.Predicates = append(m.Predicates, Predicate{IRI: p, LinkedClass: preds[class][p]})
		}
		out = append(out, m)
	}
	return out
}
