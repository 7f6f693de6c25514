// Package catalog describes the Semantic Data Lake to the federated query
// engine: the sources (RDF graphs and relational databases), the RDF
// Molecule Templates (RDF-MTs, following MULDER) used for source selection,
// the R2RML-style mappings from RDF classes to 3NF relational stars, and
// the physical-design metadata (which columns are indexed) the paper's
// heuristics depend on.
//
// It also owns the one mapping between stored values and RDF terms:
// ValueTerm reads a stored value as the term it stands for, and TermValue
// is its exact inverse. A constant, seed or filter constant a column
// cannot hold exactly (TermValue says no) matches nothing there: a
// constant makes the star provably empty, a seed drops out of the pushed
// seed condition, and a filter is not pushed into SQL but runs at the
// wrapper on the terms, so a physical design changes a plan's cost and
// never its answers.
package catalog

import (
	"context"
	dbsql "database/sql"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// DataModel enumerates the data models present in the lake.
type DataModel int

// Data models.
const (
	ModelRDF DataModel = iota
	ModelRelational
	// ModelCustom marks a source backed by a user-provided implementation
	// registered through the public lake API (CSV files, JSON documents,
	// remote APIs, ...). The engine reaches it through ExternalSource.
	ModelCustom
	// ModelSPARQLEndpoint marks a live remote SPARQL-protocol endpoint
	// (typically another ontario-server node) reached over HTTP.
	ModelSPARQLEndpoint
	// ModelSQLDatabase marks a relational source executed through a live
	// database/sql connection; DB still carries the schema the SPARQL-to-SQL
	// translation plans against, SQLDB runs the generated queries.
	ModelSQLDatabase
)

// String names the model.
func (m DataModel) String() string {
	switch m {
	case ModelRDF:
		return "RDF"
	case ModelRelational:
		return "Relational"
	case ModelSPARQLEndpoint:
		return "SPARQLEndpoint"
	case ModelSQLDatabase:
		return "SQLDatabase"
	default:
		return "Custom"
	}
}

// Remote reports whether the model reaches outside the process (and so
// runs under the resilience layer).
func (m DataModel) Remote() bool {
	return m == ModelSPARQLEndpoint || m == ModelSQLDatabase
}

// ExternalStar is one star-shaped sub-query handed to a custom source: all
// patterns share the subject variable and source selection has resolved the
// molecule class.
type ExternalStar struct {
	SubjectVar string
	Class      string
	Patterns   []sparql.TriplePattern
}

// ExternalSource answers star sub-queries for custom sources. Implementations
// evaluate the patterns against their backing data and return every matching
// solution; when seeds are present they may (but need not) restrict the
// evaluation to solutions compatible with at least one seed — the wrapper
// layer re-checks compatibility either way. Implementations must be safe for
// concurrent use: every running query calls into the same value.
type ExternalSource interface {
	ExecuteStars(ctx context.Context, stars []ExternalStar, seeds []sparql.Binding) ([]sparql.Binding, error)
}

// PropertyMapping maps one RDF predicate of a class to relational storage.
// Exactly one of Column or (JoinTable, JoinFK, ValueColumn) is set: a
// direct column on the class's base table, or a 3NF side table holding a
// multi-valued attribute or link.
type PropertyMapping struct {
	Predicate string
	// Direct attribute on the base table.
	Column string
	// Normalized side table: JoinTable.JoinFK references the base table's
	// primary key and ValueColumn holds the value.
	JoinTable   string
	JoinFK      string
	ValueColumn string
	// ObjectTemplate, when non-empty, renders the stored value into an IRI
	// ("...{value}..."), marking the object as a resource rather than a
	// literal. ObjectClass optionally names the class of that resource.
	ObjectTemplate string
	ObjectClass    string
}

// IsJoin reports whether the property lives in a side table.
func (pm *PropertyMapping) IsJoin() bool { return pm.JoinTable != "" }

// ClassMapping maps one RDF class onto a relational star rooted at Table.
// Following the paper (and MapSDI), the SPARQL subject corresponds to the
// base table's primary key — except for denormalized layouts, where the
// subject column repeats across rows (the paper's future-work "not
// normalized tables" setting).
type ClassMapping struct {
	Class string // class IRI
	Table string // base table name
	// SubjectColumn identifies the subject: the primary key for 3NF
	// layouts, a repeated (indexed) column for denormalized layouts.
	SubjectColumn string
	// SubjectTemplate renders a key into the subject IRI, e.g.
	// "http://lake/diseasome/disease/{id}".
	SubjectTemplate string
	// Denormalized marks a non-3NF wide-table layout: one row per
	// combination of multi-valued attributes, with single-valued
	// attributes repeated. Wrappers must de-duplicate (SELECT DISTINCT) to
	// recover RDF set semantics.
	Denormalized bool
	Properties   map[string]*PropertyMapping
}

// Property returns the mapping for a predicate IRI, or nil.
func (cm *ClassMapping) Property(pred string) *PropertyMapping {
	return cm.Properties[pred]
}

// ValueTerm returns the RDF term a stored value stands for. A column with
// a "{value}" template stores IRIs: the template with the value's text in
// place of "{value}". Any other column stores literals: xsd:integer,
// xsd:double and xsd:boolean for INTEGER, DOUBLE and BOOLEAN columns, and a
// plain literal for VARCHAR. Every reading of a relational row as RDF (the
// SQL wrappers' decoders, the RDF export, the cluster's partitioning) goes
// through it.
func ValueTerm(v rdb.Value, template string) rdf.Term {
	if template != "" {
		return rdf.NewIRI(strings.Replace(template, "{value}", v.String(), 1))
	}
	switch v.Type {
	case rdb.TypeInt:
		return rdf.IntLiteral(v.Int)
	case rdb.TypeFloat:
		return rdf.FloatLiteral(v.Float)
	case rdb.TypeBool:
		return rdf.BoolLiteral(v.Bool)
	default:
		return rdf.NewLiteral(v.Str)
	}
}

// TermValue is ValueTerm's exact inverse: the value of column type typ
// whose term under template is t itself. ok is false when a column of
// that type and template holds no value standing for t: an IRI outside
// the template or on a literal column, a literal on an IRI column, a
// literal of another datatype or with a language tag, a lexical form
// other than the one ValueTerm writes ("030" or "+1" for an integer,
// "1.50" for a double), or a double SQL equality cannot express (NaN,
// ±Inf). It allocates nothing: the canonical form is rendered into a
// stack buffer and compared with the term's.
func TermValue(t rdf.Term, typ rdb.Type, template string) (rdb.Value, bool) {
	lex := t.Value
	if template != "" {
		i := strings.Index(template, "{value}")
		if i < 0 || !t.IsIRI() {
			return rdb.Value{}, false
		}
		prefix, suffix := template[:i], template[i+len("{value}"):]
		if len(lex) < len(prefix)+len(suffix) || !strings.HasPrefix(lex, prefix) || !strings.HasSuffix(lex, suffix) {
			return rdb.Value{}, false
		}
		lex = lex[len(prefix) : len(lex)-len(suffix)]
	} else if !t.IsLiteral() || t.Lang != "" || t.Datatype != literalDatatype(typ) {
		return rdb.Value{}, false
	}
	var buf [32]byte
	switch typ {
	case rdb.TypeInt:
		n, err := strconv.ParseInt(lex, 10, 64)
		return rdb.IntValue(n), err == nil && string(strconv.AppendInt(buf[:0], n, 10)) == lex
	case rdb.TypeFloat:
		f, err := strconv.ParseFloat(lex, 64)
		return rdb.FloatValue(f), err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) &&
			string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) == lex
	case rdb.TypeBool:
		v := rdb.BoolValue(strings.EqualFold(lex, "true"))
		if template != "" {
			return v, v.String() == lex
		}
		return v, strconv.FormatBool(v.Bool) == lex
	default:
		return rdb.StringValue(lex), true
	}
}

// literalDatatype is the datatype of the literals a column of type typ
// stores ("" for plain literals).
func literalDatatype(typ rdb.Type) string {
	switch typ {
	case rdb.TypeInt:
		return rdf.XSDInteger
	case rdb.TypeFloat:
		return rdf.XSDDouble
	case rdb.TypeBool:
		return rdf.XSDBoolean
	default:
		return ""
	}
}

// Source is one dataset in the lake.
type Source struct {
	ID    string
	Model DataModel

	// Graph backs RDF sources.
	Graph *rdf.Graph
	// DB and Mappings back relational sources. For ModelSQLDatabase DB
	// holds only the schema (no rows): the translation plans against it
	// while SQLDB executes.
	DB       *rdb.Database
	Mappings map[string]*ClassMapping // by class IRI
	// External backs custom sources.
	External ExternalSource
	// Endpoint is the query URL of a ModelSPARQLEndpoint source.
	Endpoint string
	// SQLDB is the live connection of a ModelSQLDatabase source.
	SQLDB *dbsql.DB

	// Partition records the hash-partition this source's rows were
	// thinned to (set by cluster.PartitionCatalog on workers); nil means
	// the source holds the whole dataset. Planning reads this to prove
	// co-partitioned joins shuffle-free.
	Partition *SourcePartition
}

// SourcePartition identifies one hash-partition of a source. Scheme
// names the routing function; "subject" means every row routes by the
// FNV-1a hash of its star's subject term, so a subject's whole star —
// RDF triples and relational base/side rows alike — lives on exactly
// one partition.
type SourcePartition struct {
	Scheme string
	Part   int
	Of     int
}

// relational reports whether the source answers through the SPARQL-to-SQL
// translation (in-memory rdb or a live database/sql connection).
func (s *Source) relational() bool {
	return s.Model == ModelRelational || s.Model == ModelSQLDatabase
}

// Mapping returns the class mapping for a class IRI, or nil.
func (s *Source) Mapping(class string) *ClassMapping {
	if s.Mappings == nil {
		return nil
	}
	return s.Mappings[class]
}

// HasIndexOn reports whether, under mapping cm, the storage column backing
// predicate pred is indexed (including primary keys). For side-table
// properties the relevant access column is the value column when filtering
// and the FK when joining; joinSide selects which.
func (s *Source) HasIndexOn(cm *ClassMapping, pred string, joinSide bool) bool {
	if !s.relational() || s.DB == nil {
		return false
	}
	pm := cm.Property(pred)
	if pm == nil {
		return false
	}
	if !pm.IsJoin() {
		t := s.DB.Table(cm.Table)
		return t != nil && t.HasIndexOn(pm.Column)
	}
	t := s.DB.Table(pm.JoinTable)
	if t == nil {
		return false
	}
	if joinSide {
		return t.HasIndexOn(pm.JoinFK)
	}
	return t.HasIndexOn(pm.ValueColumn)
}

// SubjectIndexed reports whether the class's subject column is indexed; it
// is always true for a well-formed mapping because the subject is the
// primary key.
func (s *Source) SubjectIndexed(cm *ClassMapping) bool {
	if !s.relational() || s.DB == nil {
		return false
	}
	t := s.DB.Table(cm.Table)
	return t != nil && t.HasIndexOn(cm.SubjectColumn)
}

// PredicateDesc describes one predicate of an RDF-MT.
type PredicateDesc struct {
	Predicate string
	// LinkedClass names the class of the objects when the predicate links
	// to another molecule (an intra- or inter-source link).
	LinkedClass string
}

// RDFMT is an RDF Molecule Template: the abstract description of the
// entities of one class, with the predicates they share and the sources
// able to answer them (MULDER / Ontario source descriptions).
type RDFMT struct {
	Class      string
	Predicates []PredicateDesc
	Sources    []string // source IDs
}

// HasPredicate reports whether the molecule offers the predicate.
func (mt *RDFMT) HasPredicate(p string) bool {
	for _, pd := range mt.Predicates {
		if pd.Predicate == p {
			return true
		}
	}
	return false
}

// Catalog is the data-lake description handed to the engine.
type Catalog struct {
	sources map[string]*Source
	mts     map[string]*RDFMT // by class IRI
	// predIndex maps predicate IRI -> class IRIs of molecules containing it.
	predIndex map[string][]string

	// shared holds lake-lifetime caches keyed by consumer (see Shared).
	sharedMu sync.Mutex
	shared   map[string]any
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		sources:   make(map[string]*Source),
		mts:       make(map[string]*RDFMT),
		predIndex: make(map[string][]string),
	}
}

// Shared returns the catalog's lake-lifetime cache slot for key, creating
// it with mk on first use. The catalog describes one static lake, so
// derived read-mostly state whose validity follows the data — the term
// dictionary, the wrapper response cache, the serving layer's marshaled-
// term cache — belongs here rather than to any single engine: every
// engine built over the catalog shares one instance and a new engine
// starts warm. Values are held as any so the catalog does not depend on
// its consumers' types.
func (c *Catalog) Shared(key string, mk func() any) any {
	c.sharedMu.Lock()
	defer c.sharedMu.Unlock()
	if c.shared == nil {
		c.shared = make(map[string]any)
	}
	v, ok := c.shared[key]
	if !ok {
		v = mk()
		c.shared[key] = v
	}
	return v
}

// AddSource registers a source.
func (c *Catalog) AddSource(s *Source) error {
	if s.ID == "" {
		return fmt.Errorf("catalog: source has empty ID")
	}
	if _, dup := c.sources[s.ID]; dup {
		return fmt.Errorf("catalog: duplicate source %s", s.ID)
	}
	switch s.Model {
	case ModelRDF:
		if s.Graph == nil {
			return fmt.Errorf("catalog: RDF source %s has no graph", s.ID)
		}
	case ModelCustom:
		if s.External == nil {
			return fmt.Errorf("catalog: custom source %s has no implementation", s.ID)
		}
	case ModelSPARQLEndpoint:
		if s.Endpoint == "" {
			return fmt.Errorf("catalog: remote source %s has no endpoint URL", s.ID)
		}
	case ModelSQLDatabase:
		if s.SQLDB == nil {
			return fmt.Errorf("catalog: SQL-database source %s has no connection", s.ID)
		}
		if s.DB == nil {
			return fmt.Errorf("catalog: SQL-database source %s has no schema database", s.ID)
		}
		if err := validateMappings(s); err != nil {
			return err
		}
	case ModelRelational:
		if s.DB == nil {
			return fmt.Errorf("catalog: relational source %s has no database", s.ID)
		}
		if err := validateMappings(s); err != nil {
			return err
		}
	}
	c.sources[s.ID] = s
	return nil
}

// validateMappings checks every class mapping of a relational source (in-
// memory or live database/sql) against the schema in s.DB.
func validateMappings(s *Source) error {
	for class, cm := range s.Mappings {
		t := s.DB.Table(cm.Table)
		if t == nil {
			return fmt.Errorf("catalog: source %s maps class %s to unknown table %s", s.ID, class, cm.Table)
		}
		if cm.Denormalized {
			if t.Schema.ColumnIndex(cm.SubjectColumn) < 0 {
				return fmt.Errorf("catalog: source %s class %s: denormalized subject column %s missing in %s",
					s.ID, class, cm.SubjectColumn, cm.Table)
			}
		} else if t.Schema.PrimaryKey != cm.SubjectColumn {
			return fmt.Errorf("catalog: source %s class %s: subject column %s is not the primary key of %s",
				s.ID, class, cm.SubjectColumn, cm.Table)
		}
		for pred, pm := range cm.Properties {
			if pm.IsJoin() {
				jt := s.DB.Table(pm.JoinTable)
				if jt == nil {
					return fmt.Errorf("catalog: source %s: predicate %s uses unknown table %s", s.ID, pred, pm.JoinTable)
				}
				if jt.Schema.ColumnIndex(pm.JoinFK) < 0 || jt.Schema.ColumnIndex(pm.ValueColumn) < 0 {
					return fmt.Errorf("catalog: source %s: predicate %s references missing columns in %s", s.ID, pred, pm.JoinTable)
				}
			} else if t.Schema.ColumnIndex(pm.Column) < 0 {
				return fmt.Errorf("catalog: source %s: predicate %s maps to unknown column %s.%s", s.ID, pred, cm.Table, pm.Column)
			}
		}
	}
	return nil
}

// AddMT registers a molecule template, merging sources and predicates if
// the class is already present.
func (c *Catalog) AddMT(mt *RDFMT) {
	existing, ok := c.mts[mt.Class]
	if !ok {
		cp := &RDFMT{Class: mt.Class}
		cp.Predicates = append(cp.Predicates, mt.Predicates...)
		cp.Sources = append(cp.Sources, mt.Sources...)
		c.mts[mt.Class] = cp
		for _, pd := range mt.Predicates {
			c.addPredClass(pd.Predicate, mt.Class)
		}
		return
	}
	for _, pd := range mt.Predicates {
		if !existing.HasPredicate(pd.Predicate) {
			existing.Predicates = append(existing.Predicates, pd)
			c.addPredClass(pd.Predicate, mt.Class)
		}
	}
	for _, src := range mt.Sources {
		found := false
		for _, s := range existing.Sources {
			if s == src {
				found = true
				break
			}
		}
		if !found {
			existing.Sources = append(existing.Sources, src)
		}
	}
}

func (c *Catalog) addPredClass(pred, class string) {
	for _, cl := range c.predIndex[pred] {
		if cl == class {
			return
		}
	}
	c.predIndex[pred] = append(c.predIndex[pred], class)
}

// Source returns the source with the given ID, or nil.
func (c *Catalog) Source(id string) *Source { return c.sources[id] }

// SourceIDs returns the sorted registered source IDs.
func (c *Catalog) SourceIDs() []string {
	out := make([]string, 0, len(c.sources))
	for id := range c.sources {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// MT returns the molecule template for a class IRI, or nil.
func (c *Catalog) MT(class string) *RDFMT { return c.mts[class] }

// Classes returns the sorted class IRIs with registered molecules.
func (c *Catalog) Classes() []string {
	out := make([]string, 0, len(c.mts))
	for cl := range c.mts {
		out = append(out, cl)
	}
	sort.Strings(out)
	return out
}

// ClassesWithPredicate returns the classes whose molecules contain the
// predicate, sorted.
func (c *Catalog) ClassesWithPredicate(pred string) []string {
	out := append([]string(nil), c.predIndex[pred]...)
	sort.Strings(out)
	return out
}
