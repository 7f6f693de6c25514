package cluster

import (
	"fmt"
	"hash/fnv"

	"ontario/internal/bridge"
	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
)

// PartitionScheme is the routing function recorded on every partitioned
// source: rows route by the FNV-1a hash of the star's subject term. The
// coordinator only pushes co-partitioned joins worker-side when every
// worker reports this scheme.
const PartitionScheme = "subject"

// PartitionLake filters a freshly built public lake in place down to hash
// partition part of of. Every worker builds the full lake
// deterministically (same scale, same seed) and then drops the rows
// outside its partition, so no data ships at startup. The coordinator
// keeps the unpartitioned lake: planning statistics and molecule
// templates describe the whole lake either way.
func PartitionLake(publicLake any, part, of int) error {
	cat := bridge.LakeCatalog(publicLake)
	if cat == nil {
		return fmt.Errorf("cluster: PartitionLake requires a lake built with lake.NewBuilder")
	}
	return PartitionCatalog(cat, part, of)
}

// PartitionCatalog filters the catalog's sources in place to hash
// partition part of of, recording the partitioning key on each source.
// Every model routes by the same function — the subject-term hash: RDF
// graphs partition by the subject of each triple, relational base tables
// by the subject IRI their subject column renders to, and join
// side-tables by the subject IRI of their FK — so a subject's whole star
// lives on exactly one worker and the same entity lands on the same
// partition regardless of which model describes it (the property
// co-partitioned join pushdown relies on). Sources whose model cannot be
// partitioned deterministically (custom and live remote backends) are
// rejected.
func PartitionCatalog(cat *catalog.Catalog, part, of int) error {
	if of < 1 || part < 0 || part >= of {
		return fmt.Errorf("cluster: invalid partition %d/%d", part, of)
	}
	for _, id := range cat.SourceIDs() {
		src := cat.Source(id)
		switch src.Model {
		case catalog.ModelRDF:
			if of > 1 {
				src.Graph = partitionGraph(src.Graph, part, of)
			}
		case catalog.ModelRelational:
			if of > 1 {
				db, err := partitionDB(src, part, of)
				if err != nil {
					return fmt.Errorf("cluster: source %s: %w", id, err)
				}
				src.DB = db
			}
		default:
			if of == 1 {
				// The degenerate single-worker pool holds every source
				// whole; leave exotic models unmarked (no scheme, so no
				// pushdown) instead of rejecting them.
				continue
			}
			return fmt.Errorf("cluster: source %s (%s) cannot be hash-partitioned", id, src.Model)
		}
		src.Partition = &catalog.SourcePartition{Scheme: PartitionScheme, Part: part, Of: of}
	}
	return nil
}

// subjectHash hashes an RDF term for partition routing (FNV-1a over the
// full term identity). Routing only needs per-source consistency, so this
// is independent of the engine's dict-ID shard hash.
func subjectHash(t rdf.Term) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(t.Kind)})
	h.Write([]byte(t.Value))
	h.Write([]byte{0})
	h.Write([]byte(t.Datatype))
	h.Write([]byte{0})
	h.Write([]byte(t.Lang))
	return h.Sum64()
}

func partitionGraph(g *rdf.Graph, part, of int) *rdf.Graph {
	out := rdf.NewGraph()
	g.ForEach(func(t rdf.Triple) {
		if subjectHash(t.S)%uint64(of) == uint64(part) {
			out.Add(t)
		}
	})
	return out
}

// partSpec is the routing rule of one relational table: the column whose
// value renders through template into the subject IRI the row belongs to.
type partSpec struct {
	col      string
	template string
}

// partitionDB rebuilds the source's database keeping only the rows of
// this partition. Rows route by the hash of the subject term they belong
// to: the partition column of each table comes from the source's class
// mappings — the subject column for base tables, the join FK for side
// tables — and its value renders through the class's subject template
// into the same IRI term the RDF model would hash. A table reachable
// through two mappings with different partition rules cannot be split
// consistently — that is an error, not a silent wrong answer.
func partitionDB(src *catalog.Source, part, of int) (*rdb.Database, error) {
	specs := make(map[string]partSpec)
	assign := func(table, col, template string) error {
		if table == "" || col == "" {
			return nil
		}
		spec := partSpec{col: col, template: template}
		if prev, ok := specs[table]; ok && prev != spec {
			return fmt.Errorf("table %s has conflicting partition rules (%s via %q and %s via %q)",
				table, prev.col, prev.template, col, template)
		}
		specs[table] = spec
		return nil
	}
	for _, cm := range src.Mappings {
		if err := assign(cm.Table, cm.SubjectColumn, cm.SubjectTemplate); err != nil {
			return nil, err
		}
		for _, pm := range cm.Properties {
			if pm.IsJoin() {
				if err := assign(pm.JoinTable, pm.JoinFK, cm.SubjectTemplate); err != nil {
					return nil, err
				}
			}
		}
	}

	out := rdb.NewDatabase(src.DB.Name)
	for _, tn := range src.DB.TableNames() {
		t := src.DB.Table(tn)
		nt, err := out.CreateTable(t.Schema)
		if err != nil {
			return nil, err
		}
		spec, mapped := specs[tn]
		ci := -1
		if mapped {
			ci = t.Schema.ColumnIndex(spec.col)
			if ci < 0 {
				return nil, fmt.Errorf("table %s partition column %s not found", tn, spec.col)
			}
		}
		for id := 0; id < t.RowCount(); id++ {
			row := t.Row(id)
			// Unmapped tables are unreachable through the molecule
			// templates; keep them whole on every worker so any future
			// mapping still sees complete data.
			if mapped {
				subject := catalog.ValueTerm(row[ci], spec.template)
				if subjectHash(subject)%uint64(of) != uint64(part) {
					continue
				}
			}
			if err := nt.Insert(row); err != nil {
				return nil, err
			}
		}
		for _, spec := range t.Indexes() {
			if err := nt.CreateIndex(spec); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
