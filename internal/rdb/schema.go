package rdb

import "fmt"

// Column describes one table column.
type Column struct {
	Name string
	Type Type
	// NotNull marks the column as non-nullable.
	NotNull bool
}

// IndexKind enumerates secondary index representations.
type IndexKind int

// Index kinds.
const (
	// IndexHash is an equality-only hash index.
	IndexHash IndexKind = iota
	// IndexBTree is an ordered index supporting ranges.
	IndexBTree
)

// String names the kind.
func (k IndexKind) String() string {
	if k == IndexHash {
		return "HASH"
	}
	return "BTREE"
}

// IndexSpec describes a (single-column) secondary index.
type IndexSpec struct {
	Column string
	Kind   IndexKind
}

// Schema describes a table.
type Schema struct {
	Name       string
	Columns    []Column
	PrimaryKey string // single-column primary key (the paper's 3NF layout)
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnType returns the type of the named column.
func (s *Schema) ColumnType(name string) (Type, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("rdb: table %s has no column %s", s.Name, name)
	}
	return s.Columns[i].Type, nil
}

// ColumnNames returns the column names in declaration order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Row is one table row; values are positional per the schema.
type Row []Value

// Stats holds per-table statistics maintained on load and used by the
// planner for selectivity estimation, and by the data-lake designer for the
// paper's "no index when a value exceeds 15% of records" rule.
type Stats struct {
	RowCount int
	// DistinctCount maps column name to the number of distinct non-null
	// values.
	DistinctCount map[string]int
	// MaxValueFraction maps column name to the frequency of its most
	// common value as a fraction of RowCount.
	MaxValueFraction map[string]float64
}

// Selectivity estimates the fraction of rows matching an equality predicate
// on the column (1/distinct, defaulting pessimistically to 0.1).
func (st *Stats) Selectivity(column string) float64 {
	if st == nil || st.RowCount == 0 {
		return 0.1
	}
	d := st.DistinctCount[column]
	if d <= 0 {
		return 0.1
	}
	return 1.0 / float64(d)
}

// computeStats scans the rows and derives statistics.
func computeStats(schema *Schema, rows []Row) *Stats {
	st := &Stats{
		RowCount:         len(rows),
		DistinctCount:    make(map[string]int, len(schema.Columns)),
		MaxValueFraction: make(map[string]float64, len(schema.Columns)),
	}
	for ci, col := range schema.Columns {
		counts := make(map[string]int)
		for _, r := range rows {
			if r[ci].Null {
				continue
			}
			counts[r[ci].IndexKey()]++
		}
		st.DistinctCount[col.Name] = len(counts)
		maxN := 0
		for _, n := range counts {
			if n > maxN {
				maxN = n
			}
		}
		if len(rows) > 0 {
			st.MaxValueFraction[col.Name] = float64(maxN) / float64(len(rows))
		}
	}
	return st
}
