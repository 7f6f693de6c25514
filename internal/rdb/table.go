package rdb

import (
	"fmt"
	"slices"
	"sync"

	"ontario/internal/btree"
)

// Table is an in-memory table with optional secondary indexes. The primary
// key is always indexed (hash). Tables are safe for concurrent reads;
// loading must complete before queries run.
type Table struct {
	Schema *Schema

	mu      sync.RWMutex
	rows    []Row
	ords    []int32        // 0..len(rows)-1: the ordinals of an unfiltered scan
	pk      map[string]int // primary-key IndexKey -> row id
	hashIdx map[string]map[string][]int
	treeIdx map[string]*btree.Tree
	specs   []IndexSpec
	stats   *Stats

	// mutated, when set by the owning database, is called (under the
	// table lock) on every successful Insert or CreateIndex so the
	// database can move its content generation.
	mutated func()
}

// NewTable creates an empty table for the schema. The schema must declare a
// primary key column.
func NewTable(schema *Schema) (*Table, error) {
	if schema.PrimaryKey == "" {
		return nil, fmt.Errorf("rdb: table %s has no primary key", schema.Name)
	}
	if schema.ColumnIndex(schema.PrimaryKey) < 0 {
		return nil, fmt.Errorf("rdb: table %s primary key %s is not a column", schema.Name, schema.PrimaryKey)
	}
	return &Table{
		Schema:  schema,
		pk:      make(map[string]int),
		hashIdx: make(map[string]map[string][]int),
		treeIdx: make(map[string]*btree.Tree),
	}, nil
}

// Insert appends a row, maintaining all indexes. The row must match the
// schema arity and the primary key must be unique and non-null.
func (t *Table) Insert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(r) != len(t.Schema.Columns) {
		return fmt.Errorf("rdb: %s: row has %d values, schema has %d columns",
			t.Schema.Name, len(r), len(t.Schema.Columns))
	}
	for i, c := range t.Schema.Columns {
		if r[i].Null {
			if c.NotNull || c.Name == t.Schema.PrimaryKey {
				return fmt.Errorf("rdb: %s: NULL in non-nullable column %s", t.Schema.Name, c.Name)
			}
			continue
		}
		if r[i].Type != c.Type {
			return fmt.Errorf("rdb: %s.%s: value type %s does not match column type %s",
				t.Schema.Name, c.Name, r[i].Type, c.Type)
		}
	}
	pkIdx := t.Schema.ColumnIndex(t.Schema.PrimaryKey)
	key := r[pkIdx].IndexKey()
	if _, dup := t.pk[key]; dup {
		return fmt.Errorf("rdb: %s: duplicate primary key %s", t.Schema.Name, r[pkIdx])
	}
	id := len(t.rows)
	t.rows = append(t.rows, r)
	t.ords = append(t.ords, int32(id))
	t.pk[key] = id
	for _, spec := range t.specs {
		t.indexRow(spec, r, id)
	}
	t.stats = nil // invalidate
	if t.mutated != nil {
		t.mutated()
	}
	return nil
}

func (t *Table) indexRow(spec IndexSpec, r Row, id int) {
	ci := t.Schema.ColumnIndex(spec.Column)
	v := r[ci]
	if v.Null {
		return
	}
	key := v.IndexKey()
	switch spec.Kind {
	case IndexHash:
		m := t.hashIdx[spec.Column]
		m[key] = append(m[key], id)
	case IndexBTree:
		t.treeIdx[spec.Column].Insert(key, id)
	}
}

// CreateIndex builds a secondary index over an existing column, indexing
// any rows already present.
func (t *Table) CreateIndex(spec IndexSpec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.Schema.ColumnIndex(spec.Column)
	if ci < 0 {
		return fmt.Errorf("rdb: %s: cannot index unknown column %s", t.Schema.Name, spec.Column)
	}
	for _, s := range t.specs {
		if s.Column == spec.Column && s.Kind == spec.Kind {
			return fmt.Errorf("rdb: %s: duplicate index on %s", t.Schema.Name, spec.Column)
		}
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("idx_%s_%s", t.Schema.Name, spec.Column)
	}
	switch spec.Kind {
	case IndexHash:
		if _, ok := t.hashIdx[spec.Column]; !ok {
			t.hashIdx[spec.Column] = make(map[string][]int)
		}
	case IndexBTree:
		if _, ok := t.treeIdx[spec.Column]; !ok {
			t.treeIdx[spec.Column] = btree.New()
		}
	}
	t.specs = append(t.specs, spec)
	for id, r := range t.rows {
		t.indexRow(spec, r, id)
	}
	if t.mutated != nil {
		t.mutated()
	}
	return nil
}

// Indexes returns the secondary index specs (copy).
func (t *Table) Indexes() []IndexSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]IndexSpec(nil), t.specs...)
}

// HasIndexOn reports whether the column is indexed (secondary index or
// primary key).
func (t *Table) HasIndexOn(column string) bool {
	if column == t.Schema.PrimaryKey {
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.specs {
		if s.Column == column {
			return true
		}
	}
	return false
}

// indexKindOn returns the best index available on the column:
// (hasHash, hasTree). The primary key counts as a hash index.
func (t *Table) indexKindOn(column string) (hasHash, hasTree bool) {
	if column == t.Schema.PrimaryKey {
		hasHash = true
	}
	for _, s := range t.specs {
		if s.Column != column {
			continue
		}
		switch s.Kind {
		case IndexHash:
			hasHash = true
		case IndexBTree:
			hasTree = true
		}
	}
	return
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Row returns the row with the given id.
func (t *Table) Row(id int) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[id]
}

// Stats returns (computing lazily) the table statistics.
func (t *Table) Stats() *Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats == nil {
		t.stats = computeStats(t.Schema, t.rows)
	}
	return t.stats
}

// lookupEq returns the ids of rows whose column equals v, using the best
// available index or a scan.
func (t *Table) lookupEq(column string, v Value) (ids []int, usedIndex bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lookupEqLocked(column, v)
}

func (t *Table) lookupEqLocked(column string, v Value) (ids []int, usedIndex bool) {
	if v.Null {
		return nil, true // NULL matches nothing under '='
	}
	key := v.IndexKey()
	if column == t.Schema.PrimaryKey {
		if id, ok := t.pk[key]; ok {
			return []int{id}, true
		}
		return nil, true
	}
	if m, ok := t.hashIdx[column]; ok {
		return m[key], true
	}
	if tr, ok := t.treeIdx[column]; ok {
		return tr.Get(key), true
	}
	ci := t.Schema.ColumnIndex(column)
	for id, r := range t.rows {
		if !r[ci].Null && r[ci].IndexKey() == key {
			ids = append(ids, id)
		}
	}
	return ids, false
}

// lookupIn is the multi-point lookup: the ordinals below n of the rows
// whose column equals any of vals, probed under one lock and returned once
// each in row order — the rows and the order a scan filtered by the same
// list yields.
func (t *Table) lookupIn(column string, vals []Value, n int) []int32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ids []int32
	for _, v := range vals {
		hit, _ := t.lookupEqLocked(column, v)
		for _, id := range hit {
			if id < n {
				ids = append(ids, int32(id))
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// lookupRange returns the ordinals below n of the rows with column in the
// given bounds, in key order, from the column's B+tree index.
func (t *Table) lookupRange(column string, lo *Value, loIncl bool, hi *Value, hiIncl bool, n int) []int32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tr := t.treeIdx[column]
	var ids []int32
	loKey, hasLo := "", false
	if lo != nil {
		loKey, hasLo = lo.IndexKey(), true
	}
	hiKey, hasHi, hiExcl := "", false, false
	if hi != nil {
		hiKey, hasHi, hiExcl = hi.IndexKey(), true, !hiIncl
	}
	loExcl := lo != nil && !loIncl
	tr.Range(loKey, hasLo, hiKey, hasHi, hiExcl, func(k string, id int) bool {
		if id < n && !(loExcl && k == loKey) {
			ids = append(ids, int32(id))
		}
		return true
	})
	return ids
}

// snapshot returns the rows present now and their ordinals. Rows are only
// ever appended, so both slices stay valid — and must stay unmodified —
// after the lock is released.
func (t *Table) snapshot() ([]Row, []int32) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.rows)
	return t.rows[:n:n], t.ords[:n:n]
}
