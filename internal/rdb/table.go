package rdb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
	ordIdx  map[string]*orderedIndex
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
		ordIdx:  make(map[string]*orderedIndex),
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
		t.ordIdx[spec.Column].insert(key, id)
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
	switch spec.Kind {
	case IndexHash:
		t.hashIdx[spec.Column] = make(map[string][]int)
		for id, r := range t.rows {
			t.indexRow(spec, r, id)
		}
	case IndexBTree:
		t.ordIdx[spec.Column] = newOrderedIndex(t.rows, ci)
	}
	t.specs = append(t.specs, spec)
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
// (hasHash, hasOrdered). The primary key counts as a hash index.
func (t *Table) indexKindOn(column string) (hasHash, hasOrdered bool) {
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
			hasOrdered = true
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
	if ix, ok := t.ordIdx[column]; ok {
		i, j := ix.search(key, false), ix.search(key, true)
		return ix.ids[i:j:j], true
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
// given bounds, in key order, from the column's ordered index.
func (t *Table) lookupRange(column string, lo *Value, loIncl bool, hi *Value, hiIncl bool, n int) []int32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.ordIdx[column]
	i, j := 0, len(ix.keys)
	if lo != nil {
		i = ix.search(lo.IndexKey(), !loIncl)
	}
	if hi != nil {
		j = ix.search(hi.IndexKey(), hiIncl)
	}
	var ids []int32
	for ; i < j; i++ {
		if id := ix.ids[i]; id < n {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// orderedIndex is an ordered secondary index: the IndexKeys of a column's
// non-NULL values and their row ids, sorted by (key, row id), so a point
// or range lookup is two binary searches and a sub-slice of ids.
type orderedIndex struct {
	keys []string
	ids  []int
}

// newOrderedIndex indexes column ci of rows.
func newOrderedIndex(rows []Row, ci int) *orderedIndex {
	type entry struct {
		key string
		id  int
	}
	es := make([]entry, 0, len(rows))
	for id, r := range rows {
		if !r[ci].Null {
			es = append(es, entry{r[ci].IndexKey(), id})
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
	ix := &orderedIndex{keys: make([]string, len(es)), ids: make([]int, len(es))}
	for i, e := range es {
		ix.keys[i], ix.ids[i] = e.key, e.id
	}
	return ix
}

// search returns the first position whose key is above k (after) or at
// least k (!after).
func (ix *orderedIndex) search(k string, after bool) int {
	if after {
		return sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] > k })
	}
	return sort.SearchStrings(ix.keys, k)
}

// insert places a row after every equal key, so equal keys stay in
// row-id order. It copies both slices, so an id slice a lookup handed
// out is never written afterwards; only tables indexed before they are
// loaded pay for that.
func (ix *orderedIndex) insert(key string, id int) {
	i := ix.search(key, true)
	ix.keys = slices.Insert(slices.Clip(ix.keys), i, key)
	ix.ids = slices.Insert(slices.Clip(ix.ids), i, id)
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
