package rdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Database is a named collection of tables; it models one of the paper's
// per-dataset MySQL containers.
type Database struct {
	Name string

	mu     sync.RWMutex
	tables map[string]*Table

	// gen versions the database's contents: every table create, row
	// insert, and index create bumps it. In the federated setting the lake
	// loads once and is then read-only, so after loading it never moves.
	gen atomic.Uint64
}

// Gen returns the database's current content generation. Consumers that
// cache derived data (the wrapper's response cache) tag entries with the
// generation they were computed under and discard them when it moves.
func (db *Database) Gen() uint64 { return db.gen.Load() }

// NewDatabase returns an empty database.
func NewDatabase(name string) *Database {
	return &Database{
		Name:   name,
		tables: make(map[string]*Table),
	}
}

// CreateTable creates a table from the schema.
func (db *Database) CreateTable(schema *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[schema.Name]; dup {
		return nil, fmt.Errorf("rdb: table %s already exists in %s", schema.Name, db.Name)
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	t.mutated = func() { db.gen.Add(1) }
	db.gen.Add(1)
	db.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableNames returns the sorted table names.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalRows returns the sum of row counts across tables.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for _, t := range db.tables {
		total += t.RowCount()
	}
	return total
}
