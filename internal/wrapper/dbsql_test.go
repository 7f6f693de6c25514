package wrapper

import (
	"context"
	dbsql "database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// stubConn is a minimal database/sql/driver backend serving canned rows,
// recording the SQL it receives and optionally failing the first N
// queries (a flaky database).
type stubConn struct {
	mu      sync.Mutex
	queries []string
	fail    int32
	cols    []string
	rows    [][]driver.Value
}

func (c *stubConn) Queries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.queries...)
}

type stubDriver struct{ conn *stubConn }

func (d *stubDriver) Open(string) (driver.Conn, error) { return d.conn, nil }

func (c *stubConn) Prepare(string) (driver.Stmt, error) {
	return nil, errors.New("stub: prepare unsupported")
}
func (c *stubConn) Close() error              { return nil }
func (c *stubConn) Begin() (driver.Tx, error) { return nil, errors.New("stub: no transactions") }

func (c *stubConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	c.mu.Lock()
	c.queries = append(c.queries, query)
	c.mu.Unlock()
	if atomic.AddInt32(&c.fail, -1) >= 0 {
		return nil, errors.New("stub: connection reset")
	}
	rows := make([][]driver.Value, len(c.rows))
	for i, r := range c.rows {
		rows[i] = append([]driver.Value(nil), r...)
	}
	return &stubRows{cols: c.cols, rows: rows}, nil
}

type stubRows struct {
	cols []string
	rows [][]driver.Value
	i    int
}

func (r *stubRows) Columns() []string { return r.cols }
func (r *stubRows) Close() error      { return nil }
func (r *stubRows) Next(dest []driver.Value) error {
	if r.i >= len(r.rows) {
		return io.EOF
	}
	copy(dest, r.rows[r.i])
	r.i++
	return nil
}

var stubSeq atomic.Int32

func openStub(t *testing.T, conn *stubConn) *dbsql.DB {
	t.Helper()
	name := fmt.Sprintf("ontario-stub-%d", stubSeq.Add(1))
	dbsql.Register(name, &stubDriver{conn: conn})
	db, err := dbsql.Open(name, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// personSQLSource builds a ModelSQLDatabase source: schema-only rdb for
// the translation, stub connection for execution.
func personSQLSource(t *testing.T, conn *stubConn) *catalog.Source {
	t.Helper()
	schema := rdb.NewDatabase("people")
	if _, err := schema.CreateTable(&rdb.Schema{
		Name: "person",
		Columns: []rdb.Column{
			{Name: "id", Type: rdb.TypeInt, NotNull: true},
			{Name: "name", Type: rdb.TypeString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	return &catalog.Source{
		ID:    "db",
		Model: catalog.ModelSQLDatabase,
		DB:    schema,
		SQLDB: openStub(t, conn),
		Mappings: map[string]*catalog.ClassMapping{
			"http://ex/Person": {
				Class:           "http://ex/Person",
				Table:           "person",
				SubjectColumn:   "id",
				SubjectTemplate: "http://ex/person/{value}",
				Properties: map[string]*catalog.PropertyMapping{
					"http://ex/name": {Predicate: "http://ex/name", Column: "name"},
				},
			},
		},
	}
}

func personSQLStar() *StarQuery {
	return &StarQuery{
		SubjectVar: "s",
		Class:      "http://ex/Person",
		Patterns: []sparql.TriplePattern{
			{S: sparql.VarNode("s"), P: sparql.TermNode(rdf.NewIRI("http://ex/name")), O: sparql.VarNode("name")},
		},
	}
}

func TestDBSQLWrapperTranslatesAndDecodes(t *testing.T) {
	conn := &stubConn{
		cols: []string{"c0", "c1"},
		rows: [][]driver.Value{
			{int64(1), "Ada"},
			{int64(2), []byte("Grace")}, // drivers commonly hand strings back as []byte
		},
	}
	src := personSQLSource(t, conn)
	w := NewDBSQLWrapper(src, NewHealthRegistry(fastResilience()), nil, 0)
	sols := collect(t, w, &Request{Stars: []*StarQuery{personSQLStar()}})
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2", len(sols))
	}
	if sols[0]["s"] != rdf.NewIRI("http://ex/person/1") || sols[0]["name"] != rdf.NewLiteral("Ada") {
		t.Fatalf("sols[0] = %v", sols[0])
	}
	if sols[1]["name"] != rdf.NewLiteral("Grace") {
		t.Fatalf("sols[1] = %v", sols[1])
	}
	qs := conn.Queries()
	if len(qs) != 1 || !strings.Contains(qs[0], "SELECT") || !strings.Contains(qs[0], "person") {
		t.Fatalf("issued SQL = %v", qs)
	}
}

func TestDBSQLWrapperRetriesFlakyDatabase(t *testing.T) {
	conn := &stubConn{
		cols: []string{"c0", "c1"},
		rows: [][]driver.Value{{int64(1), "Ada"}},
		fail: 2,
	}
	src := personSQLSource(t, conn)
	h := NewHealthRegistry(fastResilience())
	w := NewDBSQLWrapper(src, h, nil, 0)
	if sols := collect(t, w, &Request{Stars: []*StarQuery{personSQLStar()}}); len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1", len(sols))
	}
	if snap := h.Snapshot(); len(snap) != 1 || snap[0].Retries != 2 {
		t.Fatalf("health = %+v, want 2 retries", snap)
	}
}

func TestDBSQLWrapperSeedBlockPushdown(t *testing.T) {
	conn := &stubConn{
		cols: []string{"c0", "c1"},
		rows: [][]driver.Value{
			{int64(1), "Ada"},
			{int64(2), "Grace"},
		},
	}
	src := personSQLSource(t, conn)
	w := NewDBSQLWrapper(src, NewHealthRegistry(fastResilience()), nil, 0)
	seeds := []sparql.Binding{{"s": rdf.NewIRI("http://ex/person/1")}}
	sols := collect(t, w, &Request{Stars: []*StarQuery{personSQLStar()}, Block: true, Seeds: seedsOf(seeds...)})
	// The stub ignores WHERE, so the local seed re-check must drop row 2.
	if len(sols) != 1 || sols[0]["s"] != rdf.NewIRI("http://ex/person/1") {
		t.Fatalf("block solutions = %v, want just person/1", sols)
	}
	qs := conn.Queries()
	if len(qs) != 1 || !strings.Contains(qs[0], "WHERE") || !strings.Contains(qs[0], "1") {
		t.Fatalf("seed block not pushed down: %v", qs)
	}
}

func TestDBSQLWrapperNullRowSkipped(t *testing.T) {
	conn := &stubConn{
		cols: []string{"c0", "c1"},
		rows: [][]driver.Value{
			{int64(1), nil}, // NULL name: no triple, no solution
			{int64(2), "Grace"},
		},
	}
	src := personSQLSource(t, conn)
	w := NewDBSQLWrapper(src, NewHealthRegistry(fastResilience()), nil, 0)
	sols := collect(t, w, &Request{Stars: []*StarQuery{personSQLStar()}})
	if len(sols) != 1 || sols[0]["name"] != rdf.NewLiteral("Grace") {
		t.Fatalf("solutions = %v, want just Grace", sols)
	}
}
