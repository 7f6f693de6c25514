package wrapper

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/wirefmt"
)

// shape is what a request is, independent of where it lives: the canonical
// encoding of its stars and pushed filters, and that encoding's hash. Two
// requests built independently — a plan prepared again after eviction, a
// task header decoded by a cluster worker — have equal canon strings
// exactly when they ask the same question, so the response cache keys on
// the hash and verifies the string. The same bytes are the request's wire
// form (Request.Shape / DecodeShape).
type shape struct {
	canon string
	h     uint64
	// opaque marks a filter of a type outside the closed expression AST:
	// it still fingerprints (by its rendering) but cannot cross the wire.
	opaque bool
}

// Canonical form, version 1. Strings are uvarint-length-prefixed, terms
// are wirefmt terms, counts are uvarints:
//
//	shape   := 0x01 nstars star* nfilters expr*
//	star    := subjectVar class npatterns (node node node)*
//	node    := 0x00 var | 0x01 term
//	expr    := 0x01 var | 0x02 term | 0x03 op expr expr (compare)
//	         | 0x04 op expr expr (logic) | 0x05 expr (not)
//	         | 0x06 name nargs expr* (function)
const (
	shapeVersion = 1

	nodeVar  = 0
	nodeTerm = 1

	exprVar    = 1
	exprConst  = 2
	exprCmp    = 3
	exprLogic  = 4
	exprNot    = 5
	exprFunc   = 6
	exprOpaque = 0x7f // never decodes

	// maxExprDepth bounds decoder recursion: a hostile payload nests one
	// level per byte.
	maxExprDepth = 128
)

func appendNode(buf []byte, n sparql.Node) []byte {
	if n.IsVar {
		return wirefmt.AppendString(append(buf, nodeVar), n.Var)
	}
	return wirefmt.AppendTerm(append(buf, nodeTerm), n.Term)
}

func readNode(c *wirefmt.Cursor) sparql.Node {
	switch tag := c.Byte(); tag {
	case nodeVar:
		return sparql.VarNode(c.String())
	case nodeTerm:
		return sparql.TermNode(c.Term())
	default:
		c.Fail("unknown pattern node tag 0x%02x", tag)
		return sparql.Node{}
	}
}

// AppendExpr appends the canonical form of a filter expression, erroring
// on a node outside the closed expression AST.
func AppendExpr(buf []byte, e sparql.Expr) ([]byte, error) {
	var opaque bool
	buf = appendExpr(buf, e, &opaque)
	if opaque {
		return nil, fmt.Errorf("wrapper: filter expression %s cannot be serialized", e)
	}
	return buf, nil
}

// appendExpr sets *opaque when the tree holds a node outside the closed
// AST: the bytes then still identify the expression (by its rendering) but
// ReadExpr rejects them.
func appendExpr(buf []byte, e sparql.Expr, opaque *bool) []byte {
	switch v := e.(type) {
	case *sparql.VarExpr:
		return wirefmt.AppendString(append(buf, exprVar), v.Name)
	case *sparql.ConstExpr:
		return wirefmt.AppendTerm(append(buf, exprConst), v.Term)
	case *sparql.CompareExpr:
		buf = binary.AppendUvarint(append(buf, exprCmp), uint64(v.Op))
		return appendExpr(appendExpr(buf, v.L, opaque), v.R, opaque)
	case *sparql.LogicExpr:
		buf = binary.AppendUvarint(append(buf, exprLogic), uint64(v.Op))
		return appendExpr(appendExpr(buf, v.L, opaque), v.R, opaque)
	case *sparql.NotExpr:
		return appendExpr(append(buf, exprNot), v.X, opaque)
	case *sparql.FuncExpr:
		buf = wirefmt.AppendString(append(buf, exprFunc), v.Name)
		buf = binary.AppendUvarint(buf, uint64(len(v.Args)))
		for _, a := range v.Args {
			buf = appendExpr(buf, a, opaque)
		}
		return buf
	default:
		*opaque = true
		return wirefmt.AppendString(append(buf, exprOpaque), fmt.Sprintf("%T %v", e, e))
	}
}

// ReadExpr reads one expression written by AppendExpr, failing the cursor
// on anything else.
func ReadExpr(c *wirefmt.Cursor) sparql.Expr { return readExpr(c, 0) }

func readExpr(c *wirefmt.Cursor, depth int) sparql.Expr {
	if depth > maxExprDepth {
		c.Fail("expression nested deeper than %d", maxExprDepth)
		return nil
	}
	switch tag := c.Byte(); tag {
	case exprVar:
		return &sparql.VarExpr{Name: c.String()}
	case exprConst:
		return &sparql.ConstExpr{Term: c.Term()}
	case exprCmp:
		op := c.Uvarint()
		if op > uint64(sparql.OpGe) {
			c.Fail("unknown comparison operator %d", op)
		}
		return &sparql.CompareExpr{Op: sparql.CompareOp(op), L: readExpr(c, depth+1), R: readExpr(c, depth+1)}
	case exprLogic:
		op := c.Uvarint()
		if op > uint64(sparql.OpOr) {
			c.Fail("unknown logical operator %d", op)
		}
		return &sparql.LogicExpr{Op: sparql.LogicOp(op), L: readExpr(c, depth+1), R: readExpr(c, depth+1)}
	case exprNot:
		return &sparql.NotExpr{X: readExpr(c, depth+1)}
	case exprFunc:
		f := &sparql.FuncExpr{Name: c.String()}
		n := c.Count()
		if n == 0 {
			// Every builtin indexes its first argument.
			c.Fail("function %s without arguments", f.Name)
		}
		for i := 0; i < n && c.Err == nil; i++ {
			f.Args = append(f.Args, readExpr(c, depth+1))
		}
		return f
	default:
		c.Fail("unknown expression tag 0x%02x", tag)
		return nil
	}
}

// newShape derives the shape of a star/filter pair from its content.
func newShape(stars []*StarQuery, filters []sparql.Expr) *shape {
	s := &shape{}
	buf := make([]byte, 0, 256)
	buf = binary.AppendUvarint(append(buf, shapeVersion), uint64(len(stars)))
	for _, st := range stars {
		buf = wirefmt.AppendString(buf, st.SubjectVar)
		buf = wirefmt.AppendString(buf, st.Class)
		buf = binary.AppendUvarint(buf, uint64(len(st.Patterns)))
		for _, tp := range st.Patterns {
			buf = appendNode(appendNode(appendNode(buf, tp.S), tp.P), tp.O)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(filters)))
	for _, f := range filters {
		buf = appendExpr(buf, f, &s.opaque)
	}
	s.canon = string(buf)
	s.h = mixResp(fnvString(fnvOffset, s.canon))
	return s
}

// shapeOf returns r's shape, deriving it on first use. The derivation is
// idempotent, so racing first uses agree; Stars and Filters must not
// change once the request has been executed.
func (r *Request) shapeOf() *shape {
	if s := r.shape.Load(); s != nil {
		return s
	}
	r.shape.CompareAndSwap(nil, newShape(r.Stars, r.Filters))
	return r.shape.Load()
}

// WithSeeds returns r's seeded form for one block of bind-join seeds,
// sharing r's stars, filters, fingerprint and translation memo; block
// picks the response charge (see Request.Block).
func (r *Request) WithSeeds(seeds engine.Seeds, block bool) *Request {
	out := &Request{Stars: r.Stars, Filters: r.Filters, Seeds: seeds, Block: block}
	out.shape.Store(r.shapeOf())
	out.leaf.Store(r.memo())
	return out
}

// Shape returns the canonical form of r's stars and filters — the bytes
// DecodeShape reads back. It is derived once per request shape, so
// shipping a request costs a copy, not a walk of its pattern trees.
func (r *Request) Shape() (string, error) {
	s := r.shapeOf()
	if s.opaque {
		return "", fmt.Errorf("wrapper: request carries a filter expression that cannot be serialized")
	}
	return s.canon, nil
}

// DecodeShape reads a canonical form into an unseeded request. The
// fingerprint is derived from the decoded content, never taken from the
// sender, and bytes that are not the canonical form of what they decode to
// are rejected.
func DecodeShape(b []byte) (*Request, error) {
	c := &wirefmt.Cursor{P: b}
	if v := c.Byte(); c.Err == nil && v != shapeVersion {
		c.Fail("unknown request shape version %d", v)
	}
	r := &Request{}
	for i, n := 0, c.Count(); i < n && c.Err == nil; i++ {
		st := &StarQuery{SubjectVar: c.String(), Class: c.String()}
		for j, np := 0, c.Count(); j < np && c.Err == nil; j++ {
			st.Patterns = append(st.Patterns, sparql.TriplePattern{S: readNode(c), P: readNode(c), O: readNode(c)})
		}
		r.Stars = append(r.Stars, st)
	}
	for i, n := 0, c.Count(); i < n && c.Err == nil; i++ {
		r.Filters = append(r.Filters, ReadExpr(c))
	}
	if c.Err == nil && c.Rest() != 0 {
		c.Fail("%d trailing bytes after request shape", c.Rest())
	}
	if c.Err != nil {
		return nil, c.Err
	}
	if len(r.Stars) == 0 {
		return nil, wirefmt.Corrupt{Msg: "request shape without stars"}
	}
	s := newShape(r.Stars, r.Filters)
	if s.canon != string(b) {
		return nil, wirefmt.Corrupt{Msg: "request shape is not in canonical form"}
	}
	r.shape.Store(s)
	return r, nil
}

// ShapeTable resolves canonical shape bytes to an already decoded, already
// fingerprinted request, so a cluster worker decodes each distinct plan
// leaf once and every later task naming it costs a map hit. It is bounded
// by the response cache's eviction rule; a dropped shape decodes again to
// the same fingerprint, so the responses remembered for it stay reachable.
// Only bytes that decoded are remembered.
type ShapeTable struct {
	mu    sync.RWMutex
	slots map[string]*shapeSlot
}

type shapeSlot struct {
	req  *Request
	used atomic.Bool
}

// shapeTableCap bounds the table (a workload with that many distinct plan
// leaves is churn — parameterised queries — not reuse).
const shapeTableCap = 1024

// NewShapeTable returns an empty table.
func NewShapeTable() *ShapeTable {
	return &ShapeTable{slots: make(map[string]*shapeSlot)}
}

// Len returns the number of remembered shapes.
func (t *ShapeTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.slots)
}

// Resolve returns the unseeded request b encodes; callers derive seeded
// forms with WithSeeds and must not modify it.
func (t *ShapeTable) Resolve(b []byte) (*Request, error) {
	t.mu.RLock()
	slot := t.slots[string(b)]
	t.mu.RUnlock()
	if slot != nil {
		markUsed(&slot.used)
		return slot.req, nil
	}
	req, err := DecodeShape(b)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot := t.slots[string(b)]; slot != nil {
		return slot.req, nil
	}
	if len(t.slots) >= shapeTableCap {
		sweep(t.slots, shapeTableCap*3/4, func(s *shapeSlot) bool { return s.used.Swap(false) })
	}
	t.slots[string(b)] = &shapeSlot{req: req}
	return req, nil
}

// markUsed sets a second-chance flag without dirtying the cache line of
// an entry that is hit over and over.
func markUsed(f *atomic.Bool) {
	if !f.Load() {
		f.Store(true)
	}
}

// sweep makes room in a full table. Entries not used since the previous
// sweep go first (spare reports and clears an entry's used flag — second
// chance); if that leaves more than keep, arbitrary survivors follow. A
// sweep is O(len) and frees at least len-keep slots, so it is amortised
// O(1) per insert, and it never empties the table the way a drop-all cap
// does.
func sweep[K comparable, V any](m map[K]V, keep int, spare func(V) bool) (evicted int) {
	for k, v := range m {
		if !spare(v) {
			delete(m, k)
			evicted++
		}
	}
	for k := range m {
		if len(m) <= keep {
			break
		}
		delete(m, k)
		evicted++
	}
	return evicted
}
