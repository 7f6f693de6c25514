// Package dict implements dictionary encoding of RDF terms: every
// distinct term a query execution touches is interned once into a dense
// uint64 ID at the wrapper boundary, and the engine's operators hash,
// compare and copy raw IDs instead of string-sized terms. Strings are
// materialized late — at the public Results cursor and the server's JSON
// writer — by the reverse lookup.
//
// The executor shares one Dict across every execution of an engine: the
// data lake is static, so the dictionary converges to the lake's
// distinct terms (its memory is bounded by the lake, not by query
// volume) and a warm query interns terms through the read-locked hit
// path only.
//
// A Dict is safe for concurrent use: the intern map is sharded by term
// hash, so wrappers running in parallel intern without contending
// on a single lock. The reverse direction is lock-free: each shard
// publishes its append-only term slice behind an atomic pointer, so
// Lookup — the materialization hot path under a serving load — costs one
// atomic load and an index.
package dict

import (
	"sync"
	"sync/atomic"

	"ontario/internal/rdf"
)

// ID is a dictionary-encoded RDF term. The zero ID means "unbound" — it
// is never assigned to a term, so a columnar batch can use 0 directly as
// the absence marker of an OPTIONAL column.
type ID uint64

// Unbound is the reserved ID of an absent value.
const Unbound ID = 0

const (
	shardBits  = 4
	shardCount = 1 << shardBits // 16
	shardMask  = shardCount - 1
)

// Dict interns RDF terms into dense IDs and resolves them back. The zero
// value is not usable; call New.
type Dict struct {
	shards [shardCount]shard
}

type shard struct {
	mu  sync.RWMutex
	ids map[rdf.Term]ID
	// terms is the canonical ID->term slice, guarded by mu. Elements are
	// immutable once appended, so the published header (rterms) can be
	// read without the lock: a reader's header never covers an element
	// still being written.
	terms []rdf.Term
	// rterms is the published header of terms, re-stored after every
	// append (the elements are shared with the canonical slice).
	rterms atomic.Pointer[[]rdf.Term]
}

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{}
	for i := range d.shards {
		s := &d.shards[i]
		s.ids = make(map[rdf.Term]ID)
		var noTerms []rdf.Term
		s.rterms.Store(&noTerms)
	}
	return d
}

// hashTerm is FNV-1a over the term's fields; it only picks the shard, so
// speed matters more than quality.
func hashTerm(t rdf.Term) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(t.Kind)) * prime
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint64(t.Value[i])) * prime
	}
	for i := 0; i < len(t.Datatype); i++ {
		h = (h ^ uint64(t.Datatype[i])) * prime
	}
	for i := 0; i < len(t.Lang); i++ {
		h = (h ^ uint64(t.Lang[i])) * prime
	}
	return h
}

// Intern returns the ID of t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	h := hashTerm(t) & shardMask
	s := &d.shards[h]
	s.mu.RLock()
	id, ok := s.ids[t]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	if id, ok = s.ids[t]; !ok {
		// ID layout: per-shard index in the high bits, shard in the low
		// bits, +1 so 0 stays reserved for Unbound.
		id = ID(uint64(len(s.terms))<<shardBits|h) + 1
		s.ids[t] = id
		s.terms = append(s.terms, t)
		terms := s.terms
		s.rterms.Store(&terms)
	}
	s.mu.Unlock()
	return id
}

// Lookup resolves an ID back to its term without locking. Looking up
// Unbound or an ID this dictionary never issued returns the zero term
// and false.
func (d *Dict) Lookup(id ID) (rdf.Term, bool) {
	if id == Unbound {
		return rdf.Term{}, false
	}
	v := uint64(id - 1)
	s := &d.shards[v&shardMask]
	idx := v >> shardBits
	terms := *s.rterms.Load()
	if idx < uint64(len(terms)) {
		return terms[idx], true
	}
	// The published header can lag an in-flight append only briefly; the
	// locked read settles whether the ID truly exists.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx >= uint64(len(s.terms)) {
		return rdf.Term{}, false
	}
	return s.terms[idx], true
}

// MustLookup resolves an ID, panicking on an ID the dictionary never
// issued (an engine invariant violation, not an input error).
func (d *Dict) MustLookup(id ID) rdf.Term {
	t, ok := d.Lookup(id)
	if !ok {
		panic("dict: lookup of unknown ID")
	}
	return t
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.terms)
		s.mu.RUnlock()
	}
	return n
}
