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
// volume) and a warm query only finds terms already interned.
//
// A Dict is safe for concurrent use. Interning hashes a term once, with
// a fixed seed, so a term's ID depends only on the order terms arrive in,
// never on the process. The hash's low bits pick one of 16 shards, each
// behind its own mutex, so wrappers running in parallel intern without
// contending on a single lock. Its high 32 bits are the term's tag in the
// shard's index: an open-addressing array of plain uint64 slots, each a
// tag and a shard-local index, which the garbage collector never scans.
// A tag match is confirmed against the shard's term slice, and growing
// the index re-slots the stored tags without rehashing a string. A new
// term is appended to the term slice and allocates only when that slice
// or the index doubles. The reverse direction is lock-free: each shard
// publishes its term count with an atomic store, and its term slice's
// header only when an append moves the backing array, so Lookup — the
// materialization hot path under a serving load — costs two atomic loads
// and an index.
package dict

import (
	"math/bits"
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

	// minSlots is a shard's initial index size and term capacity. The
	// index doubles before it is more than three quarters full, so a
	// linear probe stays short.
	minSlots = 16
)

// Dict interns RDF terms into dense IDs and resolves them back. The zero
// value is not usable; call New.
type Dict struct {
	shards [shardCount]shard
}

type shard struct {
	mu sync.Mutex
	// slots is the index, guarded by mu: a power-of-two array whose slot
	// holds tag<<32 | (shard-local index + 1), and 0 when empty. The
	// index takes 32 bits, far more terms than a shard's memory holds.
	slots []uint64
	// terms is the canonical index->term slice, guarded by mu. Elements
	// are immutable once appended, so a reader that has loaded n can
	// read the first n elements of rterms without the lock.
	terms []rdf.Term
	// n is len(terms), stored after the new element is written.
	n atomic.Uint64
	// rterms is terms resliced to its capacity, re-stored only when an
	// append moves the backing array; nil while n is 0.
	rterms atomic.Pointer[[]rdf.Term]
}

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{}
	for i := range d.shards {
		d.shards[i].slots = make([]uint64, minSlots)
	}
	return d
}

const (
	// hashSeed and hashMul are fixed (π's and the golden ratio's fraction
	// bits): IDs decide hash-join emission order and response-cache keys,
	// so the same terms must get the same IDs in every process.
	hashSeed = 0x243f6a8885a308d3
	hashMul  = 0x9e3779b97f4a7c15
)

// mix folds the 64-bit word w into the hash state h: the high and low
// halves of one 128-bit product, xored, so every input bit reaches every
// output bit.
func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

// hashTerm hashes a term's fields 8 bytes at a time. Each field's length
// goes into the hash ahead of its bytes, so fields stay apart: "ab" and
// "a"^^<b> hash differently.
func hashTerm(t rdf.Term) uint64 {
	h := mix(hashSeed, uint64(len(t.Value))<<8|uint64(t.Kind))
	h = hashString(h, t.Value)
	if t.Datatype != "" || t.Lang != "" {
		h = mix(h, uint64(len(t.Datatype))<<32|uint64(len(t.Lang)))
		h = hashString(h, t.Datatype)
		h = hashString(h, t.Lang)
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = mix(h, w)
	}
	return h
}

// Intern returns the ID of t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	return d.intern(t, hashTerm(t))
}

// intern is Intern with the hash given, so tests can force collisions.
func (d *Dict) intern(t rdf.Term, h uint64) ID {
	sh := h & shardMask
	tag := uint32(h >> 32)
	s := &d.shards[sh]
	s.mu.Lock()
	idx, ok := s.find(t, tag)
	if !ok {
		idx = s.insert(t, tag)
	}
	s.mu.Unlock()
	// ID layout: shard-local index in the high bits, shard in the low
	// bits, +1 so 0 stays reserved for Unbound.
	return ID(idx<<shardBits|sh) + 1
}

// find returns t's shard-local index, probing linearly from its tag's
// slot. The caller holds mu.
func (s *shard) find(t rdf.Term, tag uint32) (uint64, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := uint64(tag) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) == tag && s.terms[uint32(e)-1] == t {
			return uint64(uint32(e)) - 1, true
		}
	}
}

// insert appends t, which find did not see, and returns its shard-local
// index. The caller holds mu.
func (s *shard) insert(t rdf.Term, tag uint32) uint64 {
	idx := uint64(len(s.terms))
	if 4*(idx+1) > 3*uint64(len(s.slots)) {
		next := make([]uint64, 2*len(s.slots))
		for _, e := range s.slots {
			if e != 0 {
				place(next, e)
			}
		}
		s.slots = next
	}
	place(s.slots, uint64(tag)<<32|(idx+1))
	if len(s.terms) == cap(s.terms) {
		// Double by hand: append grows a large slice by 1.25×, which
		// copies every term several times more on the way to its size.
		all := make([]rdf.Term, max(2*cap(s.terms), minSlots))
		copy(all, s.terms)
		s.terms = all[:len(s.terms)]
		s.rterms.Store(&all)
	}
	s.terms = append(s.terms, t)
	s.n.Store(idx + 1)
	return idx
}

// place puts slot entry e into the first empty slot from its tag's.
func place(slots []uint64, e uint64) {
	mask := uint64(len(slots) - 1)
	i := (e >> 32) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = e
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
	// n is stored after rterms covers it, so a reader that sees the ID
	// issued also sees a header holding its term.
	if idx >= s.n.Load() {
		return rdf.Term{}, false
	}
	return (*s.rterms.Load())[idx], true
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
		n += int(d.shards[i].n.Load())
	}
	return n
}
