package dict

import (
	"sync"
	"sync/atomic"
)

// Table is a lazily filled side table keyed by dictionary ID — per-term
// work the serving layer memoizes across queries, like a term's encoded
// JSON. Reads take no lock: one atomic load of the chunk directory, an
// index, and the slot's own atomic load. Writes lock only to grow the
// directory; a slot is published with one atomic store, so a racing
// reader sees either nothing or the whole value.
//
// IDs are dense — a shard's n-th term gets (n<<4 | shard) + 1 — so the
// largest ID a dictionary has issued is at most 16 × (its largest shard
// + 1), and a table's memory is bounded by the dictionary whose IDs index
// it, like a map over the same IDs. The zero value is an empty table.
type Table[V any] struct {
	mu     sync.Mutex // serializes growth
	chunks atomic.Pointer[[]*tableChunk[V]]
}

const (
	tableChunkBits = 10
	tableChunkMask = 1<<tableChunkBits - 1
)

// tableChunk is a fixed block of slots; chunks never move once published,
// so growing the directory cannot lose a concurrent store.
type tableChunk[V any] [1 << tableChunkBits]atomic.Pointer[V]

// Load returns the value stored for id, or nil.
func (t *Table[V]) Load(id ID) *V {
	if chunks := t.chunks.Load(); chunks != nil {
		if c := uint64(id) >> tableChunkBits; c < uint64(len(*chunks)) {
			return (*chunks)[c][id&tableChunkMask].Load()
		}
	}
	return nil
}

// Store publishes v as id's value. Storing again replaces the value;
// memoizing callers store equal values, so a lost race costs only the
// duplicate work.
func (t *Table[V]) Store(id ID, v *V) {
	c := uint64(id) >> tableChunkBits
	chunks := t.chunks.Load()
	if chunks == nil || c >= uint64(len(*chunks)) {
		chunks = t.grow(c)
	}
	(*chunks)[c][id&tableChunkMask].Store(v)
}

// grow extends the directory to cover chunk c and returns it.
func (t *Table[V]) grow(c uint64) *[]*tableChunk[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.chunks.Load()
	var old []*tableChunk[V]
	if cur != nil {
		if c < uint64(len(*cur)) {
			return cur // another writer grew it first
		}
		old = *cur
	}
	next := make([]*tableChunk[V], c+1)
	copy(next, old)
	for i := len(old); i < len(next); i++ {
		next[i] = new(tableChunk[V])
	}
	t.chunks.Store(&next)
	return &next
}
