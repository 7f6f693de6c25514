package engine

import (
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// The operators run over the dictionary-encoded layout: the hot paths
// hash and compare raw uint64 IDs, and terms are only materialized where
// a value is genuinely needed (FILTER expressions, ORDER BY keys) — even
// bind-join seeds cross the wrapper boundary as IDs (Seeds). After a
// cancelled send an operator stops producing but keeps draining its
// inputs, so upstream producers can finish instead of blocking forever.
// The streaming operators at the end of the file are stages: they run in
// the goroutine of the operator that receives their stream.
//
// Join-key semantics: two rows fall in the same bucket only when their
// join-variable IDs are EXACTLY equal, with unbound (0) a value of its own
// — a row with ?v unbound never hash-joins a row with ?v bound. The
// remaining shared variables are then checked with the laxer
// sparql.Binding.Compatible rule (unbound matches anything).

// sharedPairs returns the column-position pairs of the variables both
// schemas carry, excluding the given join variables (those are handled by
// exact key equality).
func sharedPairs(l, r *Schema, exclude []string) (lp, rp []int) {
	ex := make(map[string]bool, len(exclude))
	for _, v := range exclude {
		ex[v] = true
	}
	for i, v := range l.Vars {
		if ex[v] {
			continue
		}
		if j := r.Pos(v); j >= 0 {
			lp = append(lp, i)
			rp = append(rp, j)
		}
	}
	return lp, rp
}

// compatBB reports whether row lr of l and row rr of r agree on the
// pre-resolved shared column pairs (Compatible semantics: unbound on
// either side passes).
func compatBB(l *ColBatch, lr int, r *ColBatch, rr int, lp, rp []int) bool {
	for i := range lp {
		a, b := l.Cols[lp[i]][lr], r.Cols[rp[i]][rr]
		if a != dict.Unbound && b != dict.Unbound && a != b {
			return false
		}
	}
	return true
}

// colTable is a hash table over dictionary-encoded rows, kept in flat
// arrays with no map and no per-key slice: the rows are stored flattened
// (stride IDs per row) in one arena, with each row's hash and chain link
// beside it, and a power-of-two slot array heads one chain per slot,
// linked in insertion order. The table doubles and rehashes before its
// rows would outnumber its slots. Probes walk the rows of one hash in insertion
// order (first, then after); collisions of equal hashes are resolved by
// the caller comparing the key columns of the candidate rows. Owned by
// one goroutine.
type colTable struct {
	stride int
	data   []dict.ID
	hashes []uint64 // hashes[i]: row i's hash
	next   []int32  // next[i]: the row after i in its slot's chain, -1 at the end
	heads  []int32  // heads[s]: the first row in slot s, -1 when empty
	tails  []int32  // tails[s]: the last row in slot s
	shift  uint     // a hash's slot is its top log2(len(heads)) bits
}

// colTableMinSlots is the slot count a table starts at on its first row.
const colTableMinSlots = 8

func newColTable(stride int) *colTable {
	return &colTable{stride: stride}
}

// reset empties the table, keeping its storage.
func (t *colTable) reset() {
	t.data = t.data[:0]
	t.hashes = t.hashes[:0]
	t.next = t.next[:0]
	for s := range t.heads {
		t.heads[s] = -1
	}
}

// link records a new row of hash h at the end of its slot's chain and
// returns its index; the caller then appends the row's IDs to data,
// within the capacity grow gave it.
func (t *colTable) link(h uint64) int32 {
	idx := int32(t.len())
	if t.len() >= len(t.heads) {
		t.grow()
	}
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, -1)
	t.chain(idx, h)
	return idx
}

// chain appends row idx to the end of the chain of hash h's slot.
func (t *colTable) chain(idx int32, h uint64) {
	s := h >> t.shift
	if t.heads[s] < 0 {
		t.heads[s] = idx
	} else {
		t.next[t.tails[s]] = idx
	}
	t.tails[s] = idx
}

// grow doubles the slot array and relinks every stored row, in index
// order, so each chain stays in insertion order. The row arrays are sized
// for as many rows as slots here, once per doubling: append would grow a
// large arena by a quarter at a time, allocating several times its final
// size along the way.
func (t *colTable) grow() {
	n := max(colTableMinSlots, 2*len(t.heads))
	t.data = withCap(t.data, n*t.stride)
	t.hashes = withCap(t.hashes, n)
	t.next = withCap(t.next, n)
	t.heads = make([]int32, n)
	t.tails = make([]int32, n)
	for s := range t.heads {
		t.heads[s] = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i, h := range t.hashes {
		t.next[i] = -1
		t.chain(int32(i), h)
	}
}

// len returns the number of stored rows.
func (t *colTable) len() int { return len(t.hashes) }

// withCap returns s with room for n elements, copied into a new array of
// exactly that capacity when it has less.
func withCap[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s
	}
	out := make([]E, len(s), n)
	copy(out, s)
	return out
}

// first returns the earliest stored row of hash h, or -1 when none is.
func (t *colTable) first(h uint64) int32 {
	if t.len() == 0 {
		return -1
	}
	return t.from(t.heads[h>>t.shift], h)
}

// after returns the next stored row of hash h after row i (itself of
// hash h), or -1 when none is.
func (t *colTable) after(i int32, h uint64) int32 {
	return t.from(t.next[i], h)
}

// from returns the first row of hash h on the chain from row i on.
func (t *colTable) from(i int32, h uint64) int32 {
	for i >= 0 && t.hashes[i] != h {
		i = t.next[i]
	}
	return i
}

// insert appends row r of b and returns its index. A zero-column schema
// (a cross-product input binding nothing) still counts rows: every row
// gets its own index, so the cross product multiplies correctly.
func (t *colTable) insert(b *ColBatch, r int, h uint64) int32 {
	idx := t.link(h)
	for c := 0; c < t.stride; c++ {
		t.data = append(t.data, b.Cols[c][r])
	}
	return idx
}

// insertKey appends the projection of row r of b onto the key columns
// pos (-1 stores Unbound) — a table of keys, not rows, with stride
// len(pos) — and returns its index.
func (t *colTable) insertKey(b *ColBatch, r int, pos []int, h uint64) int32 {
	idx := t.link(h)
	for _, p := range pos {
		id := dict.Unbound
		if p >= 0 {
			id = b.Cols[p][r]
		}
		t.data = append(t.data, id)
	}
	return idx
}

// contains reports whether a stored row equals the columns pos of row r of
// b, h being their hash; the stored rows hold exactly those columns, in
// pos order (full rows under the identity mapping, or insertKey's keys).
func (t *colTable) contains(b *ColBatch, r int, pos []int, h uint64) bool {
	for si := t.first(h); si >= 0; si = t.after(si, h) {
		stored := t.data[int(si)*t.stride : int(si+1)*t.stride]
		eq := true
		for i, p := range pos {
			id := dict.Unbound
			if p >= 0 {
				id = b.Cols[p][r]
			}
			if id != stored[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

// id returns the ID at column pos of a stored row; pos < 0 means a
// variable the stored schema does not carry (Unbound).
func (t *colTable) id(row int32, pos int) dict.ID {
	if pos < 0 {
		return dict.Unbound
	}
	return t.data[int(row)*t.stride+pos]
}

// keysEqualBT reports exact key equality between row r of batch b (key
// columns bPos) and stored row tr of t (key columns tPos).
func keysEqualBT(b *ColBatch, r int, bPos []int, t *colTable, tr int32, tPos []int) bool {
	for i := range bPos {
		var a dict.ID
		if bPos[i] >= 0 {
			a = b.Cols[bPos[i]][r]
		}
		if a != t.id(tr, tPos[i]) {
			return false
		}
	}
	return true
}

// compatBT checks Compatible semantics between a batch row and a stored
// table row over pre-resolved shared pairs.
func compatBT(b *ColBatch, r int, bPos []int, t *colTable, tr int32, tPos []int) bool {
	for i := range bPos {
		var a dict.ID
		if bPos[i] >= 0 {
			a = b.Cols[bPos[i]][r]
		}
		o := t.id(tr, tPos[i])
		if a != dict.Unbound && o != dict.Unbound && a != o {
			return false
		}
	}
	return true
}

// joinSide is one input of the rows an emitter builds: a batch, or a
// colTable whose rows are read as strided columns of its arena. pos[c] is
// output column c's position in that input, -1 when it does not carry
// the variable.
type joinSide struct {
	b   *ColBatch
	t   *colTable
	pos []int
}

// col returns output column c on this side as a strided view, row i's ID
// being col[off+i*stride]; col is nil when the side does not carry c.
func (s joinSide) col(c int) (col []dict.ID, off, stride int) {
	p := s.pos[c]
	switch {
	case p < 0:
		return nil, 0, 0
	case s.t != nil:
		return s.t.data, p, s.t.stride
	}
	return s.b.Cols[p], 0, 1
}

// cEmitter is the output side of the joins: it buffers result rows as
// (left row, right row) index pairs and forwards them as batches of at
// most size rows, each built column by column in one arena of exactly its
// size. After a failed send (context cancelled) it goes dead — every
// further pair/flushPairs is a cheap no-op and ok() reports false — so
// callers fall through to draining their inputs without special-casing
// dropped batches. Not safe for concurrent use; concurrent producers (the
// bind-join requests in flight) each own one emitter. Sends are accounted
// to st (nil records nothing).
type cEmitter struct {
	ctx  context.Context
	out  *CStream
	size int
	st   *OpStats
	dead bool
	// pairs buffers the (left row, right row) pairs of the next output
	// batch, flattened; reused from batch to batch.
	pairs []int32
}

func newCEmitter(ctx context.Context, out *CStream, size int, st *OpStats) *cEmitter {
	return &cEmitter{ctx: ctx, out: out, size: size, st: st}
}

func (e *cEmitter) ok() bool { return !e.dead }

// pair forwards the merge of row lr of l and row rr of r: each output
// column takes the left value when bound, else the right's (the inputs
// were checked compatible, so both-bound means equal — the row model's
// Merge semantics); rr < 0 leaves the right side unbound. The pairs are
// buffered as row indices and built into a batch once size of them are
// pending or at flushPairs, so they must all come from the same l and r.
func (e *cEmitter) pair(l joinSide, lr int, r joinSide, rr int) {
	if e.dead {
		return
	}
	e.pairs = append(e.pairs, int32(lr), int32(rr))
	if len(e.pairs) >= 2*e.size {
		e.flushPairs(l, r)
	}
}

// flushPairs forwards the buffered pairs (at least at every input-batch
// boundary, keeping answers streaming) as one batch built column by
// column in a single arena of exactly its size.
func (e *cEmitter) flushPairs(l, r joinSide) {
	n := len(e.pairs) / 2
	if n == 0 {
		return
	}
	schema, pairs := e.out.schema, e.pairs
	arena := make([]dict.ID, n*len(schema.Vars))
	cols := make([][]dict.ID, len(schema.Vars))
	for c := range cols {
		col := arena[c*n : (c+1)*n : (c+1)*n]
		lcol, loff, lstride := l.col(c)
		rcol, roff, rstride := r.col(c)
		for k := range col {
			id := dict.Unbound
			if lcol != nil {
				id = lcol[loff+int(pairs[2*k])*lstride]
			}
			if id == dict.Unbound && rcol != nil {
				if rr := int(pairs[2*k+1]); rr >= 0 {
					id = rcol[roff+rr*rstride]
				}
			}
			col[k] = id
		}
		cols[c] = col
	}
	e.pairs = e.pairs[:0]
	if !e.st.sendC(e.ctx, e.out, &ColBatch{Schema: schema, Len: n, Cols: cols}) {
		e.dead = true
	}
}

// CSymmetricHashJoin joins two streams on joinVars without blocking: each
// arriving row is inserted into its side's hash table and immediately
// probed against the other side's table, so answers are emitted as soon as
// both matching inputs have arrived (the adaptive operator ANAPSID calls
// agjoin). The bucket hash, the bucket key and the compatibility check all
// operate on raw dictionary IDs — no string key is ever built.
//
// The join is one goroutine that owns both hash tables and receives from
// whichever input delivers first, so insert and probe run without any
// lock. Answers are flushed at each input-batch boundary. When joinVars is
// empty every row lands in one bucket and the operator degrades to a
// cross product. out is the operator's output schema (the plan node's
// variables); batch bounds the output batches (<= 0 means
// DefaultBatchSize). Once the output is abandoned the join keeps draining
// both inputs so their producers can finish.
func CSymmetricHashJoin(ctx context.Context, left, right *CStream, joinVars []string, out *Schema, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))

	lKey := left.schema.Positions(joinVars)
	rKey := right.schema.Positions(joinVars)
	pairL, pairR := sharedPairs(left.schema, right.schema, joinVars)
	outL, outR := left.schema.Positions(out.Vars), right.schema.Positions(out.Vars)

	go func() {
		defer outS.Close()
		defer st.close()
		leftTbl := newColTable(len(left.schema.Vars))
		rightTbl := newColTable(len(right.schema.Vars))
		em := newCEmitter(ctx, outS, batch, st)
		for {
			b, fromLeft, open := recvEither(left, right, st)
			if !open {
				return
			}
			if !em.ok() {
				continue // keep draining so the producers can finish
			}
			st.addHashEntries(b.Len)
			// The arriving batch is one side of every pair and the other
			// side's table the other; that table takes no row meanwhile.
			var l, r joinSide
			if fromLeft {
				l, r = joinSide{b: b, pos: outL}, joinSide{t: rightTbl, pos: outR}
				for br := 0; br < b.Len; br++ {
					h := HashRowKey(b, br, lKey)
					leftTbl.insert(b, br, h)
					for oi := rightTbl.first(h); oi >= 0; oi = rightTbl.after(oi, h) {
						if !keysEqualBT(b, br, lKey, rightTbl, oi, rKey) {
							continue
						}
						if !compatBT(b, br, pairL, rightTbl, oi, pairR) {
							continue
						}
						em.pair(l, br, r, int(oi))
					}
				}
			} else {
				l, r = joinSide{t: leftTbl, pos: outL}, joinSide{b: b, pos: outR}
				for br := 0; br < b.Len; br++ {
					h := HashRowKey(b, br, rKey)
					rightTbl.insert(b, br, h)
					for oi := leftTbl.first(h); oi >= 0; oi = leftTbl.after(oi, h) {
						if !keysEqualBT(b, br, rKey, leftTbl, oi, lKey) {
							continue
						}
						if !compatBT(b, br, pairR, leftTbl, oi, pairL) {
							continue
						}
						em.pair(l, int(oi), r, br)
					}
				}
			}
			em.flushPairs(l, r) // input-batch boundary: keep answers streaming
		}
	}()
	return outS
}

// CService produces a stream for a request instantiated with a block of
// seeds in a single invocation; it abstracts a seeded wrapper call for the
// bind join. The service returns the union of the right solutions
// compatible with at least one seed, each underlying solution exactly once
// and NOT merged with the seeds (the solutions bind the join variables
// themselves, so the join matches them back to the block's left rows by
// compatibility). A seed binding none of the variables (all Unbound)
// leaves the request unconstrained.
type CService func(ctx context.Context, seeds Seeds) *CStream

// CBindJoin is the dependent join (the FedX/ANAPSID lineage "bound
// join"): left rows are gathered into blocks, each block's distinct seeds
// (deduplicated on raw ID tuples, which are handed over as the block's
// Seeds) are pushed to the right service in ONE invocation, and up to
// concurrency requests are in flight at once. The block grows as left
// rows arrive: a block is sent once the rows in hand reach the current
// size, which starts at one row and doubles with every block sent up to
// blockSize; it takes at most blockSize of them, in arrival order, and the
// end of the left input sends what is left. A left of n rows that arrives
// in one batch is thus cut into ⌈n/blockSize⌉ blocks of blockSize rows
// (the last one short), while one that trickles in gets blocks of 1, 2,
// 4, … rows, so the first answers need not wait for a full block. A
// blockSize of one with one request in flight is the sequential bind
// join: its requests follow one another strictly. A block that lies
// inside a left batch is a view of that batch, and only a block spanning
// batches is copied. Output stays streaming: each response batch's
// answers are emitted as soon as it arrives, independent of later blocks,
// in batches built at their exact size. When joinVars is empty the
// operator degrades to a cross product.
//
// Once the output is abandoned — the context is done or a send failed —
// the join dispatches no further request (it checks before each
// dispatch) but keeps draining the left input and the in-flight responses
// so their producers can finish.
func CBindJoin(ctx context.Context, left *CStream, right CService, joinVars []string, out *Schema, blockSize, concurrency, batch int) *CStream {
	if blockSize < 1 {
		blockSize = 1
	}
	if concurrency < 1 {
		concurrency = 1
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		lPos := left.schema.Positions(joinVars)
		ident := left.schema.Positions(left.schema.Vars)
		outL := left.schema.Positions(out.Vars)
		// The pool holds the emitters of the idle request slots: taking one
		// is the concurrency bound. An emitter is built on first need and
		// reused by later dispatches.
		pool := make(chan *cEmitter, concurrency)
		made := 0
		acquire := func() *cEmitter {
			if made < concurrency {
				select {
				case em := <-pool:
					return em
				default:
					made++
					return newCEmitter(ctx, outS, batch, st)
				}
			}
			return <-pool
		}
		var pmu sync.Mutex // guards the lazily resolved right-side layout
		var pairL, pairR, outR []int
		var rSchema *Schema
		seedTbl := newColTable(len(lPos)) // reused by every block
		stopped := false
		dispatch := func(block *ColBatch) {
			if stopped {
				return
			}
			em := acquire()
			if !em.ok() || ctx.Err() != nil {
				pool <- em
				stopped = true
				return
			}
			// Distinct seeds by their join-variable ID tuple; a row with no
			// bound join variable joins with every right solution, so it
			// forces an unconstrained request for the whole block: one seed
			// binding nothing.
			seedTbl.reset()
			for r := 0; r < block.Len; r++ {
				allUnbound := true
				for _, p := range lPos {
					if p >= 0 && block.Cols[p][r] != dict.Unbound {
						allUnbound = false
						break
					}
				}
				if allUnbound {
					seedTbl.reset()
					seedTbl.insertKey(block, r, lPos, 0)
					break
				}
				if h := HashRowKey(block, r, lPos); !seedTbl.contains(block, r, lPos, h) {
					seedTbl.insertKey(block, r, lPos, h)
				}
			}
			// The request keeps its own copy: the response cache keys on it.
			seeds := Seeds{Vars: joinVars, IDs: slices.Clone(seedTbl.data), Rows: seedTbl.len()}
			st.AddBlock()
			go func() {
				defer func() { pool <- em }()
				rs := right(ctx, seeds)
				pmu.Lock()
				if rSchema != rs.Schema() {
					rSchema = rs.Schema()
					pairL, pairR = sharedPairs(left.schema, rSchema, nil)
					outR = rSchema.Positions(out.Vars)
				}
				pL, pR, oR := pairL, pairR, outR
				pmu.Unlock()
				l := joinSide{b: block, pos: outL}
				for rb, ok := rs.Recv(st); ok && em.ok(); rb, ok = rs.Recv(st) {
					r := joinSide{b: rb, pos: oR}
					for rr := 0; rr < rb.Len; rr++ {
						for lr := 0; lr < block.Len; lr++ {
							if compatBB(block, lr, rb, rr, pL, pR) {
								em.pair(l, lr, r, rr)
							}
						}
					}
					em.flushPairs(l, r)
				}
				rs.Drain() // so the service's producer can finish
			}()
		}
		// A received batch is read-only, so a block inside one is a view
		// its request reads while later batches arrive. tail is the view of
		// a batch's last rows still short of a block; it is copied into
		// spanB only once the next batch continues it. A block is sent once
		// the rows in hand reach size, which starts at one row and doubles
		// with every block up to blockSize.
		spanB := NewColBuilderCap(left.schema, blockSize)
		var tail *ColBatch
		size := 1
		for {
			lb, open := left.Recv(st)
			if !open {
				break
			}
			if stopped {
				continue // drain the left so its producer can finish
			}
			if tail != nil {
				for tr := 0; tr < tail.Len; tr++ {
					spanB.AppendRow(tail, tr, ident)
				}
				tail = nil
			}
			r := 0
			for inHand := spanB.Rows() + lb.Len; inHand >= size; inHand = spanB.Rows() + lb.Len - r {
				n := min(blockSize, inHand)
				if spanB.Rows() > 0 {
					for ; spanB.Rows() < n; r++ {
						spanB.AppendRow(lb, r, ident)
					}
					dispatch(spanB.Take())
				} else {
					dispatch(slice(lb, r, r+n))
					r += n
				}
				size = min(2*size, blockSize)
			}
			switch {
			case r < lb.Len && spanB.Rows() > 0:
				for ; r < lb.Len; r++ {
					spanB.AppendRow(lb, r, ident)
				}
			case r < lb.Len:
				tail = slice(lb, r, lb.Len)
			}
		}
		switch {
		case tail != nil:
			dispatch(tail)
		case spanB.Rows() > 0:
			dispatch(spanB.Take())
		}
		for ; made > 0; made-- {
			<-pool // every emitter back: no request is in flight
		}
	}()
	return outS
}

// ScratchEval evaluates row-model filter expressions against columnar
// rows through one reusable scratch binding: only the variables the
// expressions actually reference are materialized, and the map is cleared
// and refilled per row instead of allocated. The wrappers evaluate the
// filters they apply themselves through it too.
type ScratchEval struct {
	exprs []sparql.Expr
	vars  []string
	pos   []int
	m     sparql.Binding
	d     *dict.Dict
}

// NewScratchEval returns the evaluator of exprs over rows laid out as s,
// or nil — which passes every row — when there are no expressions.
func NewScratchEval(exprs []sparql.Expr, s *Schema, d *dict.Dict) *ScratchEval {
	if len(exprs) == 0 {
		return nil
	}
	seen := map[string]bool{}
	var vars []string
	for _, e := range exprs {
		for _, v := range e.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return &ScratchEval{exprs: exprs, vars: vars, pos: s.Positions(vars), m: sparql.NewBinding(), d: d}
}

// passes reports whether the filled binding satisfies every expression.
func (s *ScratchEval) passes(m sparql.Binding) bool {
	for _, e := range s.exprs {
		if !sparql.EvalBool(e, m) {
			return false
		}
	}
	return true
}

// PassesIDs reports whether a raw row in the schema's order satisfies
// every expression.
func (s *ScratchEval) PassesIDs(ids []dict.ID) bool {
	return s == nil || s.passes(s.bindIDs(ids))
}

// bind fills the scratch binding from row r of b (a variable the schema
// does not carry, or an unbound column, stays absent — expression
// evaluation then errors and EvalBool yields false, the row semantics).
func (s *ScratchEval) bind(b *ColBatch, r int) sparql.Binding {
	clear(s.m)
	for i, p := range s.pos {
		if p < 0 {
			continue
		}
		if id := b.Cols[p][r]; id != dict.Unbound {
			s.m[s.vars[i]] = s.d.MustLookup(id)
		}
	}
	return s.m
}

// bindIDs fills the scratch binding from a raw output-schema row.
func (s *ScratchEval) bindIDs(ids []dict.ID) sparql.Binding {
	clear(s.m)
	for i, p := range s.pos {
		if p < 0 {
			continue
		}
		if id := ids[p]; id != dict.Unbound {
			s.m[s.vars[i]] = s.d.MustLookup(id)
		}
	}
	return s.m
}

// CLeftJoin extends every left row with the compatible right rows
// passing the filters, emitting the left row unextended when none match
// (SPARQL OPTIONAL); the right input is materialized.
func CLeftJoin(ctx context.Context, left, right *CStream, filters []sparql.Expr, out *Schema, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		rights := st.collectC(right)
		pairL, pairR := sharedPairs(left.schema, right.schema, nil)
		outL, outR := left.schema.Positions(out.Vars), right.schema.Positions(out.Vars)
		ev := NewScratchEval(filters, out, d)
		merged := make([]dict.ID, len(out.Vars)) // the filters' scratch row
		em := newCEmitter(ctx, outS, batch, st)
		r := joinSide{b: rights, pos: outR}
		for {
			lb, open := left.Recv(st)
			if !open {
				break
			}
			if !em.ok() {
				continue // drain the left so its producer can finish
			}
			l := joinSide{b: lb, pos: outL}
			for lr := 0; lr < lb.Len; lr++ {
				matched := false
				for rr := 0; rr < rights.Len; rr++ {
					if !compatBB(lb, lr, rights, rr, pairL, pairR) {
						continue
					}
					if ev != nil {
						for c := range merged {
							id := dict.Unbound
							if lc := outL[c]; lc >= 0 {
								id = lb.Cols[lc][lr]
							}
							if id == dict.Unbound {
								if rc := outR[c]; rc >= 0 {
									id = rights.Cols[rc][rr]
								}
							}
							merged[c] = id
						}
						if !ev.PassesIDs(merged) {
							continue
						}
					}
					matched = true
					em.pair(l, lr, r, rr)
				}
				if !matched {
					em.pair(l, lr, r, -1)
				}
			}
			em.flushPairs(l, r)
		}
	}()
	return outS
}

// pick returns the rows of b listed in rows (ascending): b itself when
// every row is listed, nil when none is.
func pick(b *ColBatch, rows []int32) *ColBatch {
	switch len(rows) {
	case b.Len:
		return b
	case 0:
		return nil
	}
	return gather(b, rows)
}

// gather returns the rows of b listed in rows, in that order, built
// column by column in one arena of exactly their size.
func gather(b *ColBatch, rows []int32) *ColBatch {
	n := len(rows)
	arena := make([]dict.ID, n*len(b.Cols))
	cols := make([][]dict.ID, len(b.Cols))
	for c, col := range b.Cols {
		kept := arena[c*n : (c+1)*n : (c+1)*n]
		for i, r := range rows {
			kept[i] = col[r]
		}
		cols[c] = kept
	}
	return &ColBatch{Schema: b.Schema, Len: n, Cols: cols}
}

// slice returns rows [from, to) of b as views of its columns.
func slice(b *ColBatch, from, to int) *ColBatch {
	if from == 0 && to == b.Len {
		return b
	}
	cols := make([][]dict.ID, len(b.Cols))
	for c, col := range b.Cols {
		cols[c] = col[from:to:to]
	}
	return &ColBatch{Schema: b.Schema, Len: to - from, Cols: cols}
}

// CFilter keeps the rows satisfying every expression. All-pass batches
// are forwarded without a copy.
func CFilter(ctx context.Context, in *CStream, exprs []sparql.Expr, d *dict.Dict) *CStream {
	if len(exprs) == 0 {
		return in
	}
	ev := NewScratchEval(exprs, in.schema, d)
	var kept []int32
	return in.with(in.schema, StatsFrom(ctx), func(b *ColBatch) (*ColBatch, bool) {
		kept = kept[:0]
		for r := 0; r < b.Len; r++ {
			if ev.passes(ev.bind(b, r)) {
				kept = append(kept, int32(r))
			}
		}
		return pick(b, kept), true
	})
}

// CProject restricts batches to vars. Projection is column selection: a
// projected batch shares the kept columns' backing arrays with its input
// — O(columns) per batch, no per-row work at all. A projected variable
// the input schema does not carry yields an all-unbound column.
func CProject(ctx context.Context, in *CStream, vars []string) *CStream {
	schema := NewSchema(vars)
	pos := in.schema.Positions(vars)
	return in.with(schema, StatsFrom(ctx), func(b *ColBatch) (*ColBatch, bool) {
		return selectCols(b, schema, pos), true
	})
}

// selectCols lays b out as schema by column selection: output column c
// shares the backing array of b's column pos[c]; the columns with
// pos[c] < 0 (variables b does not carry) share one all-unbound column,
// allocated only when there is such a variable. Sharing is sound because
// a batch is read-only once sent.
func selectCols(b *ColBatch, schema *Schema, pos []int) *ColBatch {
	nb := &ColBatch{Schema: schema, Len: b.Len, Cols: make([][]dict.ID, len(pos))}
	var unbound []dict.ID
	for c, p := range pos {
		if p >= 0 {
			nb.Cols[c] = b.Cols[p]
			continue
		}
		if unbound == nil {
			unbound = make([]dict.ID, b.Len)
		}
		nb.Cols[c] = unbound
	}
	return nb
}

// CDistinct drops duplicate rows: the seen-set hashes the full ID tuple
// and verifies collisions against an arena of stored rows — no full-key
// string is ever built.
func CDistinct(ctx context.Context, in *CStream) *CStream {
	allPos := in.schema.Positions(in.schema.Vars)
	seen := newColTable(len(in.schema.Vars))
	var kept []int32
	return in.with(in.schema, StatsFrom(ctx), func(b *ColBatch) (*ColBatch, bool) {
		kept = kept[:0]
		for r := 0; r < b.Len; r++ {
			h := HashRowKey(b, r, allPos)
			if !seen.contains(b, r, allPos, h) {
				seen.insert(b, r, h)
				kept = append(kept, int32(r))
			}
		}
		return pick(b, kept), true
	})
}

// CLimit passes through at most n rows, then ends the stream: its
// consumer sees the end as soon as the n-th row arrives, however much
// the producers still have.
func CLimit(ctx context.Context, in *CStream, n int) *CStream {
	return in.with(in.schema, StatsFrom(ctx), func(b *ColBatch) (*ColBatch, bool) {
		take := min(n, b.Len)
		n -= take
		return slice(b, 0, take), n > 0
	})
}

// COffset skips the first n rows.
func COffset(ctx context.Context, in *CStream, n int) *CStream {
	return in.with(in.schema, StatsFrom(ctx), func(b *ColBatch) (*ColBatch, bool) {
		drop := min(n, b.Len)
		n -= drop
		return slice(b, drop, b.Len), true
	})
}

// CUnion merges the inputs in batch-arrival order, padding each child's
// batches to the union schema by column selection (variables a child does
// not bind stay unbound). A child whose schema already matches forwards
// batches untouched.
func CUnion(ctx context.Context, out *Schema, batch int, ins ...*CStream) *CStream {
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	var wg sync.WaitGroup
	wg.Add(len(ins))
	for _, in := range ins {
		mapping := in.schema.Positions(out.Vars)
		same := len(in.schema.Vars) == len(out.Vars)
		if same {
			for i, p := range mapping {
				if p != i {
					same = false
					break
				}
			}
		}
		go func(in *CStream, mapping []int, same bool) {
			defer wg.Done()
			for {
				b, open := in.Recv(st)
				if !open {
					return
				}
				if !same {
					b = selectCols(b, out, mapping)
				}
				if !st.sendC(ctx, outS, b) {
					in.Drain() // so its producer can finish
					return
				}
			}
		}(in, mapping, same)
	}
	go func() {
		wg.Wait()
		st.close()
		outS.Close()
	}()
	return outS
}

// COrderBy materializes the input and emits it sorted; a blocking
// operator. Only the ORDER BY key columns are materialized to terms —
// the sort permutes row indices, and each output batch is gathered from
// them at its exact size.
func COrderBy(ctx context.Context, in *CStream, keys []sparql.OrderKey, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		all := st.collectC(in)
		// Decode just the key columns (an unbound or uncarried key yields
		// the zero term, exactly like a missing map entry in SortBindings).
		keyTerms := make([][]rdf.Term, len(keys))
		for k, key := range keys {
			terms := make([]rdf.Term, all.Len)
			if p := in.schema.Pos(key.Var); p >= 0 {
				for r := 0; r < all.Len; r++ {
					if id := all.Cols[p][r]; id != dict.Unbound {
						terms[r] = d.MustLookup(id)
					}
				}
			}
			keyTerms[k] = terms
		}
		idx := make([]int32, all.Len)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(i, j int) bool {
			for k, key := range keys {
				c := sparql.CompareOrderTerms(keyTerms[k][idx[i]], keyTerms[k][idx[j]])
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		// Not pick: a permutation listing every row is not the input.
		for from := 0; from < len(idx); from += batch {
			if !st.sendC(ctx, out, gather(all, idx[from:min(from+batch, len(idx))])) {
				return
			}
		}
	}()
	return out
}
