package engine

import (
	"context"
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

// colTable is a hash table over dictionary-encoded rows: the rows are
// stored flattened (stride IDs per row) in one arena, and the buckets map
// a key hash to row indices. Collisions are resolved by the caller
// comparing the key columns of the candidate rows. Owned by one goroutine.
type colTable struct {
	stride  int
	rows    int
	data    []dict.ID
	buckets map[uint64][]int32
}

func newColTable(stride int) *colTable {
	return &colTable{stride: stride, buckets: make(map[uint64][]int32)}
}

// insert appends row r of b and returns its index. A zero-column schema
// (a cross-product input binding nothing) still counts rows: every row
// gets its own index, so the cross product multiplies correctly.
func (t *colTable) insert(b *ColBatch, r int, h uint64) int32 {
	idx := int32(t.rows)
	t.rows++
	for c := 0; c < t.stride; c++ {
		t.data = append(t.data, b.Cols[c][r])
	}
	t.buckets[h] = append(t.buckets[h], idx)
	return idx
}

// insertKey appends the projection of row r of b onto the key columns
// pos (-1 stores Unbound) — a table of keys, not rows, with stride
// len(pos) — and returns its index.
func (t *colTable) insertKey(b *ColBatch, r int, pos []int, h uint64) int32 {
	idx := int32(t.rows)
	t.rows++
	for _, p := range pos {
		id := dict.Unbound
		if p >= 0 {
			id = b.Cols[p][r]
		}
		t.data = append(t.data, id)
	}
	t.buckets[h] = append(t.buckets[h], idx)
	return idx
}

// contains reports whether a stored row equals the columns pos of row r of
// b, h being their hash; the stored rows hold exactly those columns, in
// pos order (full rows under the identity mapping, or insertKey's keys).
func (t *colTable) contains(b *ColBatch, r int, pos []int, h uint64) bool {
	for _, si := range t.buckets[h] {
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

// cEmitter is the shared output side of the batch-building operators: it
// accumulates result rows and forwards them as batches of at most size.
// After a failed send (context cancelled) it goes dead — every further
// append/flush is a cheap no-op and ok() reports false — so callers fall
// through to draining their inputs without special-casing dropped
// batches. Not safe for concurrent use; concurrent producers (block bind
// join dispatches, hash-join shard workers) each own one emitter. Sends
// are accounted to st (nil records nothing).
type cEmitter struct {
	ctx  context.Context
	out  *CStream
	size int
	st   *OpStats
	b    *ColBuilder
	dead bool
}

func newCEmitter(ctx context.Context, out *CStream, size int, st *OpStats) *cEmitter {
	return &cEmitter{ctx: ctx, out: out, size: size, st: st, b: NewColBuilderCap(out.schema, size)}
}

func (e *cEmitter) ok() bool { return !e.dead }

func (e *cEmitter) full() {
	if e.b.Rows() >= e.size {
		e.flush()
	}
}

// row forwards one row of b mapped into the output schema.
func (e *cEmitter) row(b *ColBatch, r int, mapping []int) {
	if e.dead {
		return
	}
	e.b.AppendRow(b, r, mapping)
	e.full()
}

// ids forwards one row given directly as output-schema IDs.
func (e *cEmitter) ids(ids []dict.ID) {
	if e.dead {
		return
	}
	e.b.AppendIDs(ids)
	e.full()
}

// merge forwards the merge of two batch rows (left wins when bound).
func (e *cEmitter) merge(l *ColBatch, lr int, lmap []int, r *ColBatch, rr int, rmap []int) {
	if e.dead {
		return
	}
	e.b.AppendMerged(l, lr, lmap, r, rr, rmap)
	e.full()
}

// mergeBT forwards the merge of a batch row (left side) with a stored
// table row (right side).
func (e *cEmitter) mergeBT(l *ColBatch, lr int, lmap []int, t *colTable, tr int32, tmap []int) {
	if e.dead {
		return
	}
	row := e.b.growRow()
	for c := range e.b.cols {
		id := dict.Unbound
		if lc := lmap[c]; lc >= 0 {
			id = l.Cols[lc][lr]
		}
		if id == dict.Unbound {
			if tc := tmap[c]; tc >= 0 {
				id = t.id(tr, tc)
			}
		}
		e.b.cols[c][row] = id
	}
	e.full()
}

// mergeTB forwards the merge of a stored table row (left side) with a
// batch row (right side).
func (e *cEmitter) mergeTB(t *colTable, tr int32, tmap []int, r *ColBatch, rr int, rmap []int) {
	if e.dead {
		return
	}
	row := e.b.growRow()
	for c := range e.b.cols {
		id := dict.Unbound
		if tc := tmap[c]; tc >= 0 {
			id = t.id(tr, tc)
		}
		if id == dict.Unbound {
			if rc := rmap[c]; rc >= 0 {
				id = r.Cols[rc][rr]
			}
		}
		e.b.cols[c][row] = id
	}
	e.full()
}

// flush forwards the buffered partial batch (typically at a morsel or
// input-batch boundary, keeping answers streaming).
func (e *cEmitter) flush() {
	if e.b.Rows() == 0 {
		return
	}
	batch := e.b.Take()
	if e.dead {
		return
	}
	if !e.st.sendC(e.ctx, e.out, batch) {
		e.dead = true
	}
}

// cMorsel is one partitioned fragment of an input batch with its join-key
// hashes precomputed by the reader.
type cMorsel struct {
	fromLeft bool
	hashes   []uint64
	batch    *ColBatch
}

// CSymmetricHashJoin joins two streams on joinVars without blocking: each
// arriving row is inserted into its side's hash table and immediately
// probed against the other side's table, so answers are emitted as soon as
// both matching inputs have arrived (the adaptive operator ANAPSID calls
// agjoin). The shard hash, the bucket key and the compatibility check all
// operate on raw dictionary IDs — no string key is ever built.
//
// The hash tables are sharded by join-key hash across par probe workers,
// morsel-style: each input batch is partitioned by key hash and each
// fragment is handed to the worker owning that shard. A worker owns its
// shard's two hash tables exclusively, so insert and probe run without any
// lock. par <= 1 degrades to a single worker; when joinVars is empty every
// row lands in one shard and the operator degrades to a cross product. out
// is the operator's output schema (the plan node's variables); batch
// bounds the output batches (<= 0 means DefaultBatchSize).
func CSymmetricHashJoin(ctx context.Context, left, right *CStream, joinVars []string, out *Schema, par, batch int) *CStream {
	if par < 1 {
		par = 1
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))

	lKey := left.schema.Positions(joinVars)
	rKey := right.schema.Positions(joinVars)
	pairL, pairR := sharedPairs(left.schema, right.schema, joinVars)
	outL, outR := left.schema.Positions(out.Vars), right.schema.Positions(out.Vars)

	shardCh := make([]chan cMorsel, par)
	for i := range shardCh {
		shardCh[i] = make(chan cMorsel, 2)
	}

	var workers sync.WaitGroup
	workers.Add(par)
	for i := 0; i < par; i++ {
		go func(in <-chan cMorsel) {
			defer workers.Done()
			leftTbl := newColTable(len(left.schema.Vars))
			rightTbl := newColTable(len(right.schema.Vars))
			em := newCEmitter(ctx, outS, batch, st)
			for m := range in {
				if !em.ok() {
					continue // keep consuming so the readers can finish
				}
				st.addHashEntries(m.batch.Len)
				if m.fromLeft {
					for r := 0; r < m.batch.Len; r++ {
						h := m.hashes[r]
						leftTbl.insert(m.batch, r, h)
						for _, oi := range rightTbl.buckets[h] {
							if !keysEqualBT(m.batch, r, lKey, rightTbl, oi, rKey) {
								continue
							}
							if !compatBT(m.batch, r, pairL, rightTbl, oi, pairR) {
								continue
							}
							em.mergeBT(m.batch, r, outL, rightTbl, oi, outR)
						}
					}
				} else {
					for r := 0; r < m.batch.Len; r++ {
						h := m.hashes[r]
						rightTbl.insert(m.batch, r, h)
						for _, oi := range leftTbl.buckets[h] {
							if !keysEqualBT(m.batch, r, rKey, leftTbl, oi, lKey) {
								continue
							}
							if !compatBT(m.batch, r, pairR, leftTbl, oi, pairL) {
								continue
							}
							em.mergeTB(leftTbl, oi, outL, m.batch, r, outR)
						}
					}
				}
				em.flush() // morsel boundary: keep answers streaming
			}
		}(shardCh[i])
	}

	var readers sync.WaitGroup
	readers.Add(2)
	consume := func(in *CStream, keyPos []int, fromLeft bool) {
		defer readers.Done()
		ident := in.schema.Positions(in.schema.Vars)
		for {
			b, open := in.Recv(st)
			if !open {
				return
			}
			hashes := make([]uint64, b.Len)
			for r := 0; r < b.Len; r++ {
				hashes[r] = HashRowKey(b, r, keyPos)
			}
			if par == 1 {
				shardCh[0] <- cMorsel{fromLeft: fromLeft, hashes: hashes, batch: b}
				continue
			}
			parts := make([]*ColBuilder, par)
			partHashes := make([][]uint64, par)
			for r := 0; r < b.Len; r++ {
				s := int(hashes[r] % uint64(par))
				if parts[s] == nil {
					parts[s] = NewColBuilder(in.schema)
				}
				parts[s].AppendRow(b, r, ident)
				partHashes[s] = append(partHashes[s], hashes[r])
			}
			for s := range parts {
				if parts[s] != nil {
					shardCh[s] <- cMorsel{fromLeft: fromLeft, hashes: partHashes[s], batch: parts[s].Take()}
				}
			}
		}
	}

	go consume(left, lKey, true)
	go consume(right, rKey, false)
	go func() {
		readers.Wait()
		for _, ch := range shardCh {
			close(ch)
		}
		workers.Wait()
		st.close()
		outS.Close()
	}()
	return outS
}

// CService produces a columnar stream for a request instantiated with one
// seed (Rows == 1): the left row's join-variable IDs, handed to the
// wrapper as they are — a request the response cache answers never turns
// them into terms.
type CService func(ctx context.Context, seed Seeds) *CStream

// CBindJoin is a dependent (nested-loop) join: per left row it extracts
// the join variables' IDs as a seed, invokes the right service
// instantiated with it and merges the compatible results. It trades
// per-answer requests for smaller transfers. Results trickle in per
// sequential service call, so the output is batched like a leaf
// producer's: a ColWriter accumulates across seeds and its flush interval
// preserves time-to-first-answer while service calls are slow. After a
// failed send the output is abandoned: the join stops invoking the right
// service but keeps draining the left (and any in-flight right) stream so
// producers can finish.
func CBindJoin(ctx context.Context, left *CStream, right CService, joinVars []string, out *Schema, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		lPos := left.schema.Positions(joinVars)
		outL := left.schema.Positions(out.Vars)
		w := NewColWriter(ctx, outS, batch)
		w.SetStats(st)
		defer w.Close()
		cancelled := false
		var pairL, pairR, outR []int
		var rSchema *Schema
		for {
			lb, open := left.Recv(st)
			if !open {
				break
			}
			for lr := 0; lr < lb.Len; lr++ {
				if cancelled {
					continue
				}
				seed := Seeds{Vars: joinVars, IDs: make([]dict.ID, len(lPos)), Rows: 1}
				for i, p := range lPos {
					if p >= 0 {
						seed.IDs[i] = lb.Cols[p][lr]
					}
				}
				st.AddBlock()
				rs := right(ctx, seed)
				if rSchema != rs.Schema() {
					// Resolve the right-side layout once per distinct schema
					// (service streams share one schema per plan node).
					rSchema = rs.Schema()
					pairL, pairR = sharedPairs(left.schema, rSchema, nil)
					outR = rSchema.Positions(out.Vars)
				}
				for rb, ok := rs.Recv(st); ok && !cancelled; rb, ok = rs.Recv(st) {
					for rr := 0; rr < rb.Len && !cancelled; rr++ {
						if compatBB(lb, lr, rb, rr, pairL, pairR) && !w.AppendMerged(lb, lr, outL, rb, rr, outR) {
							cancelled = true
						}
					}
				}
				rs.Drain()
			}
		}
	}()
	return outS
}

// CBlockService produces a stream for a request instantiated with a whole
// block of seeds in a single invocation; it abstracts a multi-seed wrapper
// call for the block bind join. The service returns the union of the right
// solutions compatible with at least one seed, each underlying solution
// exactly once and NOT merged with the seeds (the solutions bind the join
// variables themselves, so the join matches them back to the block's left
// rows by compatibility). A seed binding none of the variables (all
// Unbound) leaves the request unconstrained.
type CBlockService func(ctx context.Context, seeds Seeds) *CStream

// CBlockBindJoin is the block-based variant of CBindJoin (the FedX/ANAPSID
// lineage "bound join"): left rows are gathered into blocks of blockSize,
// each block's distinct seeds (deduplicated on raw ID tuples, which are
// handed over as the block's Seeds) are pushed to the right service in
// ONE invocation — and hence one simulated network message — and up to
// concurrency block requests are in flight at once.
// Output stays streaming: a block's answers are emitted as soon as its
// service call returns, independent of later blocks. When joinVars is
// empty the operator degrades to a cross product, like its sequential
// counterpart.
func CBlockBindJoin(ctx context.Context, left *CStream, right CBlockService, joinVars []string, out *Schema, blockSize, concurrency, batch int) *CStream {
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
		sem := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		var pmu sync.Mutex // guards the lazily resolved right-side layout
		var pairL, pairR, outR []int
		var rSchema *Schema
		dispatch := func(block *ColBatch) {
			// Distinct seeds by their join-variable ID tuple; a row with no
			// bound join variable joins with every right solution, so it
			// forces an unconstrained request for the whole block: one seed
			// binding nothing.
			seedTbl := newColTable(len(lPos))
			seedTbl.data = make([]dict.ID, 0, block.Len*len(lPos))
			for r := 0; r < block.Len; r++ {
				allUnbound := true
				for _, p := range lPos {
					if p >= 0 && block.Cols[p][r] != dict.Unbound {
						allUnbound = false
						break
					}
				}
				if allUnbound {
					seedTbl = newColTable(len(lPos))
					seedTbl.insertKey(block, r, lPos, 0)
					break
				}
				if h := HashRowKey(block, r, lPos); !seedTbl.contains(block, r, lPos, h) {
					seedTbl.insertKey(block, r, lPos, h)
				}
			}
			seeds := Seeds{Vars: joinVars, IDs: seedTbl.data, Rows: seedTbl.rows}
			sem <- struct{}{}
			wg.Add(1)
			st.AddBlock()
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				em := newCEmitter(ctx, outS, batch, st)
				rs := right(ctx, seeds)
				pmu.Lock()
				if rSchema != rs.Schema() {
					rSchema = rs.Schema()
					pairL, pairR = sharedPairs(left.schema, rSchema, nil)
					outR = rSchema.Positions(out.Vars)
				}
				pL, pR, oR := pairL, pairR, outR
				pmu.Unlock()
				for rb, ok := rs.Recv(st); ok && em.ok(); rb, ok = rs.Recv(st) {
					for rr := 0; rr < rb.Len; rr++ {
						for lr := 0; lr < block.Len; lr++ {
							if compatBB(block, lr, rb, rr, pL, pR) {
								em.merge(block, lr, outL, rb, rr, oR)
							}
						}
					}
					em.flush()
				}
				rs.Drain() // so the service's producer can finish
			}()
		}
		blockB := NewColBuilder(left.schema)
		for {
			lb, open := left.Recv(st)
			if !open {
				break
			}
			for r := 0; r < lb.Len; r++ {
				blockB.AppendRow(lb, r, ident)
				if blockB.Rows() >= blockSize {
					dispatch(blockB.Take())
				}
			}
		}
		if blockB.Rows() > 0 {
			dispatch(blockB.Take())
		}
		wg.Wait()
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
		merged := make([]dict.ID, len(out.Vars))
		em := newCEmitter(ctx, outS, batch, st)
		for {
			lb, open := left.Recv(st)
			if !open {
				break
			}
			if !em.ok() {
				continue // drain the left so its producer can finish
			}
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
						matched = true
						em.ids(merged)
						continue
					}
					matched = true
					em.merge(lb, lr, outL, rights, rr, outR)
				}
				if !matched {
					em.row(lb, lr, outL)
				}
			}
			em.flush()
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
	cols := make([][]dict.ID, len(b.Cols))
	for c, col := range b.Cols {
		kept := make([]dict.ID, len(rows))
		for i, r := range rows {
			kept[i] = col[r]
		}
		cols[c] = kept
	}
	return &ColBatch{Schema: b.Schema, Len: len(rows), Cols: cols}
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
		nb := &ColBatch{Schema: schema, Len: b.Len, Cols: make([][]dict.ID, len(vars))}
		for c, p := range pos {
			if p >= 0 {
				nb.Cols[c] = b.Cols[p]
			} else {
				nb.Cols[c] = make([]dict.ID, b.Len)
			}
		}
		return nb, true
	})
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
// batches to the union schema (variables a child does not bind stay
// unbound). A child whose schema already matches forwards batches
// untouched.
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
					nb := NewColBuilder(out)
					for r := 0; r < b.Len; r++ {
						nb.AppendRow(b, r, mapping)
					}
					b = nb.Take()
					b.Schema = out
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
// the sort permutes row indices and the output is rebuilt from IDs.
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
		ident := in.schema.Positions(in.schema.Vars)
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
		idx := make([]int, all.Len)
		for i := range idx {
			idx[i] = i
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
		nb := NewColBuilder(in.schema)
		for _, r := range idx {
			nb.AppendRow(all, r, ident)
			if nb.Rows() >= batch {
				if !st.sendC(ctx, out, nb.Take()) {
					return
				}
			}
		}
		if nb.Rows() > 0 {
			st.sendC(ctx, out, nb.Take())
		}
	}()
	return out
}
