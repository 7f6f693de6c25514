package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/wirefmt"
	"ontario/internal/wrapper"
)

// A task frame opens every task stream. Its payload is binary (wirefmt
// strings, terms and uvarints):
//
//	task  := 'h'                                        (hello: status probe)
//	       | 'j' env joinVars leftVars rightVars outVars (shuffled join)
//	       | 'f' env node                               (plan fragment)
//	node  := 's' source shape seeds | 'j' joinVars node node
//	       | 'F' nexprs expr* node | 'u' nnodes node*
//	shape := the request's canonical form as one string (wrapper.Request.Shape)
//	seeds := 0 | 1 block | 2 block                      (none, per-answer, block)
//	block := vars nrows (0xff | term)*                  (one cell per row and var)
//
// A scan — one wrapper request, seeded or not — is the fragment of one
// 's' leaf. No schema crosses the wire: both ends take a node's output
// schema from the plan node's Vars(), which the canonical shape fixes
// because it keeps the order of stars and patterns. A request's shape is
// serialised once per plan leaf on the coordinator and resolved through
// the worker's shape table, so per task only env and seeds are encoded
// and decoded.
const (
	taskHello byte = 'h'
	taskJoin  byte = 'j'
	taskFrag  byte = 'f'

	fragScan   byte = 's'
	fragJoin   byte = 'j'
	fragFilter byte = 'F'
	fragUnion  byte = 'u'

	seedsNone  byte = 0
	seedsOne   byte = 1
	seedsBlock byte = 2

	seedAbsent byte = 0xff // a row's cell for a variable its seed leaves unbound

	// maxFragDepth bounds fragment-tree recursion against hostile nesting.
	maxFragDepth = 128
)

// task is one decoded task frame.
type task struct {
	kind byte
	env  wireEnv

	// join: symmetric-hash-join the SideLeft/SideRight batches the
	// coordinator shuffles in, streaming joined SideOut batches back.
	joinVars, left, right, out []string

	// frag: a plan subtree run against the worker's partition by the core
	// executor, only its results streamed back — a one-leaf scan, or a
	// co-partitioned join pushed down whole with zero shuffled batches.
	// It is the closed serializable subset of the plan: services,
	// symmetric-hash joins, filters and unions.
	root core.PlanNode
}

// appendFrag serializes a plan subtree for worker-side execution,
// resolving seed IDs through d and erroring on any node kind the fragment
// protocol cannot carry.
func appendFrag(buf []byte, n core.PlanNode, d *dict.Dict) ([]byte, error) {
	var err error
	switch v := n.(type) {
	case *core.ServiceNode:
		shape, err := v.Req.Shape()
		if err != nil {
			return nil, err
		}
		buf = wirefmt.AppendString(wirefmt.AppendString(append(buf, fragScan), v.SourceID), shape)
		return appendSeeds(buf, v.Req, d), nil
	case *core.JoinNode:
		if v.Op != core.JoinSymmetricHash {
			return nil, fmt.Errorf("cluster: fragment cannot carry join operator %v", v.Op)
		}
		buf = wirefmt.AppendStrings(append(buf, fragJoin), v.JoinVars)
		if buf, err = appendFrag(buf, v.L, d); err != nil {
			return nil, err
		}
		return appendFrag(buf, v.R, d)
	case *core.FilterNode:
		buf = binary.AppendUvarint(append(buf, fragFilter), uint64(len(v.Exprs)))
		for _, e := range v.Exprs {
			if buf, err = wrapper.AppendExpr(buf, e); err != nil {
				return nil, err
			}
		}
		return appendFrag(buf, v.Child, d)
	case *core.UnionNode:
		buf = binary.AppendUvarint(append(buf, fragUnion), uint64(len(v.Children)))
		for _, c := range v.Children {
			if buf, err = appendFrag(buf, c, d); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("cluster: plan node %T is not fragment-serializable", n)
	}
}

// seededLeaf is a decoded leaf whose seed section waits to be interned.
type seededLeaf struct {
	svc *core.ServiceNode
	sec *seedSection
}

// readFrag decodes a fragment tree into plan nodes, resolving each leaf's
// shape through the table and collecting its seed section into seeded, so
// that no term is interned before the whole frame has parsed.
func readFrag(c *wirefmt.Cursor, shapes *wrapper.ShapeTable, depth int, seeded *[]seededLeaf) core.PlanNode {
	if depth > maxFragDepth {
		c.Fail("fragment nested deeper than %d", maxFragDepth)
		return nil
	}
	switch kind := c.Byte(); kind {
	case fragScan:
		svc := &core.ServiceNode{SourceID: c.String()}
		shape := c.Bytes(c.Count())
		if c.Err != nil {
			return nil
		}
		req, err := shapes.Resolve(shape)
		if err != nil {
			c.Fail("request shape: %v", err)
			return nil
		}
		svc.Req = req
		if sec := readSeeds(c); sec != nil {
			*seeded = append(*seeded, seededLeaf{svc, sec})
		}
		return svc
	case fragJoin:
		return &core.JoinNode{
			JoinVars: c.Strings(),
			Op:       core.JoinSymmetricHash,
			L:        readFrag(c, shapes, depth+1, seeded),
			R:        readFrag(c, shapes, depth+1, seeded),
		}
	case fragFilter:
		f := &core.FilterNode{}
		for i, ne := 0, c.Count(); i < ne && c.Err == nil; i++ {
			f.Exprs = append(f.Exprs, wrapper.ReadExpr(c))
		}
		f.Child = readFrag(c, shapes, depth+1, seeded)
		return f
	case fragUnion:
		u := &core.UnionNode{}
		nc := c.Count()
		if nc == 0 {
			c.Fail("fragment union without children")
		}
		for i := 0; i < nc && c.Err == nil; i++ {
			u.Children = append(u.Children, readFrag(c, shapes, depth+1, seeded))
		}
		return u
	default:
		c.Fail("unknown fragment kind 0x%02x", kind)
		return nil
	}
}

// wireEnv ships the execution-shaping slice of core.Options plus the
// simulation parameters a worker needs to reproduce the coordinator's
// behavior on its partition.
type wireEnv struct {
	Network     string
	Alpha, Beta float64
	Batch       int
	Scale       float64
	Seed        int64
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func readFloat(c *wirefmt.Cursor) float64 {
	b := c.Bytes(8)
	if c.Err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func appendEnv(buf []byte, env core.FragmentEnv) []byte {
	buf = wirefmt.AppendString(buf, env.Opts.Network.Name)
	buf = appendFloat(appendFloat(buf, env.Opts.Network.Alpha), env.Opts.Network.Beta)
	buf = binary.AppendVarint(buf, int64(env.Opts.BatchSize))
	return binary.AppendVarint(appendFloat(buf, env.Scale), env.Seed)
}

func readEnv(c *wirefmt.Cursor) wireEnv {
	return wireEnv{
		Network: c.String(),
		Alpha:   readFloat(c),
		Beta:    readFloat(c),
		Batch:   int(c.Varint()),
		Scale:   readFloat(c),
		Seed:    c.Varint(),
	}
}

func (we wireEnv) options() core.Options {
	return core.Options{
		Network:   netsim.Profile{Name: we.Network, Alpha: we.Alpha, Beta: we.Beta},
		BatchSize: we.Batch,
	}
}

// appendSeeds writes req's seed section: the seeds' variable names once,
// then one cell per seed and variable, resolving each ID through d (the
// coordinator's dictionary the seeds were drawn from).
func appendSeeds(buf []byte, req *wrapper.Request, d *dict.Dict) []byte {
	switch {
	case req.Block:
		buf = append(buf, seedsBlock)
	case req.Seeds.Rows > 0:
		buf = append(buf, seedsOne)
	default:
		return append(buf, seedsNone)
	}
	buf = wirefmt.AppendStrings(buf, req.Seeds.Vars)
	buf = binary.AppendUvarint(buf, uint64(req.Seeds.Rows))
	for _, id := range req.Seeds.IDs {
		if id == dict.Unbound {
			buf = append(buf, seedAbsent)
		} else {
			buf = wirefmt.AppendTerm(buf, d.MustLookup(id))
		}
	}
	return buf
}

// seedSection is a decoded seed section whose terms are not yet interned:
// the worker's dictionary only takes them once the whole header has
// parsed, so a rejected frame leaves nothing behind.
type seedSection struct {
	block bool
	vars  []string
	rows  int
	cells []rdf.Term // row-major; Kind cellAbsent where a seed leaves its variable unbound
}

// cellAbsent marks an unbound cell; no decoded term has this kind.
const cellAbsent rdf.TermKind = 0xff

// readSeeds reads a seed section (nil for none).
func readSeeds(c *wirefmt.Cursor) *seedSection {
	form := c.Byte()
	if form == seedsNone || c.Err != nil {
		return nil
	}
	if form > seedsBlock {
		c.Fail("unknown seed section form %d", form)
		return nil
	}
	vars := c.Strings()
	for i, v := range vars {
		if slices.Contains(vars[:i], v) {
			c.Fail("seed section repeats variable ?%s", v)
		}
	}
	nrows := c.Uvarint()
	// A row is one cell per variable and a cell at least one byte; rows of
	// a block binding no variable take no bytes, so they get the batch row
	// limit instead.
	if nrows > maxWireRows || nrows*uint64(len(vars)) > uint64(c.Rest()) {
		c.Fail("seed block of %d rows exceeds payload", nrows)
	}
	if form == seedsOne && nrows != 1 {
		c.Fail("per-answer seed section with %d rows", nrows)
	}
	if c.Err != nil {
		return nil
	}
	sec := &seedSection{block: form == seedsBlock, vars: vars, rows: int(nrows), cells: make([]rdf.Term, int(nrows)*len(vars))}
	for i := range sec.cells {
		if c.Rest() > 0 && c.P[c.Off] == seedAbsent {
			c.Off++
			sec.cells[i].Kind = cellAbsent
			continue
		}
		sec.cells[i] = c.Term()
	}
	return sec
}

// bind interns the section's terms into d and returns the seeded form of
// the resolved shape.
func (sec *seedSection) bind(shape *wrapper.Request, d *dict.Dict) *wrapper.Request {
	seeds := engine.Seeds{Vars: sec.vars, IDs: make([]dict.ID, len(sec.cells)), Rows: sec.rows}
	for i, t := range sec.cells {
		if t.Kind != cellAbsent {
			seeds.IDs[i] = d.Intern(t)
		}
	}
	return shape.WithSeeds(seeds, sec.block)
}

// appendJoinTask builds the task frame for a shuffled symmetric hash join.
func appendJoinTask(buf []byte, joinVars, left, right, out []string, env core.FragmentEnv) []byte {
	buf = appendEnv(append(buf, taskJoin), env)
	for _, vars := range [][]string{joinVars, left, right, out} {
		buf = wirefmt.AppendStrings(buf, vars)
	}
	return buf
}

// appendFragTask builds the task frame for a plan subtree whose seed IDs
// belong to d.
func appendFragTask(buf []byte, root core.PlanNode, d *dict.Dict, env core.FragmentEnv) ([]byte, error) {
	return appendFrag(appendEnv(append(buf, taskFrag), env), root, d)
}

// parseTask decodes a task frame's payload, resolving request shapes
// through the worker's shape table and interning seed terms straight into
// d's IDs. Anything malformed — an unknown kind or tag, a truncated
// section, trailing bytes — is an error; only shapes that decoded are
// remembered, and only a header that parsed whole interns its seeds.
func parseTask(p []byte, shapes *wrapper.ShapeTable, d *dict.Dict) (*task, error) {
	c := &wirefmt.Cursor{P: p}
	t := &task{kind: c.Byte()}
	var seeded []seededLeaf
	switch t.kind {
	case taskHello:
	case taskJoin:
		t.env = readEnv(c)
		t.joinVars, t.left, t.right, t.out = c.Strings(), c.Strings(), c.Strings(), c.Strings()
	case taskFrag:
		t.env = readEnv(c)
		t.root = readFrag(c, shapes, 0, &seeded)
	default:
		c.Fail("unknown task kind 0x%02x", t.kind)
	}
	if c.Err == nil && c.Rest() != 0 {
		c.Fail("%d trailing bytes after task header", c.Rest())
	}
	if c.Err != nil {
		return nil, c.Err
	}
	for _, l := range seeded {
		l.svc.Req = l.sec.bind(l.svc.Req, d)
	}
	return t, nil
}

// WorkerInfo is a worker's hello/health reply: its session epoch,
// partition identity and shuffle counters, surfaced through the
// coordinator's /healthz and /metrics. The link handshake carries one
// proactively on stream 0 of every accepted connection.
type WorkerInfo struct {
	// Epoch identifies the worker process session: it changes on every
	// restart, so a coordinator can tell a reconnect to the same session
	// from one to a reborn worker whose remap state is gone.
	Epoch     int64 `json:"epoch"`
	Partition int   `json:"partition"`
	Of        int   `json:"of"`
	// Scheme is the partitioning function recorded on every source of the
	// worker's catalog ("subject"), or empty when the catalog is not
	// uniformly partitioned; the coordinator only pushes co-partitioned
	// joins when all workers agree on it.
	Scheme          string `json:"scheme,omitempty"`
	Active          int64  `json:"active_fragments"`
	Queued          int64  `json:"queued_fragments"`
	BatchesIn       int64  `json:"batches_in"`
	BatchesOut      int64  `json:"batches_out"`
	BytesIn         int64  `json:"bytes_in"`
	BytesOut        int64  `json:"bytes_out"`
	ShuffledBatches int64  `json:"shuffled_batches"`
	ShuffledBytes   int64  `json:"shuffled_bytes"`
	DictDeltaBytes  int64  `json:"dict_delta_bytes"`
	// RemapEntries sums the live links' current remap-table sizes (per
	// persistent link, not cumulative across finished tasks).
	RemapEntries int64 `json:"remap_entries"`
	Terms        int   `json:"terms"`
	// The worker's response cache (requests replayed, evaluated, entries
	// evicted and live) and the size of its task-header shape table.
	CacheHits      int64 `json:"response_cache_hits"`
	CacheMisses    int64 `json:"response_cache_misses"`
	CacheEvictions int64 `json:"response_cache_evictions"`
	CacheEntries   int   `json:"response_cache_entries"`
	Shapes         int   `json:"shapes"`
}
