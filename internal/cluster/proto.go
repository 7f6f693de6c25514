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
	"ontario/internal/sparql"
	"ontario/internal/wirefmt"
	"ontario/internal/wrapper"
)

// A task frame opens every task stream. Its payload is binary (wirefmt
// strings, terms and uvarints):
//
//	task  := 'h'                                        (hello: status probe)
//	       | 's' env source vars shape seeds            (scan)
//	       | 'j' env joinVars leftVars rightVars outVars (join)
//	       | 'f' env node                               (frag)
//	node  := 's' vars source shape | 'j' vars joinVars node node
//	       | 'F' vars nexprs expr* node | 'u' vars nnodes node*
//	shape := the request's canonical form as one string (wrapper.Request.Shape)
//	seeds := 0 | 1 block | 2 block                      (none, per-answer, block)
//	block := vars nrows (0xff | term)*                  (one cell per row and var)
//
// A request's shape — stars and pushed filters — is serialised once per
// plan leaf on the coordinator and resolved through the worker's shape
// table, so per task only env, schema and seeds are encoded and decoded.
const (
	taskHello byte = 'h'
	taskScan  byte = 's'
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

	// scan: one wrapper request against the worker's partition of a source,
	// result batches streamed back as SideOut over schema.
	source string
	schema []string
	req    *wrapper.Request

	// join: symmetric-hash-join the SideLeft/SideRight batches the
	// coordinator shuffles in, streaming joined SideOut batches back.
	joinVars, left, right, out []string

	// frag: a whole serializable plan subtree — a co-partitioned join
	// pushdown — run against the worker's partition, only the local results
	// streamed back: zero shuffled batches.
	root *fragNode
}

// fragNode is the closed serializable subset of the plan AST a
// co-partitioned fragment can contain: single-star scans, symmetric-hash
// joins, filters and unions. appendFrag proves membership; anything else
// stays on the coordinator.
type fragNode struct {
	kind     byte
	vars     []string // the node's output schema
	source   string   // scan
	req      *wrapper.Request
	joinVars []string
	filters  []sparql.Expr
	children []*fragNode // join: left, right; filter: one; union: one or more
}

// appendShape writes req's canonical stars-and-filters form.
func appendShape(buf []byte, req *wrapper.Request) ([]byte, error) {
	shape, err := req.Shape()
	if err != nil {
		return nil, err
	}
	return wirefmt.AppendString(buf, shape), nil
}

// appendFrag serializes a plan subtree for worker-side execution,
// erroring on any node kind the fragment protocol cannot carry.
func appendFrag(buf []byte, n core.PlanNode) ([]byte, error) {
	var err error
	switch v := n.(type) {
	case *core.ServiceNode:
		buf = wirefmt.AppendStrings(append(buf, fragScan), v.Vars())
		buf = wirefmt.AppendString(buf, v.SourceID)
		return appendShape(buf, v.Req)
	case *core.JoinNode:
		if v.Op != core.JoinSymmetricHash {
			return nil, fmt.Errorf("cluster: fragment cannot carry join operator %v", v.Op)
		}
		buf = wirefmt.AppendStrings(append(buf, fragJoin), v.Vars())
		buf = wirefmt.AppendStrings(buf, v.JoinVars)
		if buf, err = appendFrag(buf, v.L); err != nil {
			return nil, err
		}
		return appendFrag(buf, v.R)
	case *core.FilterNode:
		buf = wirefmt.AppendStrings(append(buf, fragFilter), v.Vars())
		buf = binary.AppendUvarint(buf, uint64(len(v.Exprs)))
		for _, e := range v.Exprs {
			if buf, err = wrapper.AppendExpr(buf, e); err != nil {
				return nil, err
			}
		}
		return appendFrag(buf, v.Child)
	case *core.UnionNode:
		buf = wirefmt.AppendStrings(append(buf, fragUnion), v.Vars())
		buf = binary.AppendUvarint(buf, uint64(len(v.Children)))
		for _, c := range v.Children {
			if buf, err = appendFrag(buf, c); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("cluster: plan node %T is not fragment-serializable", n)
	}
}

// readScan reads a scan's schema, source and shape, resolving the shape
// through the table and rejecting a schema the shape cannot fill: a
// duplicated variable or one no star binds.
func readScan(c *wirefmt.Cursor, shapes *wrapper.ShapeTable) (vars []string, source string, req *wrapper.Request) {
	vars = c.Strings()
	source = c.String()
	shape := c.Bytes(c.Count())
	if c.Err != nil {
		return nil, "", nil
	}
	req, err := shapes.Resolve(shape)
	if err != nil {
		c.Fail("request shape: %v", err)
		return nil, "", nil
	}
	for i, v := range vars {
		if !req.Binds(v) {
			c.Fail("schema variable ?%s is not bound by the request", v)
		}
		for _, u := range vars[:i] {
			if u == v {
				c.Fail("schema repeats variable ?%s", v)
			}
		}
	}
	return vars, source, req
}

func readFrag(c *wirefmt.Cursor, shapes *wrapper.ShapeTable, depth int) *fragNode {
	if depth > maxFragDepth {
		c.Fail("fragment nested deeper than %d", maxFragDepth)
		return nil
	}
	n := &fragNode{kind: c.Byte()}
	switch n.kind {
	case fragScan:
		n.vars, n.source, n.req = readScan(c, shapes)
	case fragJoin:
		n.vars, n.joinVars = c.Strings(), c.Strings()
		n.children = []*fragNode{readFrag(c, shapes, depth+1), readFrag(c, shapes, depth+1)}
	case fragFilter:
		n.vars = c.Strings()
		for i, ne := 0, c.Count(); i < ne && c.Err == nil; i++ {
			n.filters = append(n.filters, wrapper.ReadExpr(c))
		}
		n.children = []*fragNode{readFrag(c, shapes, depth+1)}
	case fragUnion:
		n.vars = c.Strings()
		nc := c.Count()
		if nc == 0 {
			c.Fail("fragment union without children")
		}
		for i := 0; i < nc && c.Err == nil; i++ {
			n.children = append(n.children, readFrag(c, shapes, depth+1))
		}
	default:
		c.Fail("unknown fragment kind 0x%02x", n.kind)
	}
	return n
}

// wireEnv ships the execution-shaping slice of core.Options plus the
// simulation parameters a worker needs to reproduce the coordinator's
// behavior on its partition.
type wireEnv struct {
	Network     string
	Alpha, Beta float64
	Naive       bool
	Batch, Par  int
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
	var naive byte
	if env.Opts.Translation == wrapper.TranslationNaive {
		naive = 1
	}
	buf = append(buf, naive)
	buf = binary.AppendVarint(buf, int64(env.Opts.BatchSize))
	buf = binary.AppendVarint(buf, int64(env.Opts.ProbeParallelism))
	return binary.AppendVarint(appendFloat(buf, env.Scale), env.Seed)
}

func readEnv(c *wirefmt.Cursor) wireEnv {
	return wireEnv{
		Network: c.String(),
		Alpha:   readFloat(c),
		Beta:    readFloat(c),
		Naive:   c.Byte() != 0,
		Batch:   int(c.Varint()),
		Par:     int(c.Varint()),
		Scale:   readFloat(c),
		Seed:    c.Varint(),
	}
}

func (we wireEnv) options() core.Options {
	opts := core.Options{
		Network:          netsim.Profile{Name: we.Network, Alpha: we.Alpha, Beta: we.Beta},
		BatchSize:        we.Batch,
		ProbeParallelism: we.Par,
	}
	if we.Naive {
		opts.Translation = wrapper.TranslationNaive
	}
	return opts
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

// appendScanTask builds the task frame for one wrapper request whose seed
// IDs belong to d.
func appendScanTask(buf []byte, sourceID string, req *wrapper.Request, schema []string, d *dict.Dict, env core.FragmentEnv) ([]byte, error) {
	buf = appendEnv(append(buf, taskScan), env)
	buf = wirefmt.AppendStrings(buf, schema)
	buf = wirefmt.AppendString(buf, sourceID)
	buf, err := appendShape(buf, req)
	if err != nil {
		return nil, err
	}
	return appendSeeds(buf, req, d), nil
}

// appendJoinTask builds the task frame for a shuffled symmetric hash join.
func appendJoinTask(buf []byte, joinVars, left, right, out []string, env core.FragmentEnv) []byte {
	buf = appendEnv(append(buf, taskJoin), env)
	for _, vars := range [][]string{joinVars, left, right, out} {
		buf = wirefmt.AppendStrings(buf, vars)
	}
	return buf
}

// appendFragTask builds the task frame for a co-partitioned plan subtree.
func appendFragTask(buf []byte, root core.PlanNode, env core.FragmentEnv) ([]byte, error) {
	return appendFrag(appendEnv(append(buf, taskFrag), env), root)
}

// parseTask decodes a task frame's payload, resolving request shapes
// through the worker's shape table and interning seed terms straight into
// d's IDs. Anything malformed — an unknown kind or tag, a truncated
// section, a schema its shape cannot fill, trailing bytes — is an error;
// only shapes that decoded are remembered, and only a header that parsed
// whole interns its seeds.
func parseTask(p []byte, shapes *wrapper.ShapeTable, d *dict.Dict) (*task, error) {
	c := &wirefmt.Cursor{P: p}
	t := &task{kind: c.Byte()}
	var seeds *seedSection
	switch t.kind {
	case taskHello:
	case taskScan:
		t.env = readEnv(c)
		t.schema, t.source, t.req = readScan(c, shapes)
		if c.Err == nil {
			seeds = readSeeds(c)
		}
	case taskJoin:
		t.env = readEnv(c)
		t.joinVars, t.left, t.right, t.out = c.Strings(), c.Strings(), c.Strings(), c.Strings()
	case taskFrag:
		t.env = readEnv(c)
		t.root = readFrag(c, shapes, 0)
	default:
		c.Fail("unknown task kind 0x%02x", t.kind)
	}
	if c.Err == nil && c.Rest() != 0 {
		c.Fail("%d trailing bytes after task header", c.Rest())
	}
	if c.Err != nil {
		return nil, c.Err
	}
	if seeds != nil {
		t.req = seeds.bind(t.req, d)
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
