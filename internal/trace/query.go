package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// QueryTrace is the per-query runtime trace: the identity of one query
// execution (W3C trace-context IDs) plus the spans of the federated
// requests it fanned out. The coordinator creates one per query (or adopts
// the IDs from an incoming traceparent header), and the remote wrapper
// appends a span per federated source — so after execution the trace
// shows the whole federation tree.
type QueryTrace struct {
	// TraceID is the 32-hex-digit W3C trace ID, shared by every node a
	// federated query touches.
	TraceID string
	// QueryID is this node's 16-hex-digit span ID; it doubles as the query
	// ID in logs and the slow-query log.
	QueryID string
	// ParentID is the caller's span ID when the query arrived with a
	// traceparent header; empty at the federation root.
	ParentID string

	Start time.Time

	mu      sync.Mutex
	remotes []RemoteSpan
}

// RemoteSpan records one federated request to a source: how many HTTP
// attempts the resilience layer made, the breaker state after the call,
// the total latency, and — when the peer is an ontario server — the peer's
// query ID and its own remote spans, nesting the full federation tree.
// The JSON encoding is the wire format of the X-Ontario-Spans trailer.
type RemoteSpan struct {
	Source    string       `json:"source"`
	QueryID   string       `json:"query_id,omitempty"`
	Attempts  int          `json:"attempts"`
	Breaker   string       `json:"breaker,omitempty"`
	LatencyMS float64      `json:"latency_ms"`
	Error     string       `json:"error,omitempty"`
	Children  []RemoteSpan `json:"children,omitempty"`
}

// NewQueryTrace starts a trace with fresh random IDs (a federation root).
func NewQueryTrace() *QueryTrace {
	return &QueryTrace{
		TraceID: randHex(16),
		QueryID: randHex(8),
		Start:   time.Now(),
	}
}

// ParseTraceparent starts a trace continuing an incoming W3C traceparent
// header ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"): the
// trace ID is adopted, the caller's span becomes the parent, and this node
// gets a fresh query ID. Malformed headers report ok == false; callers
// fall back to NewQueryTrace.
func ParseTraceparent(header string) (*QueryTrace, bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) != 4 || parts[0] != "00" ||
		!isHex(parts[1], 32) || !isHex(parts[2], 16) || !isHex(parts[3], 2) {
		return nil, false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return nil, false
	}
	return &QueryTrace{
		TraceID:  parts[1],
		QueryID:  randHex(8),
		ParentID: parts[2],
		Start:    time.Now(),
	}, true
}

// Traceparent renders the header to forward on federated hops: this node's
// query ID becomes the peer's parent.
func (q *QueryTrace) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", q.TraceID, q.QueryID)
}

// AddRemoteSpan records one federated request span. Safe for concurrent
// use (wrappers run on many goroutines).
func (q *QueryTrace) AddRemoteSpan(s RemoteSpan) {
	q.mu.Lock()
	q.remotes = append(q.remotes, s)
	q.mu.Unlock()
}

// RemoteSpans returns the recorded federated request spans.
func (q *QueryTrace) RemoteSpans() []RemoteSpan {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]RemoteSpan(nil), q.remotes...)
}

type queryTraceKey struct{}

// WithQuery attaches the query trace to the context; the executor adopts
// it and the remote wrapper forwards its traceparent on every hop.
func WithQuery(ctx context.Context, q *QueryTrace) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, queryTraceKey{}, q)
}

// FromContext returns the query trace attached with WithQuery, or nil.
func FromContext(ctx context.Context) *QueryTrace {
	q, _ := ctx.Value(queryTraceKey{}).(*QueryTrace)
	return q
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable; fall back to a fixed
		// non-zero ID rather than panicking in a query path.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for _, c := range []byte(s) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
