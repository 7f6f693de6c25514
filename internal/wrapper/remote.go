package wrapper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/trace"
)

// RemoteSPARQLWrapper answers star queries against a live SPARQL-protocol
// endpoint over HTTP — typically another ontario-server node, but any
// endpoint speaking POST application/sparql-query with
// application/sparql-results+json answers works. Star patterns, pushed
// filters, and bind-join seed blocks are compiled back to SPARQL text; the
// request runs under the shared resilience layer (per-attempt timeout,
// retries, circuit breaker), and the response is fully materialized before
// streaming so a retry never replays a half-consumed stream.
type RemoteSPARQLWrapper struct {
	id       string
	endpoint string
	client   *http.Client
	health   *HealthRegistry
	sim      *netsim.Simulator
	batch    int
}

// NewRemoteSPARQLWrapper wraps the SPARQL endpoint at endpoint (the full
// query URL, e.g. http://host:port/sparql). health must be non-nil: remote
// sources always run under a resilience policy. sim may carry a simulator
// for message accounting (typically netsim.NoDelay: the real network
// provides the latency); batch <= 0 means the engine default.
func NewRemoteSPARQLWrapper(id, endpoint string, health *HealthRegistry, sim *netsim.Simulator, batch int) *RemoteSPARQLWrapper {
	return &RemoteSPARQLWrapper{
		id:       id,
		endpoint: endpoint,
		client:   &http.Client{},
		health:   health,
		sim:      sim,
		batch:    batch,
	}
}

// SourceID implements Wrapper.
func (w *RemoteSPARQLWrapper) SourceID() string { return w.id }

// Endpoint returns the wrapped query URL.
func (w *RemoteSPARQLWrapper) Endpoint() string { return w.endpoint }

// ExecuteColumnar implements Wrapper: the peer keeps speaking
// sparql-results+json and its decoded rows are interned on arrival.
func (w *RemoteSPARQLWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	if len(req.Stars) == 0 {
		return nil, fmt.Errorf("wrapper %s: empty request", w.id)
	}
	query := buildRemoteQuery(req, req.seedBindings(d))
	var sols []sparql.Binding
	err := w.health.Hop(ctx, w.id, func(actx context.Context, span *trace.RemoteSpan) (err error) {
		sols, err = w.fetch(actx, query, span)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: endpoint %s: %w", w.id, w.endpoint, err)
	}
	// A single seed went down as constants and is merged back; several
	// went down as a FILTER disjunction. Either way the solutions are
	// re-checked locally, so a permissive endpoint cannot widen the join.
	return boundaryEntry(sols, req, nil, req.Seeds.Rows == 1, schema, d).stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}

// buildRemoteQuery compiles the request back to SPARQL text. A single
// seed row is substituted into the patterns as constants; several become
// a FILTER disjunction of per-seed equality conjunctions (the grammar
// subset has no VALUES), with the solutions binding the seeded variables
// themselves — the seed-set contract the in-process wrappers implement.
func buildRemoteQuery(req *Request, seeds []sparql.Binding) string {
	var patterns []sparql.TriplePattern
	for _, s := range req.Stars {
		patterns = append(patterns, s.Patterns...)
	}
	cond := ""
	if len(seeds) == 1 {
		patterns = substituteSeed(patterns, seeds[0])
	} else {
		cond = seedsFilter(seeds, patterns)
	}
	var b strings.Builder
	b.WriteString("SELECT * WHERE {")
	for _, tp := range patterns {
		b.WriteString(" ")
		b.WriteString(tp.String())
		b.WriteString(" .")
	}
	for _, f := range req.Filters {
		b.WriteString(" FILTER(")
		b.WriteString(f.String())
		b.WriteString(")")
	}
	if cond != "" {
		b.WriteString(" FILTER(")
		b.WriteString(cond)
		b.WriteString(")")
	}
	b.WriteString(" }")
	return b.String()
}

// substituteSeed replaces the variables seed binds in the patterns with
// their terms.
func substituteSeed(patterns []sparql.TriplePattern, seed sparql.Binding) []sparql.TriplePattern {
	out := make([]sparql.TriplePattern, len(patterns))
	sub := func(n sparql.Node) sparql.Node {
		if n.IsVar {
			if t, ok := seed[n.Var]; ok {
				return sparql.TermNode(t)
			}
		}
		return n
	}
	for i, tp := range patterns {
		out[i] = sparql.TriplePattern{S: sub(tp.S), P: sub(tp.P), O: sub(tp.O)}
	}
	return out
}

// seedsFilter renders the block's seeds as a disjunction of equality
// conjunctions over the seeded variables that actually occur in the
// patterns (a seed variable the star never mentions cannot constrain it).
func seedsFilter(seeds []sparql.Binding, patterns []sparql.TriplePattern) string {
	if len(seeds) == 0 {
		return ""
	}
	used := map[string]bool{}
	for _, tp := range patterns {
		for _, v := range tp.Vars() {
			used[v] = true
		}
	}
	var alts []string
	for _, seed := range seeds {
		vars := make([]string, 0, len(seed))
		for v := range seed {
			vars = append(vars, v)
		}
		sort.Strings(vars) // deterministic text keys the upstream plan cache
		var conj []string
		for _, v := range vars {
			if used[v] {
				conj = append(conj, "?"+v+" = "+seed[v].String())
			}
		}
		if len(conj) == 0 {
			// One unconstrained seed makes the whole block unconstrained.
			return ""
		}
		alts = append(alts, "("+strings.Join(conj, " && ")+")")
	}
	return strings.Join(alts, " || ")
}

// remoteTerm is one RDF term of the SPARQL results-JSON wire format.
type remoteTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

func (t remoteTerm) term() rdf.Term {
	switch t.Type {
	case "uri":
		return rdf.NewIRI(t.Value)
	case "bnode":
		return rdf.NewBlank(t.Value)
	default:
		switch {
		case t.Lang != "":
			return rdf.NewLangLiteral(t.Value, t.Lang)
		case t.Datatype != "":
			return rdf.NewTypedLiteral(t.Value, t.Datatype)
		default:
			return rdf.NewLiteral(t.Value)
		}
	}
}

// maxErrorBody bounds how much of an error response is read into the error
// message.
const maxErrorBody = 4 << 10

// fetch runs one attempt: POST the query, read and decode the full result
// document. A truncated body (an upstream node that died mid-stream writes
// a valid-looking prefix with no closing braces) surfaces as a JSON decode
// error, and an ontario-server upstream that failed mid-stream announces it
// in the X-Ontario-Error trailer — both are retryable. When ctx carries a
// query trace the hop propagates the W3C traceparent header; the peer's
// trace identity — its query ID (when the endpoint is an ontario server)
// and its own remote spans, nesting deeper federation levels — goes into
// span.
func (w *RemoteSPARQLWrapper) fetch(ctx context.Context, query string, span *trace.RemoteSpan) ([]sparql.Binding, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint, strings.NewReader(query))
	if err != nil {
		return nil, Permanent(err)
	}
	hreq.Header.Set("Content-Type", "application/sparql-query")
	hreq.Header.Set("Accept", "application/sparql-results+json")
	if qt := trace.FromContext(ctx); qt != nil {
		hreq.Header.Set("Traceparent", qt.Traceparent())
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	span.QueryID, span.Children = resp.Header.Get("X-Ontario-Query-Id"), nil
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		err := fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 &&
			resp.StatusCode != http.StatusRequestTimeout && resp.StatusCode != http.StatusTooManyRequests {
			// The request itself is wrong (parse error, bad parameter):
			// retrying the same text cannot help.
			return nil, Permanent(err)
		}
		return nil, err
	}
	var doc struct {
		Results struct {
			Bindings []map[string]remoteTerm `json:"bindings"`
		} `json:"results"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding results: %w", err)
	}
	// Trailers are only populated once the body has been fully read.
	io.Copy(io.Discard, resp.Body)
	if raw := resp.Trailer.Get("X-Ontario-Spans"); raw != "" {
		// Best effort: a peer sending malformed spans only loses its
		// subtree in the coordinator trace.
		_ = json.Unmarshal([]byte(raw), &span.Children)
	}
	if msg := resp.Trailer.Get("X-Ontario-Error"); msg != "" {
		return nil, fmt.Errorf("upstream failed mid-stream: %s", msg)
	}
	sols := make([]sparql.Binding, 0, len(doc.Results.Bindings))
	for _, row := range doc.Results.Bindings {
		b := make(sparql.Binding, len(row))
		for v, t := range row {
			b[v] = t.term()
		}
		sols = append(sols, b)
	}
	return sols, nil
}

// NoDelaySim returns a simulator that accounts request/response messages
// without sleeping — the profile remote wrappers use, where the real
// network provides the latency.
func NoDelaySim(seed int64) *netsim.Simulator {
	return netsim.NewSimulator(netsim.NoDelay, 0, seed)
}
