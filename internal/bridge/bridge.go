// Package bridge lets the public packages hand internal values to each
// other without exposing internal types in any exported signature: the
// ontario/lake package registers an extractor for its Lake type at init
// time, and the root ontario package (plus in-module tooling) uses it to
// reach the underlying catalog.
package bridge

import "ontario/internal/catalog"

// LakeCatalog extracts the internal catalog from a public *lake.Lake. It
// is set by ontario/lake's init function; it returns nil for any other
// value.
var LakeCatalog func(lake any) *catalog.Catalog

// ResultsNextJSON pulls the next exchange batch from a public
// *ontario.Results cursor pre-encoded as sparql-results+json binding
// objects; it is set by the root ontario package's init function. The
// payload carries a ',' separator before every object (the caller drops
// the leading byte for the first object of the document), n is the number
// of solutions encoded, and ok is false once the cursor is exhausted,
// closed, or not an *ontario.Results. The payload aliases a buffer reused
// by the next call — write it out before pulling again. It exists so the
// server can stream results without materializing public Binding maps and
// without the exported cursor API growing a batch method: the cursor
// encodes each distinct term once per lake, keyed by its dictionary ID.
var ResultsNextJSON func(results any) (payload []byte, n int, ok bool)

// ClusterOption holds a factory (set by the root ontario package's init
// function) turning a core.Distributor — passed as any — into an
// ontario.Option (returned as any, the caller type-asserts) that runs
// one query execution distributed over the cluster's worker pool. It
// exists so cmd/ontario-server's coordinator role can wire
// internal/cluster into the engine without the public API surface
// carrying an internal interface type.
var ClusterOption func(dist any) any
