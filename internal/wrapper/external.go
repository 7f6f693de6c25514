package wrapper

import (
	"context"
	"fmt"

	"ontario/internal/catalog"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
)

// ExternalWrapper adapts a user-provided catalog.ExternalSource (a custom
// backend registered through the public lake API) to the Wrapper contract.
// It forwards star sub-queries, interns the results at the boundary and
// runs them through the row check — seed compatibility (the custom
// implementation is free to ignore seeds) and any pushed filters — and
// charges the simulated network like the built-in
// wrappers: one latency sample per answer, or one per response for a block
// request.
type ExternalWrapper struct {
	id    string
	src   catalog.ExternalSource
	sim   *netsim.Simulator
	batch int
}

// NewExternalWrapper wraps a custom source. sim may be nil for no network
// simulation; batch <= 0 means the engine's default batch size.
func NewExternalWrapper(id string, src catalog.ExternalSource, sim *netsim.Simulator, batch int) *ExternalWrapper {
	return &ExternalWrapper{id: id, src: src, sim: sim, batch: batch}
}

// SourceID implements Wrapper.
func (w *ExternalWrapper) SourceID() string { return w.id }

// ExecuteColumnar implements Wrapper.
func (w *ExternalWrapper) ExecuteColumnar(ctx context.Context, req *Request, schema *engine.Schema, d *dict.Dict) (*engine.CStream, error) {
	if len(req.Stars) == 0 {
		return nil, fmt.Errorf("wrapper %s: empty request", w.id)
	}
	stars := make([]catalog.ExternalStar, len(req.Stars))
	for i, s := range req.Stars {
		stars[i] = catalog.ExternalStar{SubjectVar: s.SubjectVar, Class: s.Class, Patterns: s.Patterns}
	}
	sols, err := w.src.ExecuteStars(ctx, stars, req.seedBindings(d))
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.id, err)
	}
	return boundaryEntry(sols, req, req.Filters, false, schema, d).stream(ctx, w.sim, !req.Block, schema, w.batch), nil
}
