package server

import (
	"encoding/json"
	"io"

	"ontario"
)

// resultsEncoder writes the SPARQL 1.1 Query Results JSON Format
// (application/sparql-results+json) incrementally: the head and the
// opening of the bindings array go out first, then one binding object per
// solution as it arrives, then the closing braces — so a consumer parsing
// the stream sees the first solution long before the query finishes.
type resultsEncoder struct {
	w     io.Writer
	vars  []string
	wrote int
}

func newResultsEncoder(w io.Writer, vars []string) *resultsEncoder {
	if vars == nil {
		vars = []string{}
	}
	return &resultsEncoder{w: w, vars: vars}
}

func (e *resultsEncoder) writeHead() error {
	head, err := json.Marshal(e.vars)
	if err != nil {
		return err
	}
	_, err = e.w.Write(append(append([]byte(`{"head":{"vars":`), head...),
		[]byte(`},"results":{"bindings":[`)...))
	return err
}

// writeRaw writes a payload of n binding objects pre-encoded by the
// cursor (see bridge.ResultsNextJSON). The payload leads with a ','
// separator before its first object; it is dropped when nothing has been
// written yet.
func (e *resultsEncoder) writeRaw(payload []byte, n int) error {
	if n == 0 || len(payload) == 0 {
		return nil
	}
	if e.wrote == 0 {
		payload = payload[1:]
	}
	e.wrote += n
	_, err := e.w.Write(payload)
	return err
}

func (e *resultsEncoder) writeTail() error {
	_, err := e.w.Write([]byte("]}}"))
	return err
}

// writeAnalyzeTail closes the document with the EXPLAIN ANALYZE report
// appended as a top-level "ontario:analyze" member after the results —
// the document stays valid JSON, and because the member follows the
// streamed bindings the streaming semantics survive (?analyze=1 costs
// nothing until the query is done).
func (e *resultsEncoder) writeAnalyzeTail(a *ontario.Analysis) error {
	doc, err := json.Marshal(a)
	if err != nil {
		// Fall back to the plain tail: a valid result document matters more
		// than the report.
		return e.writeTail()
	}
	payload := append([]byte(`]},"ontario:analyze":`), doc...)
	payload = append(payload, '}')
	_, err = e.w.Write(payload)
	return err
}
