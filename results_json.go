package ontario

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
)

// termJSON memoizes the marshaled encoding of terms by dictionary ID
// across every query of a lake. IDs come from the catalog's lake-lifetime
// dictionary, so an entry stays valid as long as the catalog; concurrent
// cursors (of any engine over that catalog) read it without a lock.
type termJSON = dict.Table[[]byte]

// jsonBufPool recycles encode buffers between cursors: a query's payload
// buffer grows to one batch's JSON and is returned on Close, so steady
// service traffic stops allocating encode space per query.
var jsonBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// resultsJSON is the cursor's pre-encoding state for the server's JSON
// fast path. The encoding it produces is byte-identical to marshaling a
// map[var]term object per solution (keys sorted, no whitespace), but the
// work is memoized: variable keys are marshaled once per schema, and each
// distinct term is marshaled once per lake, keyed by its dictionary ID.
type resultsJSON struct {
	// cols pairs each output column with its pre-marshaled `"var":` key
	// prefix, ordered by variable name so the object keys come out sorted.
	cols []jsonCol
	// shared is the engine's cross-query term encodings.
	shared *termJSON
	// buf is the encode buffer, borrowed from jsonBufPool via pooled and
	// handed back when the cursor closes.
	buf    []byte
	pooled *[]byte
}

// release returns the encode buffer to the pool; the cursor must not
// encode again afterwards.
func (j *resultsJSON) release() {
	if j.pooled == nil {
		return
	}
	*j.pooled = j.buf[:0]
	jsonBufPool.Put(j.pooled)
	j.pooled, j.buf = nil, nil
}

type jsonCol struct {
	pos int // column in the batch schema
	key []byte
}

func marshalKey(v string) []byte {
	k, _ := json.Marshal(v)
	return append(k, ':')
}

// marshalTerm appends the sparql-results+json encoding of one term:
// {"type":...,"value":...} with datatype and xml:lang only when present —
// byte for byte what encoding/json produces for the equivalent struct with
// omitempty datatype and xml:lang members (TestMarshalTermMatchesJSON).
func marshalTerm(dst []byte, t rdf.Term) []byte {
	dst = append(dst, `{"type":`...)
	switch t.Kind {
	case rdf.TermIRI:
		dst = append(dst, `"uri"`...)
	case rdf.TermBlank:
		dst = append(dst, `"bnode"`...)
	default:
		dst = append(dst, `"literal"`...)
	}
	dst = append(dst, `,"value":`...)
	v, _ := json.Marshal(t.Value)
	dst = append(dst, v...)
	if t.Kind == rdf.TermLiteral && t.Datatype != "" {
		dst = append(dst, `,"datatype":`...)
		dt, _ := json.Marshal(t.Datatype)
		dst = append(dst, dt...)
	}
	if t.Kind == rdf.TermLiteral && t.Lang != "" {
		dst = append(dst, `,"xml:lang":`...)
		l, _ := json.Marshal(t.Lang)
		dst = append(dst, l...)
	}
	return append(dst, '}')
}

func (r *Results) jsonState() *resultsJSON {
	if r.json != nil {
		return r.json
	}
	j := &resultsJSON{pooled: jsonBufPool.Get().(*[]byte), shared: r.jsonCache}
	j.buf = (*j.pooled)[:0]
	schema := r.cstream.Schema()
	for pos, v := range schema.Vars {
		j.cols = append(j.cols, jsonCol{pos: pos, key: marshalKey(v)})
	}
	sort.Slice(j.cols, func(a, b int) bool {
		return schema.Vars[j.cols[a].pos] < schema.Vars[j.cols[b].pos]
	})
	r.json = j
	return j
}

// encodedTerm returns the encoding of the term behind id, marshaling and
// memoizing it on first sight.
func encodedTerm(shared *termJSON, d *dict.Dict, id dict.ID) []byte {
	if enc := shared.Load(id); enc != nil {
		return *enc
	}
	enc := marshalTerm(nil, d.MustLookup(id))
	shared.Store(id, &enc)
	return enc
}

// nextBatchJSON returns the rest of the buffered batch — or pulls the
// next one — encoded as comma-separated sparql-results+json binding
// objects. The payload starts with a ',' separator before every object,
// including the first; the consumer drops the leading byte when the
// object is the first of the document. n is the number of solutions
// encoded. The returned slice is only valid until the next call.
func (r *Results) nextBatchJSON() ([]byte, int, bool) {
	if !r.fill() {
		return nil, 0, false
	}
	j := r.jsonState()
	buf := j.buf[:0]
	n := 0
	b := r.cbuf
	for ; r.cidx < b.Len; r.cidx++ {
		buf = append(buf, ',', '{')
		rowStart := len(buf)
		for _, c := range j.cols {
			id := b.Cols[c.pos][r.cidx]
			if id == dict.Unbound {
				continue
			}
			if len(buf) > rowStart {
				buf = append(buf, ',')
			}
			buf = append(buf, c.key...)
			buf = append(buf, encodedTerm(j.shared, r.dict, id)...)
		}
		buf = append(buf, '}')
		n++
	}
	j.buf = buf
	if r.n == 0 {
		r.firstAt = time.Since(r.start)
	}
	r.n += n
	return buf, n, true
}
