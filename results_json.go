package ontario

import (
	"slices"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

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
	return append(appendJSONString(make([]byte, 0, jsonStringLen(v)+1), v), ':')
}

// marshalTerm appends the sparql-results+json encoding of one term:
// {"type":...,"value":...} with datatype and xml:lang only when present —
// byte for byte what encoding/json produces for the equivalent struct with
// omitempty datatype and xml:lang members (TestMarshalTermMatchesJSON).
// dst grows once, to the encoding's exact size.
func marshalTerm(dst []byte, t rdf.Term) []byte {
	typ := `"literal"`
	switch t.Kind {
	case rdf.TermIRI:
		typ = `"uri"`
	case rdf.TermBlank:
		typ = `"bnode"`
	}
	var dt, lang string
	if t.Kind == rdf.TermLiteral {
		dt, lang = t.Datatype, t.Lang
	}
	n := len(`{"type":,"value":}`) + len(typ) + jsonStringLen(t.Value)
	if dt != "" {
		n += len(`,"datatype":`) + jsonStringLen(dt)
	}
	if lang != "" {
		n += len(`,"xml:lang":`) + jsonStringLen(lang)
	}
	dst = slices.Grow(dst, n)
	dst = append(append(append(dst, `{"type":`...), typ...), `,"value":`...)
	dst = appendJSONString(dst, t.Value)
	if dt != "" {
		dst = appendJSONString(append(dst, `,"datatype":`...), dt)
	}
	if lang != "" {
		dst = appendJSONString(append(dst, `,"xml:lang":`...), lang)
	}
	return append(dst, '}')
}

// jsonEscapes holds, per ASCII byte, its escape in a JSON string as
// encoding/json writes it (HTML-sensitive <>& included), or "" for a byte
// written as is.
var jsonEscapes = func() (esc [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for b := 0; b < 0x20; b++ {
		esc[b] = `\u00` + string(hex[b>>4]) + string(hex[b&0xF])
	}
	esc['\b'], esc['\f'], esc['\n'], esc['\r'], esc['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	esc['"'], esc['\\'] = `\"`, `\\`
	esc['<'], esc['>'], esc['&'] = `\u003c`, `\u003e`, `\u0026`
	return esc
}()

// jsonStep returns the width of the character at s[i] and its escape in a
// JSON string, "" when it is written as is: ASCII by jsonEscapes, invalid
// UTF-8 as U+FFFD, and the JavaScript line separators U+2028/U+2029
// escaped, as encoding/json does.
func jsonStep(s string, i int) (int, string) {
	if b := s[i]; b < utf8.RuneSelf {
		return 1, jsonEscapes[b]
	}
	c, w := utf8.DecodeRuneInString(s[i:])
	switch {
	case c == utf8.RuneError && w == 1:
		return 1, `\ufffd`
	case c == '\u2028':
		return w, `\u2028`
	case c == '\u2029':
		return w, `\u2029`
	}
	return w, ""
}

// jsonStringLen returns the length of s encoded as a JSON string
// (appendJSONString), quotes included.
func jsonStringLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		if s[i] < utf8.RuneSelf && jsonEscapes[s[i]] == "" {
			n++
			i++
			continue
		}
		w, esc := jsonStep(s, i)
		if esc == "" {
			n += w
		} else {
			n += len(esc)
		}
		i += w
	}
	return n
}

// appendJSONString appends s as a JSON string, byte for byte as
// encoding/json marshals it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if s[i] < utf8.RuneSelf && jsonEscapes[s[i]] == "" {
			i++
			continue
		}
		w, esc := jsonStep(s, i)
		if esc != "" {
			dst = append(append(dst, s[start:i]...), esc...)
			start = i + w
		}
		i += w
	}
	return append(append(dst, s[start:]...), '"')
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
