// Package wirefmt holds the byte-level primitives every binary format of
// the engine shares — the cluster wire frames and the canonical request
// form the response cache fingerprints: uvarint-length-prefixed strings,
// RDF terms as (kind, value, datatype, lang), and a sticky-error cursor
// for reading untrusted payloads.
package wirefmt

import (
	"encoding/binary"
	"fmt"

	"ontario/internal/rdf"
)

// Corrupt tags every malformed-input failure so callers (and fuzz
// harnesses) can tell rejection from a crash.
type Corrupt struct{ Msg string }

func (e Corrupt) Error() string { return "corrupt payload: " + e.Msg }

// AppendString appends s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendStrings appends a uvarint count and each string.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendTerm appends t as its kind byte and three strings.
func AppendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	buf = AppendString(buf, t.Value)
	buf = AppendString(buf, t.Datatype)
	return AppendString(buf, t.Lang)
}

// Cursor walks a fully read payload with sticky error handling: every
// accessor after a failure returns zero values, and the caller checks Err
// once at the end.
type Cursor struct {
	P   []byte
	Off int
	Err error
}

// Fail records the first failure.
func (c *Cursor) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = Corrupt{Msg: fmt.Sprintf(format, args...)}
	}
}

// Rest returns the number of unread bytes.
func (c *Cursor) Rest() int { return len(c.P) - c.Off }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.Err != nil || c.Off >= len(c.P) {
		c.Fail("unexpected end of payload")
		return 0
	}
	b := c.P[c.Off]
	c.Off++
	return b
}

// Uvarint reads one uvarint.
func (c *Cursor) Uvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.P[c.Off:])
	if n <= 0 {
		c.Fail("bad uvarint at offset %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

// Varint reads one signed varint.
func (c *Cursor) Varint() int64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Varint(c.P[c.Off:])
	if n <= 0 {
		c.Fail("bad varint at offset %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

// Count reads an element count and rejects one the rest of the payload
// cannot hold (every element takes at least one byte), so a hostile count
// never sizes an allocation.
func (c *Cursor) Count() int {
	n := c.Uvarint()
	if c.Err == nil && n > uint64(c.Rest()) {
		c.Fail("count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// Bytes reads n bytes, aliasing the payload.
func (c *Cursor) Bytes(n int) []byte {
	if c.Err != nil {
		return nil
	}
	if n < 0 || n > c.Rest() {
		c.Fail("unexpected end of payload")
		return nil
	}
	b := c.P[c.Off : c.Off+n]
	c.Off += n
	return b
}

// String reads a uvarint-length-prefixed string. The conversion copies,
// so the result stays valid after the payload buffer is reused.
func (c *Cursor) String() string {
	return string(c.Bytes(c.Count()))
}

// Strings reads a list written by AppendStrings.
func (c *Cursor) Strings() []string {
	n := c.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = c.String()
	}
	return out
}

// Term reads a term written by AppendTerm.
func (c *Cursor) Term() rdf.Term {
	kind := c.Byte()
	if kind > uint8(rdf.TermBlank) {
		c.Fail("bad term kind %d", kind)
	}
	t := rdf.Term{Kind: rdf.TermKind(kind), Value: c.String(), Datatype: c.String(), Lang: c.String()}
	if c.Err != nil {
		return rdf.Term{}
	}
	return t
}
