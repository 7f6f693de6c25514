// Package rdf implements the RDF data model used throughout the data lake:
// terms (IRIs, literals, blank nodes), triples, and an in-memory triple store
// with SPO/POS/OSP hash indexes. It also provides an N-Triples reader and
// writer so datasets can be serialized and reloaded.
package rdf

import (
	"strconv"
	"strings"
)

// TermKind enumerates the kinds of RDF terms.
type TermKind uint8

const (
	// TermIRI is an IRI reference such as <http://example.org/x>.
	TermIRI TermKind = iota
	// TermLiteral is a literal, optionally carrying a datatype IRI or a
	// language tag.
	TermLiteral
	// TermBlank is a blank node identified by a label local to a graph.
	TermBlank
)

// Common XSD datatype IRIs.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// RDFType is the rdf:type predicate IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// RDFLangString is the datatype IRI of a language-tagged literal.
const RDFLangString = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

// Term is an RDF term. The zero value is not a valid term; use the
// constructors NewIRI, NewLiteral, NewTypedLiteral, NewLangLiteral and
// NewBlank.
type Term struct {
	Kind     TermKind
	Value    string // IRI string, literal lexical form, or blank node label
	Datatype string // literal datatype IRI; empty means xsd:string
	Lang     string // literal language tag; mutually exclusive with Datatype
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: TermIRI, Value: iri} }

// NewLiteral returns a plain string literal.
func NewLiteral(lex string) Term { return Term{Kind: TermLiteral, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: TermLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged string literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: TermLiteral, Value: lex, Lang: lang}
}

// NewBlank returns a blank node with the given label (without the "_:"
// prefix).
func NewBlank(label string) Term { return Term{Kind: TermBlank, Value: label} }

// IntLiteral returns an xsd:integer literal for v.
func IntLiteral(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// FloatLiteral returns an xsd:double literal for v.
func FloatLiteral(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// BoolLiteral returns an xsd:boolean literal for v.
func BoolLiteral(v bool) Term {
	if v {
		return NewTypedLiteral("true", XSDBoolean)
	}
	return NewTypedLiteral("false", XSDBoolean)
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == TermIRI }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == TermLiteral }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == TermBlank }

// Equal reports whether two terms are identical.
func (t Term) Equal(o Term) bool { return t == o }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case TermIRI:
		return "<" + t.Value + ">"
	case TermBlank:
		return "_:" + t.Value
	default:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without the trailing dot).
func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String()
}
