// Package core implements the paper's contribution: a federated SPARQL
// query engine for Semantic Data Lakes whose plan generator exploits the
// physical design of the sources. Queries are decomposed into star-shaped
// sub-queries (SSQs), sources are selected via RDF Molecule Templates, and
// two source-specific heuristics shape the plan:
//
//   - Heuristic 1 (pushing down joins): SSQs over the same relational
//     endpoint are combined into a single SQL query when the join
//     attribute is indexed.
//   - Heuristic 2 (pushing up instantiations): filters over relational
//     sources run at the engine unless the filtered attribute is indexed
//     and the network is slow.
//
// A physical-design-unaware mode reproduces the baseline QEPs of the
// paper's experiment.
package core

import (
	"fmt"
	"sort"

	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// SSQ is a star-shaped sub-query: the triple patterns sharing one subject.
type SSQ struct {
	// SubjectVar is the shared subject variable; empty when the subject is
	// a constant term.
	SubjectVar string
	// Subject is the constant subject when SubjectVar is empty.
	Subject rdf.Term
	// Patterns are the star's triple patterns in query order.
	Patterns []sparql.TriplePattern
}

// Vars returns the distinct variables of the star in first-seen order.
func (s *SSQ) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tp := range s.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// TypeClass returns the constant class IRI from an "?s rdf:type <C>"
// pattern, if any.
func (s *SSQ) TypeClass() (string, bool) {
	for _, tp := range s.Patterns {
		if !tp.P.IsVar && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar && tp.O.Term.IsIRI() {
			return tp.O.Term.Value, true
		}
	}
	return "", false
}

// Predicates returns the constant non-type predicate IRIs of the star,
// sorted and de-duplicated.
func (s *SSQ) Predicates() []string {
	seen := map[string]bool{}
	for _, tp := range s.Patterns {
		if tp.P.IsVar {
			continue
		}
		p := tp.P.Term.Value
		if p == rdf.RDFType {
			continue
		}
		seen[p] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// String labels the star for diagnostics.
func (s *SSQ) String() string {
	if s.SubjectVar != "" {
		return fmt.Sprintf("SSQ(?%s, %d patterns)", s.SubjectVar, len(s.Patterns))
	}
	return fmt.Sprintf("SSQ(%s, %d patterns)", s.Subject, len(s.Patterns))
}

// Decompose partitions the query's basic graph pattern into star-shaped
// sub-queries, grouping triple patterns by subject (Vidal et al., ESWC
// 2010). Stars are returned in order of first appearance.
func Decompose(q *sparql.Query) []*SSQ {
	var order []string
	groups := map[string]*SSQ{}
	keyOf := func(n sparql.Node) string {
		if n.IsVar {
			return "?" + n.Var
		}
		return "T" + n.Term.String()
	}
	for _, tp := range q.Patterns {
		k := keyOf(tp.S)
		g, ok := groups[k]
		if !ok {
			g = &SSQ{}
			if tp.S.IsVar {
				g.SubjectVar = tp.S.Var
			} else {
				g.Subject = tp.S.Term
			}
			groups[k] = g
			order = append(order, k)
		}
		g.Patterns = append(g.Patterns, tp)
	}
	out := make([]*SSQ, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}
