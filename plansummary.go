package ontario

import (
	"fmt"
	"strings"
	"time"

	"ontario/internal/core"
)

// Estimate is the cost model's prediction for one plan node, present when
// the cost optimizer planned it.
type Estimate struct {
	// Cardinality is the estimated number of output bindings.
	Cardinality float64 `json:"cardinality"`
	// Messages is the estimated number of simulated network messages
	// needed to produce the node's output.
	Messages float64 `json:"messages"`
	// Cost is the scalar optimization objective in millisecond-
	// equivalents: message latency under the active network profile plus
	// transferred-binding volume.
	Cost float64 `json:"cost"`
}

// PlanSummary is one node of a query execution plan, rendered into public
// value types: a tree of operators with their sources, details and cost
// estimates. It is a snapshot for inspection; Explain renders the same
// tree as text.
type PlanSummary struct {
	// Operator is the node kind: "service", "merged-service", "join",
	// "left-join", "filter" or "union".
	Operator string `json:"operator"`
	// Source is the answering source ID of service nodes.
	Source string `json:"source,omitempty"`
	// Detail describes the node: the stars of a service ("?d:Disease(2
	// patterns)"), the operator of a join ("symmetric-hash"), the filter
	// expressions of a filter node.
	Detail string `json:"detail,omitempty"`
	// JoinVars are the join variables of join nodes.
	JoinVars []string `json:"join_vars,omitempty"`
	// Estimate is the cost model's prediction, nil when the plan was not
	// produced by the cost optimizer.
	Estimate *Estimate `json:"estimate,omitempty"`
	// Actual is the node's observed runtime behaviour, populated by
	// Results.Analyze (EXPLAIN ANALYZE); nil on a plain Explain.
	Actual *Actual `json:"actual,omitempty"`
	// Remote holds the spans of the federated requests a service node
	// issued to a remote source, populated by Results.Analyze.
	Remote   []RemoteSpan   `json:"remote,omitempty"`
	Children []*PlanSummary `json:"children,omitempty"`
}

// String renders the plan tree.
func (s *PlanSummary) String() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *PlanSummary) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.Operator)
	if s.Source != "" {
		fmt.Fprintf(b, "[%s]", s.Source)
	}
	if s.Detail != "" {
		b.WriteString(" " + s.Detail)
	}
	if len(s.JoinVars) > 0 {
		fmt.Fprintf(b, " on %v", s.JoinVars)
	}
	if s.Estimate != nil {
		fmt.Fprintf(b, "  {est card=%.0f msgs=%.0f cost=%.1f}",
			s.Estimate.Cardinality, s.Estimate.Messages, s.Estimate.Cost)
	}
	if s.Actual != nil {
		fmt.Fprintf(b, "  {act card=%d in=%d wall=%s blocked=%s/%s",
			s.Actual.BindingsOut, s.Actual.BindingsIn,
			s.Actual.Wall.Round(time.Microsecond),
			s.Actual.BlockedRecv.Round(time.Microsecond),
			s.Actual.BlockedSend.Round(time.Microsecond))
		if s.Actual.HashEntries > 0 {
			fmt.Fprintf(b, " hash=%d", s.Actual.HashEntries)
		}
		if s.Actual.BlocksIssued > 0 {
			fmt.Fprintf(b, " blocks=%d", s.Actual.BlocksIssued)
		}
		b.WriteByte('}')
	}
	b.WriteByte('\n')
	for _, sp := range s.Remote {
		sp.render(b, depth+1)
	}
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}

// summarize renders an internal plan tree into public value types. With
// an execution, every node also carries its observed actuals and every
// service node the spans of its source's remote requests (EXPLAIN
// ANALYZE); a plain plan passes nil for both.
func summarize(n core.PlanNode, exec *core.Execution, spans map[string][]RemoteSpan) *PlanSummary {
	sum := func(c core.PlanNode) *PlanSummary { return summarize(c, exec, spans) }
	var s *PlanSummary
	switch v := n.(type) {
	case *core.ServiceNode:
		s = &PlanSummary{Operator: "service", Source: v.SourceID, Estimate: estimate(v.Est), Remote: spans[v.SourceID]}
		if v.Merged {
			s.Operator = "merged-service"
		}
		var parts []string
		for _, star := range v.Req.Stars {
			parts = append(parts, fmt.Sprintf("?%s:%s(%d patterns)",
				star.SubjectVar, localName(star.Class), len(star.Patterns)))
		}
		if len(v.Req.Filters) > 0 {
			var fs []string
			for _, f := range v.Req.Filters {
				fs = append(fs, f.String())
			}
			parts = append(parts, "pushed-filters{"+strings.Join(fs, "; ")+"}")
		}
		s.Detail = strings.Join(parts, " ")
	case *core.JoinNode:
		s = &PlanSummary{
			Operator: "join",
			Detail:   v.Op.String(),
			JoinVars: append([]string(nil), v.JoinVars...),
			Estimate: estimate(v.Est),
			Children: []*PlanSummary{sum(v.L), sum(v.R)},
		}
	case *core.LeftJoinNode:
		s = &PlanSummary{
			Operator: "left-join",
			Children: []*PlanSummary{sum(v.L), sum(v.R)},
		}
		if len(v.Filters) > 0 {
			var fs []string
			for _, f := range v.Filters {
				fs = append(fs, f.String())
			}
			s.Detail = "filters{" + strings.Join(fs, "; ") + "}"
		}
	case *core.FilterNode:
		var fs []string
		for _, f := range v.Exprs {
			fs = append(fs, f.String())
		}
		s = &PlanSummary{
			Operator: "filter",
			Detail:   strings.Join(fs, "; "),
			Children: []*PlanSummary{sum(v.Child)},
		}
	case *core.UnionNode:
		s = &PlanSummary{Operator: "union"}
		for _, c := range v.Children {
			s.Children = append(s.Children, sum(c))
		}
	default:
		s = &PlanSummary{Operator: fmt.Sprintf("%T", n)}
	}
	if exec != nil {
		if act, ok := exec.NodeActuals(n); ok {
			a := actualFromInternal(act)
			s.Actual = &a
		}
	}
	return s
}

func estimate(e *core.Estimate) *Estimate {
	if e == nil {
		return nil
	}
	return &Estimate{Cardinality: e.Card, Messages: e.Msgs, Cost: e.Cost}
}

func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "/#"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}
