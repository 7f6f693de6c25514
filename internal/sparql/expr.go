package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"ontario/internal/rdf"
)

// Expr is a SPARQL filter expression. Eval returns the value of the
// expression under a binding; EBV coercion is applied by callers that need a
// boolean (see EvalBool).
type Expr interface {
	Eval(b Binding) (Value, error)
	// Vars returns the variables the expression references.
	Vars() []string
	String() string
}

// ValueKind enumerates the runtime value kinds of expression evaluation.
type ValueKind int

const (
	// ValNull marks an error value (unbound variable, type error); filters
	// evaluating to ValNull reject the solution, per SPARQL semantics.
	ValNull ValueKind = iota
	ValBool
	ValNumber
	ValString
	ValTerm // a non-literal RDF term (IRI or blank node)
)

// Value is the result of expression evaluation.
type Value struct {
	Kind ValueKind
	Bool bool
	Num  float64
	Str  string
	Lang string // a ValString's language tag; empty for a simple literal
	Term rdf.Term
}

// Null is the error value.
var Null = Value{Kind: ValNull}

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return Value{Kind: ValBool, Bool: b} }

// NumberValue wraps a number.
func NumberValue(f float64) Value { return Value{Kind: ValNumber, Num: f} }

// StringValue wraps a string.
func StringValue(s string) Value { return Value{Kind: ValString, Str: s} }

// TermValue wraps an RDF term, coercing literals to their typed value.
func TermValue(t rdf.Term) Value {
	if t.Kind != rdf.TermLiteral {
		return Value{Kind: ValTerm, Term: t}
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
			return NumberValue(f)
		}
		return Null
	case rdf.XSDBoolean:
		switch t.Value {
		case "true", "1":
			return BoolValue(true)
		case "false", "0":
			return BoolValue(false)
		}
		return Null
	default:
		return Value{Kind: ValString, Str: t.Value, Lang: t.Lang}
	}
}

// EBV returns the SPARQL effective boolean value of v.
func (v Value) EBV() (bool, error) {
	switch v.Kind {
	case ValBool:
		return v.Bool, nil
	case ValNumber:
		return v.Num != 0, nil
	case ValString:
		return v.Str != "", nil
	case ValNull:
		return false, fmt.Errorf("sparql: type error in effective boolean value")
	default:
		return false, fmt.Errorf("sparql: EBV of non-literal term %s", v.Term)
	}
}

// EvalBool evaluates e under b and applies EBV coercion. Errors (including
// unbound variables) yield false, matching SPARQL filter semantics.
func EvalBool(e Expr, b Binding) bool {
	v, err := e.Eval(b)
	if err != nil {
		return false
	}
	ok, err := v.EBV()
	return err == nil && ok
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e *VarExpr) Eval(b Binding) (Value, error) {
	t, ok := b[e.Name]
	if !ok {
		return Null, fmt.Errorf("sparql: unbound variable ?%s", e.Name)
	}
	return TermValue(t), nil
}

// Vars implements Expr.
func (e *VarExpr) Vars() []string { return []string{e.Name} }

func (e *VarExpr) String() string { return "?" + e.Name }

// ConstExpr is a constant RDF term.
type ConstExpr struct{ Term rdf.Term }

// Eval implements Expr.
func (e *ConstExpr) Eval(Binding) (Value, error) { return TermValue(e.Term), nil }

// Vars implements Expr.
func (e *ConstExpr) Vars() []string { return nil }

func (e *ConstExpr) String() string { return e.Term.String() }

// CompareOp enumerates comparison operators.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// CompareExpr is a binary comparison.
type CompareExpr struct {
	Op   CompareOp
	L, R Expr
}

// Eval implements Expr.
func (e *CompareExpr) Eval(b Binding) (Value, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return Null, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return Null, err
	}
	cmp, eqOnly, err := compareValues(lv, rv)
	if err != nil {
		return Null, err
	}
	if eqOnly && e.Op != OpEq && e.Op != OpNeq {
		return Null, fmt.Errorf("sparql: ordering not defined for operands")
	}
	switch e.Op {
	case OpEq:
		return BoolValue(cmp == 0), nil
	case OpNeq:
		return BoolValue(cmp != 0), nil
	case OpLt:
		return BoolValue(cmp < 0), nil
	case OpLe:
		return BoolValue(cmp <= 0), nil
	case OpGt:
		return BoolValue(cmp > 0), nil
	default:
		return BoolValue(cmp >= 0), nil
	}
}

// compareValues compares two values, returning (-1|0|1, whether only
// equality is meaningful, error). A language-tagged literal equals only
// the same term; any other comparison involving one is a type error.
func compareValues(l, r Value) (cmp int, eqOnly bool, err error) {
	if l.Kind == ValNull || r.Kind == ValNull {
		return 0, false, fmt.Errorf("sparql: comparison with error value")
	}
	if l.Lang != "" || r.Lang != "" {
		if l.Kind == r.Kind && l.Str == r.Str && strings.EqualFold(l.Lang, r.Lang) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("sparql: language-tagged literal compared with another term")
	}
	if l.Kind == ValNumber && r.Kind == ValNumber {
		switch {
		case l.Num < r.Num:
			return -1, false, nil
		case l.Num > r.Num:
			return 1, false, nil
		default:
			return 0, false, nil
		}
	}
	if l.Kind == ValString && r.Kind == ValString {
		return strings.Compare(l.Str, r.Str), false, nil
	}
	if l.Kind == ValBool && r.Kind == ValBool {
		switch {
		case l.Bool == r.Bool:
			return 0, true, nil
		default:
			return 1, true, nil
		}
	}
	if l.Kind == ValTerm && r.Kind == ValTerm {
		if l.Term == r.Term {
			return 0, true, nil
		}
		return 1, true, nil
	}
	return 0, false, fmt.Errorf("sparql: incomparable operand kinds")
}

// Vars implements Expr.
func (e *CompareExpr) Vars() []string { return unionVars(e.L.Vars(), e.R.Vars()) }

func (e *CompareExpr) String() string {
	return e.L.String() + " " + e.Op.String() + " " + e.R.String()
}

// LogicOp enumerates && and ||.
type LogicOp int

// Logical operators.
const (
	OpAnd LogicOp = iota
	OpOr
)

// LogicExpr is a binary logical expression with SPARQL three-valued
// semantics.
type LogicExpr struct {
	Op   LogicOp
	L, R Expr
}

// Eval implements Expr.
func (e *LogicExpr) Eval(b Binding) (Value, error) {
	lv, lerr := evalEBV(e.L, b)
	rv, rerr := evalEBV(e.R, b)
	if e.Op == OpAnd {
		switch {
		case lerr == nil && rerr == nil:
			return BoolValue(lv && rv), nil
		case lerr == nil && !lv:
			return BoolValue(false), nil
		case rerr == nil && !rv:
			return BoolValue(false), nil
		default:
			return Null, fmt.Errorf("sparql: error in && operand")
		}
	}
	switch {
	case lerr == nil && rerr == nil:
		return BoolValue(lv || rv), nil
	case lerr == nil && lv:
		return BoolValue(true), nil
	case rerr == nil && rv:
		return BoolValue(true), nil
	default:
		return Null, fmt.Errorf("sparql: error in || operand")
	}
}

func evalEBV(e Expr, b Binding) (bool, error) {
	v, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	return v.EBV()
}

// Vars implements Expr.
func (e *LogicExpr) Vars() []string { return unionVars(e.L.Vars(), e.R.Vars()) }

func (e *LogicExpr) String() string {
	op := " && "
	if e.Op == OpOr {
		op = " || "
	}
	return "(" + e.L.String() + op + e.R.String() + ")"
}

// NotExpr is logical negation.
type NotExpr struct{ X Expr }

// Eval implements Expr.
func (e *NotExpr) Eval(b Binding) (Value, error) {
	v, err := evalEBV(e.X, b)
	if err != nil {
		return Null, err
	}
	return BoolValue(!v), nil
}

// Vars implements Expr.
func (e *NotExpr) Vars() []string { return e.X.Vars() }

func (e *NotExpr) String() string { return "!(" + e.X.String() + ")" }

// FuncExpr is a builtin function call. Supported: REGEX, CONTAINS,
// STRSTARTS, STRENDS, STR, BOUND, LANG, DATATYPE, UCASE, LCASE, STRLEN.
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

// Eval implements Expr.
func (e *FuncExpr) Eval(b Binding) (Value, error) {
	switch e.Name {
	case "BOUND":
		v, ok := e.Args[0].(*VarExpr)
		if !ok {
			return Null, fmt.Errorf("sparql: BOUND requires a variable")
		}
		_, bound := b[v.Name]
		return BoolValue(bound), nil
	case "REGEX":
		s, err := e.argString(0, b)
		if err != nil {
			return Null, err
		}
		pat, err := e.argString(1, b)
		if err != nil {
			return Null, err
		}
		flags := ""
		if len(e.Args) > 2 {
			flags, err = e.argString(2, b)
			if err != nil {
				return Null, err
			}
		}
		if strings.Contains(flags, "i") {
			pat = "(?i)" + pat
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return Null, fmt.Errorf("sparql: bad REGEX pattern: %w", err)
		}
		return BoolValue(re.MatchString(s)), nil
	case "CONTAINS":
		return e.binaryString(b, strings.Contains)
	case "STRSTARTS":
		return e.binaryString(b, strings.HasPrefix)
	case "STRENDS":
		return e.binaryString(b, strings.HasSuffix)
	case "STR":
		v, err := e.Args[0].Eval(b)
		if err != nil {
			return Null, err
		}
		return StringValue(valueLexical(v)), nil
	case "UCASE":
		v, err := e.argValue(0, b)
		if err != nil {
			return Null, err
		}
		return Value{Kind: ValString, Str: strings.ToUpper(v.Str), Lang: v.Lang}, nil
	case "LCASE":
		v, err := e.argValue(0, b)
		if err != nil {
			return Null, err
		}
		return Value{Kind: ValString, Str: strings.ToLower(v.Str), Lang: v.Lang}, nil
	case "STRLEN":
		s, err := e.argString(0, b)
		if err != nil {
			return Null, err
		}
		return NumberValue(float64(len([]rune(s)))), nil
	case "LANG":
		v, ok := e.Args[0].(*VarExpr)
		if !ok {
			return Null, fmt.Errorf("sparql: LANG requires a variable")
		}
		t, bound := b[v.Name]
		if !bound || t.Kind != rdf.TermLiteral {
			return Null, fmt.Errorf("sparql: LANG of non-literal")
		}
		return StringValue(t.Lang), nil
	case "DATATYPE":
		v, ok := e.Args[0].(*VarExpr)
		if !ok {
			return Null, fmt.Errorf("sparql: DATATYPE requires a variable")
		}
		t, bound := b[v.Name]
		if !bound || t.Kind != rdf.TermLiteral {
			return Null, fmt.Errorf("sparql: DATATYPE of non-literal")
		}
		dt := t.Datatype
		switch {
		case t.Lang != "":
			dt = rdf.RDFLangString
		case dt == "":
			dt = rdf.XSDString
		}
		return Value{Kind: ValTerm, Term: rdf.NewIRI(dt)}, nil
	default:
		return Null, fmt.Errorf("sparql: unsupported function %s", e.Name)
	}
}

// binaryString applies f to two argument-compatible string literals
// (SPARQL 1.1 §17.4.3.1.1): the second is a simple literal, or both carry
// the same language tag.
func (e *FuncExpr) binaryString(b Binding, f func(string, string) bool) (Value, error) {
	s, err := e.argValue(0, b)
	if err != nil {
		return Null, err
	}
	t, err := e.argValue(1, b)
	if err != nil {
		return Null, err
	}
	if t.Lang != "" && !strings.EqualFold(s.Lang, t.Lang) {
		return Null, fmt.Errorf("sparql: %s: incompatible language tags", e.Name)
	}
	return BoolValue(f(s.Str, t.Str)), nil
}

// argValue evaluates argument i, which must be a string literal.
func (e *FuncExpr) argValue(i int, b Binding) (Value, error) {
	if i >= len(e.Args) {
		return Null, fmt.Errorf("sparql: %s: missing argument %d", e.Name, i)
	}
	v, err := e.Args[i].Eval(b)
	if err != nil {
		return Null, err
	}
	if v.Kind != ValString {
		return Null, fmt.Errorf("sparql: %s: argument %d is not a string", e.Name, i)
	}
	return v, nil
}

func (e *FuncExpr) argString(i int, b Binding) (string, error) {
	v, err := e.argValue(i, b)
	return v.Str, err
}

func valueLexical(v Value) string {
	switch v.Kind {
	case ValString:
		return v.Str
	case ValNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case ValBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case ValTerm:
		return v.Term.Value
	default:
		return ""
	}
}

// Vars implements Expr.
func (e *FuncExpr) Vars() []string {
	var out []string
	for _, a := range e.Args {
		out = unionVars(out, a.Vars())
	}
	return out
}

func (e *FuncExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

func unionVars(a, b []string) []string {
	seen := make(map[string]bool, len(a))
	out := append([]string(nil), a...)
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
