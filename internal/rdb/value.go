// Package rdb implements the in-memory relational engine that plays the
// role of the per-dataset MySQL instances in the paper's data lake: typed
// tables with primary keys, hash and ordered secondary indexes, per-column
// statistics, and an executor for the SQL subset of package sql with a
// cost-guided access-path and join-order planner.
//
// The engine deliberately honours physical design the way a production
// RDBMS does — predicates over indexed columns become index scans, and
// equi-joins over indexed columns become index nested-loop joins — because
// the paper's heuristics are precisely about whether the federated layer
// can exploit those indexes.
//
// The executor runs over row ordinals, not row copies: a base relation is
// a list of ordinals into its table, a join output one ordinal per
// relation, and every predicate is compiled once per statement against
// (relation, column ordinal). Execute returns the result as ordinals
// (Rows); Query parses a statement's text and materializes them.
package rdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"ontario/internal/sql"
)

// Type enumerates column types.
type Type int

// Column types.
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	default:
		return "BOOLEAN"
	}
}

// Value is a typed SQL value. Null values have Null == true; the remaining
// fields are then meaningless.
type Value struct {
	Type  Type
	Null  bool
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// NullValue returns the NULL of the given type.
func NullValue(t Type) Value { return Value{Type: t, Null: true} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Type: TypeInt, Int: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Type: TypeFloat, Float: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Type: TypeString, Str: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value { return Value{Type: TypeBool, Bool: v} }

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.Str
	}
}

// Equal reports whether two values are equal. NULL equals nothing,
// including NULL (SQL semantics would yield unknown; we return false).
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return false
	}
	c, ok := v.compare(o)
	return ok && c == 0
}

// Compare returns -1/0/1 and whether the values are comparable. NULLs are
// incomparable.
func (v Value) Compare(o Value) (int, bool) {
	if v.Null || o.Null {
		return 0, false
	}
	return v.compare(o)
}

func (v Value) compare(o Value) (int, bool) {
	// Numeric cross-type comparison.
	if v.isNumeric() && o.isNumeric() {
		a, b := v.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Type != o.Type {
		return 0, false
	}
	switch v.Type {
	case TypeString:
		return strings.Compare(v.Str, o.Str), true
	case TypeBool:
		switch {
		case v.Bool == o.Bool:
			return 0, true
		case !v.Bool:
			return -1, true
		default:
			return 1, true
		}
	default:
		return 0, false
	}
}

func (v Value) isNumeric() bool { return v.Type == TypeInt || v.Type == TypeFloat }

func (v Value) asFloat() float64 {
	if v.Type == TypeInt {
		return float64(v.Int)
	}
	return v.Float
}

// FromLiteral converts a sql.Literal to a Value, coercing to the column
// type t when possible.
func FromLiteral(l sql.Literal, t Type) (Value, error) {
	switch l.Kind {
	case sql.LitNull:
		return NullValue(t), nil
	case sql.LitString:
		switch t {
		case TypeString:
			return StringValue(l.Str), nil
		case TypeInt:
			n, err := strconv.ParseInt(l.Str, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("rdb: cannot coerce %q to INTEGER", l.Str)
			}
			return IntValue(n), nil
		case TypeFloat:
			f, err := strconv.ParseFloat(l.Str, 64)
			if err != nil {
				return Value{}, fmt.Errorf("rdb: cannot coerce %q to DOUBLE", l.Str)
			}
			return FloatValue(f), nil
		case TypeBool:
			switch strings.ToLower(l.Str) {
			case "true", "1":
				return BoolValue(true), nil
			case "false", "0":
				return BoolValue(false), nil
			}
			return Value{}, fmt.Errorf("rdb: cannot coerce %q to BOOLEAN", l.Str)
		}
	case sql.LitInt:
		switch t {
		case TypeInt:
			return IntValue(l.Int), nil
		case TypeFloat:
			return FloatValue(float64(l.Int)), nil
		case TypeString:
			return StringValue(strconv.FormatInt(l.Int, 10)), nil
		case TypeBool:
			return BoolValue(l.Int != 0), nil
		}
	case sql.LitFloat:
		switch t {
		case TypeFloat:
			return FloatValue(l.Float), nil
		case TypeInt:
			return IntValue(int64(l.Float)), nil
		case TypeString:
			return StringValue(strconv.FormatFloat(l.Float, 'g', -1, 64)), nil
		}
	case sql.LitBool:
		if t == TypeBool {
			return BoolValue(l.Bool), nil
		}
		if t == TypeString {
			if l.Bool {
				return StringValue("true"), nil
			}
			return StringValue("false"), nil
		}
	}
	return Value{}, fmt.Errorf("rdb: cannot coerce literal %s to %s", l.String(), t)
}

// valueKey is a value's identity under IndexKey's equality, kept typed so
// a hash join or DISTINCT compares values without building a string.
type valueKey struct {
	kind byte // 0 NULL, 1 numeric, 2 bool, 3 string
	bits uint64
	str  string
}

func (v Value) key() valueKey {
	switch {
	case v.Null:
		return valueKey{}
	case v.Type == TypeInt:
		return valueKey{kind: 1, bits: uint64(v.Int) ^ (1 << 63)}
	case v.Type == TypeFloat:
		bits := math.Float64bits(v.Float)
		if v.Float >= 0 || bits == 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		return valueKey{kind: 1, bits: bits}
	case v.Type == TypeBool:
		if v.Bool {
			return valueKey{kind: 2, bits: 1}
		}
		return valueKey{kind: 2}
	default:
		return valueKey{kind: 3, str: v.Str}
	}
}

// IndexKey encodes the value as an order-preserving byte-comparable string
// so an ordered index keeps values in type order. NULLs sort first.
func (v Value) IndexKey() string {
	switch k := v.key(); k.kind {
	case 0:
		return "\x00"
	case 1:
		var buf [9]byte
		buf[0] = 0x01
		binary.BigEndian.PutUint64(buf[1:], k.bits)
		return string(buf[:])
	case 2:
		return string([]byte{0x02, byte(k.bits)})
	default:
		return "\x03" + k.str
	}
}
