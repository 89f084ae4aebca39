// Package relation is a small in-memory relational engine: typed values,
// schemas, tables, and the physical operators (filter, project, hash join,
// aggregation, sort) the federation layer executes queries with.
//
// It is the substrate standing in for the DBMSes of the paper's testbed:
// remote servers host base relation.Tables, the DSS hosts replica
// snapshots, and internal/sqlmini compiles a SQL subset onto these
// operators.
package relation

import (
	"fmt"
	"strings"
	"time"
)

// Type enumerates the column types the engine supports.
type Type int

const (
	// Int is a 64-bit signed integer.
	Int Type = iota + 1
	// Float is a 64-bit IEEE float.
	Float
	// Str is a UTF-8 string.
	Str
	// Date is a calendar day, stored as days since 1970-01-01 (UTC).
	Date
)

// String names the type for error messages and schema dumps.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one typed cell. Exactly one of the payload fields is meaningful,
// selected by T; the zero Value is invalid and only appears before
// initialization.
type Value struct {
	T Type
	I int64   // Int and Date payload
	F float64 // Float payload
	S string  // Str payload
}

// IntVal returns an Int value.
func IntVal(v int64) Value { return Value{T: Int, I: v} }

// FloatVal returns a Float value.
func FloatVal(v float64) Value { return Value{T: Float, F: v} }

// StrVal returns a Str value.
func StrVal(v string) Value { return Value{T: Str, S: v} }

// DateVal returns a Date value from days since the Unix epoch.
func DateVal(days int64) Value { return Value{T: Date, I: days} }

// DateOf returns the Date value for a calendar day.
func DateOf(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return DateVal(t.Unix() / 86400)
}

// ParseDate parses a "YYYY-MM-DD" literal into a Date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("relation: parse date %q: %w", s, err)
	}
	return DateVal(t.Unix() / 86400), nil
}

// AsFloat converts numeric values to float64 for arithmetic; it reports
// false for strings and dates.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case Int:
		return float64(v.I), true
	case Float:
		return v.F, true
	default:
		return 0, false
	}
}

// String renders the value for output rows.
func (v Value) String() string {
	switch v.T {
	case Int:
		return fmt.Sprintf("%d", v.I)
	case Float:
		return fmt.Sprintf("%.4f", v.F)
	case Str:
		return v.S
	case Date:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	default:
		return "<invalid>"
	}
}

// Compare orders two values. Int and Float compare numerically with each
// other; Str compares with Str; Date with Date. Comparing incompatible
// types returns an error.
func Compare(a, b Value) (int, error) {
	if af, ok := a.AsFloat(); ok {
		if bf, ok := b.AsFloat(); ok {
			return compareFloat(af, bf), nil
		}
		return 0, typeMismatch(a, b)
	}
	switch {
	case a.T == Str && b.T == Str:
		return strings.Compare(a.S, b.S), nil
	case a.T == Date && b.T == Date:
		return compareInt(a.I, b.I), nil
	default:
		return 0, typeMismatch(a, b)
	}
}

// Equal reports whether two values compare equal; incompatible types are
// simply unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func typeMismatch(a, b Value) error {
	return fmt.Errorf("relation: cannot compare %s with %s", a.T, b.T)
}
