package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the column/value types the engine supports.
type Kind uint8

const (
	// KindNull is the kind of NULL cells and of columns with no typed
	// storage yet; it is the zero Kind.
	KindNull Kind = iota
	// KindInt is 64-bit integer storage.
	KindInt
	// KindFloat is 64-bit floating-point storage.
	KindFloat
	// KindString is string storage.
	KindString
	// KindBool is boolean storage.
	KindBool
	// KindTime is timestamp storage.
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value. The zero Value is NULL. Kind
// selects which of the payload fields below is meaningful; the others
// hold their zero values.
type Value struct {
	Kind Kind
	I    int64     // payload when Kind == KindInt
	F    float64   // payload when Kind == KindFloat
	S    string    // payload when Kind == KindString
	B    bool      // payload when Kind == KindBool
	T    time.Time // payload when Kind == KindTime
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Time wraps a time.Time.
func Time(t time.Time) Value { return Value{Kind: KindTime, T: t} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64. Booleans convert to 0/1,
// times to Unix seconds. The second result is false for NULL and strings
// that do not parse as numbers.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KindTime:
		return float64(v.T.Unix()), true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsInt converts to int64 where lossless-ish; floats truncate.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return i, err == nil
	default:
		return 0, false
	}
}

// AsString renders the value as a string; NULL renders as "".
func (v Value) AsString() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindTime:
		return v.T.Format("2006-01-02 15:04:05")
	default:
		return ""
	}
}

// AsBool interprets truthiness: non-zero numbers, "true"/"1" strings.
func (v Value) AsBool() (bool, bool) {
	switch v.Kind {
	case KindBool:
		return v.B, true
	case KindInt:
		return v.I != 0, true
	case KindFloat:
		return v.F != 0, true
	case KindString:
		s := strings.ToLower(strings.TrimSpace(v.S))
		if s == "true" || s == "1" {
			return true, true
		}
		if s == "false" || s == "0" {
			return false, true
		}
		return false, false
	default:
		return false, false
	}
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	if v.Kind == KindString {
		return strconv.Quote(v.S)
	}
	return v.AsString()
}

// Compare orders two values. NULL sorts first. Numeric kinds compare
// numerically across Int/Float/Bool/Time; otherwise the string forms
// compare lexically. Returns -1, 0, or +1.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	// Int pairs compare exactly in int64: float64 conversion would conflate
	// integers beyond 2^53, and the vectorized engine's typed int paths are
	// exact, so the scalar path must be too.
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	if isNumericKind(a.Kind) && isNumericKind(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == KindTime && b.Kind == KindTime {
		switch {
		case a.T.Before(b.T):
			return -1
		case a.T.After(b.T):
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.AsString(), b.AsString())
}

func isNumericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Equal reports semantic equality under Compare. NULL equals NULL here
// (useful for grouping keys and result comparison; SQL three-valued logic
// is handled in the expression evaluator, not here).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a canonical string key for grouping and multiset comparison.
// Floats are rounded to 9 decimal places so that arithmetic noise does not
// split groups or fail execution-accuracy checks.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00null"
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return "i:" + strconv.FormatInt(int64(v.F), 10)
		}
		return "f:" + strconv.FormatFloat(round9(v.F), 'g', -1, 64)
	case KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.B {
			return "i:1"
		}
		return "i:0"
	case KindTime:
		return "t:" + strconv.FormatInt(v.T.Unix(), 10)
	default:
		return "s:" + v.S
	}
}

func round9(f float64) float64 {
	return math.Round(f*1e9) / 1e9
}

// Coerce attempts to convert v to the target kind, returning NULL when the
// conversion is impossible. Used by CSV ingestion and schema alignment.
func (v Value) Coerce(k Kind) Value {
	if v.IsNull() || v.Kind == k {
		return v
	}
	switch k {
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return Int(i)
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f)
		}
	case KindString:
		return Str(v.AsString())
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return Bool(b)
		}
	case KindTime:
		if v.Kind == KindString {
			if t, ok := ParseTime(v.S); ok {
				return Time(t)
			}
		}
	}
	return Null()
}

// timeFormats are the layouts ParseTime attempts, most specific first.
var timeFormats = []string{
	"2006-01-02 15:04:05",
	time.RFC3339,
	"2006-01-02",
	"2006/01/02",
	"20060102",
	"2006-01",
}

// ParseTime parses the common date/timestamp layouts found in BI data.
func ParseTime(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	for _, layout := range timeFormats {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// Infer guesses the most specific Value for a raw string: int, float, bool,
// time, then string. Empty strings become NULL. A parser runs only when the
// text's first byte is one it could accept — a failed strconv or time parse
// allocates its error, and most cells of a text column would fail all eight.
func Infer(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null()
	}
	c := trimmed[0]
	digit := c >= '0' && c <= '9'
	signed := digit || c == '+' || c == '-'
	if signed {
		if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
			return Int(i)
		}
	}
	if signed || c == '.' || startsInfOrNaN(trimmed) {
		if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
			return Float(f)
		}
	}
	if c == 't' || c == 'T' || c == 'f' || c == 'F' {
		switch strings.ToLower(trimmed) {
		case "true":
			return Bool(true)
		case "false":
			return Bool(false)
		}
	}
	if digit { // every layout of timeFormats begins with the year
		if t, ok := ParseTime(trimmed); ok {
			return Time(t)
		}
	}
	return Str(s)
}

// startsInfOrNaN reports whether s begins with the only unsigned non-digit
// spellings strconv.ParseFloat accepts: "inf"/"infinity" and "nan", in any
// case.
func startsInfOrNaN(s string) bool {
	return len(s) >= 3 && (strings.EqualFold(s[:3], "inf") || strings.EqualFold(s[:3], "nan"))
}
