package table

import (
	"encoding/binary"
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
	// KindTime is timestamp storage: an instant, held as its UTC Unix
	// nanoseconds.
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

// Promote unifies two kinds into the narrowest column kind that holds the
// cells of both: NULL yields to the other kind, int with float is float,
// and any other pair of different kinds is string. FromRecords types a
// column's cells by it, and the SQL engine the arms of a CASE or COALESCE.
func Promote(a, b Kind) Kind {
	if a == KindNull {
		return b
	}
	if b == KindNull || a == b {
		return a
	}
	if (a == KindInt && b == KindFloat) || (a == KindFloat && b == KindInt) {
		return KindFloat
	}
	return KindString
}

// Coerce converts v into a cell of kind k, the conversions Promote implies:
// NULL and a value of kind k stay as they are, an int widens into a float,
// and any value becomes its AsString text in a string cell. ok is false
// for every other pair.
func (k Kind) Coerce(v Value) (Value, bool) {
	switch {
	case v.IsNull() || v.Kind == k:
		return v, true
	case k == KindFloat && v.Kind == KindInt:
		return Float(float64(v.I)), true
	case k == KindString:
		return Str(v.AsString()), true
	}
	return v, false
}

// Value is a dynamically typed cell value. The zero Value is NULL. Kind
// selects which of the payload fields below is meaningful; the others
// hold their zero values.
type Value struct {
	Kind Kind
	I    int64   // payload when Kind == KindInt, and KindTime's UTC Unix nanoseconds
	F    float64 // payload when Kind == KindFloat
	S    string  // payload when Kind == KindString
	B    bool    // payload when Kind == KindBool
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

// Time wraps the instant t as its UTC Unix nanoseconds, dropping its zone.
// It panics when InTimeRange(t) is false, as Column.Append does on a value
// of another kind: callers holding an instant from outside check first.
func Time(t time.Time) Value {
	if !InTimeRange(t) {
		panic(fmt.Sprintf("table: %s has no int64 Unix nanosecond count", t))
	}
	return Value{Kind: KindTime, I: t.UnixNano()}
}

// InTimeRange reports whether a time cell can hold t: whether t has an
// int64 count of Unix nanoseconds, from 1677-09-21 00:12:43.145224192 to
// 2262-04-11 23:47:16.854775807 UTC, the range of Arrow's and pandas'
// datetime64[ns].
func InTimeRange(t time.Time) bool {
	return !t.Before(time.Unix(0, math.MinInt64)) && !t.After(time.Unix(0, math.MaxInt64))
}

// Time returns a time value's instant, in UTC.
func (v Value) Time() time.Time { return time.Unix(0, v.I).UTC() }

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
		return float64(v.Time().Unix()), true
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

// AsString renders the value as a string; NULL renders as "". A time
// renders its UTC instant as 2006-01-02 15:04:05, then its fraction of a
// second when that is not zero, trailing zeros trimmed.
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
		return v.Time().Format("2006-01-02 15:04:05.999999999")
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

// Compare orders two values. NULL sorts first. Int, Float and Bool compare
// numerically with each other (an int pair exactly), and two Times
// chronologically. A Time against a String compares instants, the string
// read by CompareOperand; only a string that names no instant falls to text
// order, since Compare is a total order and cannot raise (the SQL engine's
// comparisons raise there instead). Any other pair — a Time against a
// number included — compares its string forms lexically. Returns -1, 0, or
// +1.
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
	a, _ = CompareOperand(b.Kind, a)
	b, _ = CompareOperand(a.Kind, b)
	// Int pairs compare exactly in int64: float64 conversion would conflate
	// integers beyond 2^53, and the vectorized engine's typed int paths are
	// exact, so the scalar path must be too. Two times compare their
	// nanoseconds the same way.
	if a.Kind == b.Kind && (a.Kind == KindInt || a.Kind == KindTime) {
		return ThreeWay(a.I, b.I)
	}
	if isNumericKind(a.Kind) && isNumericKind(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return ThreeWay(af, bf)
	}
	return strings.Compare(a.AsString(), b.AsString())
}

// CompareOperand is the one rule for a time compared with a string: v, an
// operand of a comparison whose other operand has kind other, as the
// comparison reads it. A string against a time is the instant
// KindTime.Parse reads from it, as ingest would store it (a date alone is
// midnight UTC); ok is false, and v comes back as it is, when the text
// names no instant, blank text included. Any other operand is v itself.
func CompareOperand(other Kind, v Value) (Value, bool) {
	if other != KindTime || v.Kind != KindString {
		return v, true
	}
	if t, ok := KindTime.Parse(v.S); ok && !t.IsNull() {
		return t, true
	}
	return v, false
}

func isNumericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// AppendKey appends v's equality key to dst: two cells' keys are equal
// exactly when = holds between them, NULL equal to NULL and NaN to NaN.
// After the Kind byte of its form, an int, a bool or an integral float in
// int64's range keys as that int64 (so 1, 1.0 and true are one key, and
// -0 is 0), any other float as its bits with one NaN, a string as its
// length then its bytes, and a time as its UTC Unix nanoseconds. Each form
// has a fixed size or carries its length, so tuples of keys never
// collide. Compare makes NaN equal to every number, and compares an int
// with a float past ±2^53 as float64, a string with a time as an instant
// and a string with another kind by string form; those pairs may key
// apart. Column.AppendKey writes the same bytes from typed storage.
// Nothing persists a key.
func AppendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt:
		return appendIntKey(dst, v.I)
	case KindFloat:
		return appendRealKey(dst, v.F)
	case KindString:
		return appendStringKey(dst, v.S)
	case KindBool:
		if v.B {
			return appendIntKey(dst, 1)
		}
		return appendIntKey(dst, 0)
	case KindTime:
		return appendTimeKey(dst, v.I)
	}
	return append(dst, byte(KindNull))
}

func appendIntKey(dst []byte, i int64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, byte(KindInt)), uint64(i))
}

func appendRealKey(dst []byte, f float64) []byte {
	switch {
	case f == math.Trunc(f) && f >= -1<<63 && f < 1<<63: // ±2^63 are exact float64s
		return appendIntKey(dst, int64(f))
	case f != f:
		f = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(f))
}

func appendStringKey(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(append(dst, byte(KindString)), uint64(len(s))), s...)
}

func appendTimeKey(dst []byte, nanos int64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, byte(KindTime)), uint64(nanos))
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

// Parse converts text into a cell of kind k exactly, or refuses it (ok
// false). It is the one way text becomes a stored cell:
//   - blank text (after TrimSpace) is NULL, for every kind;
//   - string: the text as given;
//   - int: decimal-integer text in range, or other number text whose
//     float64 value is an integer within int64 (so 2.0 and 1e3 are 2 and
//     1000, and 1.5 or 1e300 is refused);
//   - float: any text strconv.ParseFloat takes;
//   - bool: true or false, in any ASCII case;
//   - time: a ParseTime layout whose instant InTimeRange accepts, held as
//     its UTC Unix nanoseconds (so 9999-12-31 is refused).
//
// Anything else is refused. A parser runs only when the text could be one
// it accepts — ParseInt on the exact shape of a decimal integer, the others
// on their first byte — because a failed strconv or time parse allocates
// its error, and a refused cell should cost nothing.
func (k Kind) Parse(text string) (Value, bool) {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return Null(), true
	}
	switch k {
	case KindString:
		return Str(text), true
	case KindInt:
		if isDecimalInteger(trimmed) {
			if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
				return Int(i), true
			}
		} else if startsNumber(trimmed) {
			// ±2^63 are exact float64s, so the bounds are exact too.
			if f, err := strconv.ParseFloat(trimmed, 64); err == nil && f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
				return Int(int64(f)), true
			}
		}
	case KindFloat:
		if startsNumber(trimmed) {
			if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
				return Float(f), true
			}
		}
	case KindBool:
		// The byte lengths keep EqualFold to ASCII: "falſe" folds to
		// "false" but is six bytes long.
		if len(trimmed) == len("true") && strings.EqualFold(trimmed, "true") {
			return Bool(true), true
		}
		if len(trimmed) == len("false") && strings.EqualFold(trimmed, "false") {
			return Bool(false), true
		}
	case KindTime:
		if c := trimmed[0]; c >= '0' && c <= '9' { // every layout of timeFormats begins with the year
			if t, ok := ParseTime(trimmed); ok && InTimeRange(t) {
				return Time(t), true
			}
		}
	}
	return Null(), false
}

// CellError is a cell its column's kind cannot hold exactly: Kind.Parse
// refused its text, or WAL recovery a logged time cell outside InTimeRange.
type CellError struct {
	Column string
	Kind   Kind
	Cell   string
}

func (e *CellError) Error() string {
	return fmt.Sprintf("column %q (%s) cannot hold %q", e.Column, e.Kind, e.Cell)
}

// Infer guesses the most specific Value for a raw string: int, float, bool,
// time, then string; empty strings become NULL. Only decimal-integer text is
// an int — 2.0 and 1e3 infer as floats — and every guess is Kind.Parse, so
// a cell infers to the value its kind would store.
func Infer(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null()
	}
	if isDecimalInteger(trimmed) {
		if v, ok := KindInt.Parse(trimmed); ok {
			return v
		}
	}
	for _, k := range [...]Kind{KindFloat, KindBool, KindTime} {
		if v, ok := k.Parse(trimmed); ok {
			return v
		}
	}
	return Str(s)
}

// isDecimalInteger reports whether s matches [+-]?[0-9]+, the only text
// strconv.ParseInt(s, 10, 64) accepts; out-of-range values still fail there.
func isDecimalInteger(s string) bool {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// startsNumber reports whether non-empty s begins the way text that
// strconv.ParseFloat accepts must: with a digit, a sign or a point, or with
// one of the only unsigned non-digit spellings, "inf"/"infinity" and "nan"
// in any case.
func startsNumber(s string) bool {
	if c := s[0]; c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.' {
		return true
	}
	return len(s) >= 3 && (strings.EqualFold(s[:3], "inf") || strings.EqualFold(s[:3], "nan"))
}
