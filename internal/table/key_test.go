package table

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// keyOf is v's equality key as a string, for tests that compare cells.
func keyOf(v Value) string { return string(AppendKey(nil, v)) }

// TestAppendKeyTuples: every kind's key reads the same from a column of
// its kind as from its Value, and keys appended one after another delimit
// themselves, so tuples whose cells would run together if joined with a
// separator byte key apart, and EqualData tells them apart.
func TestAppendKeyTuples(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(math.MinInt64), Int(math.MaxInt64), Bool(true), Bool(false),
		Float(3), Float(-0.5), Float(-123456789012345.67), Float(-1.2345678901234567e-300),
		Float(math.MaxFloat64), Float(math.Inf(-1)), Float(math.NaN()),
		Time(time.Unix(0, math.MinInt64)), Time(time.Unix(0, math.MaxInt64)),
		Str(""), Str("x\x1fs:y"), Str(strings.Repeat("w", 300)),
	}
	for _, v := range vals {
		typed := columnOf("t", v.Kind, []Value{Null(), v})
		want := AppendKey([]byte("prefix"), v)
		if got := typed.AppendKey([]byte("prefix"), 1); !bytes.Equal(got, want) {
			t.Errorf("typed %v keys as %q, want %q", v, got, want)
		}
	}

	a := AppendKey(AppendKey(nil, Str("x\x1fs:y")), Str("z"))
	b := AppendKey(AppendKey(nil, Str("x")), Str("y\x1fs:z"))
	if bytes.Equal(a, b) {
		t.Fatalf("(%q, %q) and (%q, %q) key alike: %q", "x\x1fs:y", "z", "x", "y\x1fs:z", a)
	}
	ta := MustNew("a", []string{"a", "b"}, []Kind{KindString, KindString})
	ta.MustAppendRow(Str("x\x1fs:y"), Str("z"))
	tb := MustNew("b", []string{"a", "b"}, []Kind{KindString, KindString})
	tb.MustAppendRow(Str("x"), Str("y\x1fs:z"))
	if EqualData(ta, tb) {
		t.Error("EqualData matched rows whose key tuples differ")
	}
}

// fuzzCell builds a cell from p: p[0] picks the kind (an empty p is NULL)
// and the rest, up to eight bytes little-endian, is the payload. A short
// int or float payload is sign-extended, and a float's is then quartered,
// so small integers, halves and quarters of either kind meet; eight bytes
// are an int's value or a float's bits. A time is Unix seconds in the low
// half and nanoseconds in the high half, in a fixed zone when a ninth
// byte is odd.
func fuzzCell(p []byte) Value {
	if len(p) == 0 {
		return Null()
	}
	kind, p := p[0], p[1:]
	var u uint64
	for i := 0; i < len(p) && i < 8; i++ {
		u |= uint64(p[i]) << (8 * i)
	}
	if n := len(p); n > 0 && n < 8 && p[n-1]&0x80 != 0 {
		u |= ^uint64(0) << (8 * n)
	}
	switch kind % 6 {
	case 1:
		return Int(int64(u))
	case 2:
		if len(p) >= 8 {
			return Float(math.Float64frombits(u))
		}
		return Float(float64(int64(u)) / 4)
	case 3:
		return Str(string(p))
	case 4:
		return Bool(u&1 == 1)
	case 5:
		at := time.Unix(int64(int32(u)), int64(u>>32%1e9))
		if len(p) > 8 && p[8]&1 == 1 {
			at = at.In(time.FixedZone("X", -5*3600))
		}
		return Time(at)
	}
	return Null()
}

// FuzzEqualKey: for four cells built from fuzz bytes, each key reads the
// same from the Value and from a column of its kind; two cells
// key alike exactly when Compare makes them equal, but for the exceptions
// AppendKey states — NaN against another number and a string against
// another kind key apart, and an int against a float past ±2^53 is not
// checked; and the two-cell tuples (c0, c1) and (c2, c3) key alike only
// when their cells do.
func FuzzEqualKey(f *testing.F) {
	le := func(kind byte, u uint64) []byte {
		b := []byte{kind}
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
		return b
	}
	str := func(s string) []byte { return append([]byte{3}, s...) }
	flt := func(x float64) []byte { return le(2, math.Float64bits(x)) }
	f.Add(str("x\x1fs:y"), str("z"), str("x"), str("y\x1fs:z"))
	f.Add(flt(0.3), flt(math.Nextafter(0.3, 1)), flt(math.Copysign(0, -1)), flt(0))
	f.Add(flt(math.NaN()), flt(1), []byte{1, 1}, []byte{4, 1})
	f.Add(le(1, 1<<53+1), flt(1<<53), le(1, 1<<53), []byte{2, 4})
	f.Add(le(5, 7), le(5, 7|1<<32), le(5, 7|500e6<<32), append(le(5, 7), 1))
	f.Add(str("a"), str("a\x00"), []byte{}, str("1"))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 []byte) {
		cells := []Value{fuzzCell(p0), fuzzCell(p1), fuzzCell(p2), fuzzCell(p3)}
		keys := make([]string, len(cells))
		for i, v := range cells {
			keys[i] = keyOf(v)
			typed := columnOf("t", v.Kind, cells[i:i+1])
			if got := string(typed.AppendKey(nil, 0)); got != keys[i] || string(AppendKey(nil, typed.Value(0))) != keys[i] {
				t.Fatalf("typed %v keys as %q, want %q", v, got, keys[i])
			}
		}
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				x, y := cells[i], cells[j]
				same, equal := keys[i] == keys[j], Compare(x, y) == 0
				switch {
				case isNaN(x) != isNaN(y) && isNumericKind(x.Kind) && isNumericKind(y.Kind),
					!x.IsNull() && !y.IsNull() && (x.Kind == KindString) != (y.Kind == KindString):
					if same {
						t.Fatalf("%v and %v key alike: %q", x, y, keys[i])
					}
				case pastExactFloat(x, y) || pastExactFloat(y, x):
				case same != equal:
					t.Fatalf("%v and %v: keys alike %v, Compare equal %v", x, y, same, equal)
				}
			}
		}
		t01 := string(AppendKey(AppendKey(nil, cells[0]), cells[1]))
		t23 := string(AppendKey(AppendKey(nil, cells[2]), cells[3]))
		if (t01 == t23) != (keys[0] == keys[2] && keys[1] == keys[3]) {
			t.Fatalf("tuples (%v, %v) and (%v, %v): tuple keys alike %v, cell keys %q %q %q %q",
				cells[0], cells[1], cells[2], cells[3], t01 == t23, keys[0], keys[1], keys[2], keys[3])
		}
	})
}

func isNaN(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.F) }

// pastExactFloat reports whether x is an int past ±2^53 and y a float,
// which Compare compares as float64.
func pastExactFloat(x, y Value) bool {
	return x.Kind == KindInt && (x.I > 1<<53 || x.I < -1<<53) && y.Kind == KindFloat
}
