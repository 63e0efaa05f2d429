package table

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// signOf collapses a comparison result to -1/0/+1.
func signOf(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// randValueOfKind draws a random value of the given kind, NULL included.
// The pools deliberately contain duplicates, boundary values, -0 and +0,
// and strings with embedded 0x00/0xff bytes and shared prefixes.
func randValueOfKind(rng *rand.Rand, kind Kind) Value {
	if rng.Intn(8) == 0 {
		return Null()
	}
	switch kind {
	case KindInt:
		ints := []int64{0, 1, -1, 7, -7, 42, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53)}
		if rng.Intn(2) == 0 {
			return Int(ints[rng.Intn(len(ints))])
		}
		return Int(int64(rng.Intn(2000) - 1000))
	case KindFloat:
		floats := []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.MaxFloat64,
			-math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), 3.14159}
		if rng.Intn(2) == 0 {
			return Float(floats[rng.Intn(len(floats))])
		}
		return Float(float64(rng.Intn(4000))/8 - 250)
	case KindString:
		strs := []string{"", "a", "ab", "a\x00", "a\x00b", "a\xffz", "b", "ba",
			"\x00", "\x00\x00", "\xff", "zz", "red", "green"}
		if rng.Intn(2) == 0 {
			return Str(strs[rng.Intn(len(strs))])
		}
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return Str(string(b))
	case KindBool:
		return Bool(rng.Intn(2) == 0)
	case KindTime:
		base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		return Time(base.Add(time.Duration(rng.Int63n(int64(200*24*time.Hour))) -
			100*24*time.Hour + time.Duration(rng.Intn(3))*time.Nanosecond))
	default:
		return Null()
	}
}

// randColumn is an n-row column of kind drawn by randValueOfKind, with its
// cells as Values alongside for the reference comparison.
func randColumn(rng *rand.Rand, kind Kind, n int) (Column, []Value) {
	c := NewColumn("k", kind)
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = randValueOfKind(rng, kind)
		c.Append(vals[i])
	}
	return c, vals
}

// TestSortKeyOrderMatchesCompare is the per-column order's core property:
// for every pair of positions of a typed column, ColumnOrder's sign is
// Compare's ascending and its negation descending (NULLs therefore last),
// and the order is total.
func TestSortKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{KindInt, KindFloat, KindString, KindBool, KindTime} {
		c, vals := randColumn(rng, kind, 96)
		asc, ascTotal := ColumnOrder(&c, false)
		desc, descTotal := ColumnOrder(&c, true)
		if !ascTotal || !descTotal {
			t.Fatalf("kind %v: order without NaN not total", kind)
		}
		for a := range vals {
			for b := range vals {
				want := signOf(Compare(vals[a], vals[b]))
				if got := signOf(asc(a, b)); got != want {
					t.Fatalf("kind %v ASC: order %d, Compare %d for %v vs %v", kind, got, want, vals[a], vals[b])
				}
				if got := signOf(desc(a, b)); got != -want {
					t.Fatalf("kind %v DESC: order %d, want %d for %v vs %v", kind, got, -want, vals[a], vals[b])
				}
			}
		}
	}
}

// TestSortKeyCompositeOrder checks multi-column keys: RowOrder must order
// like the lexicographic, direction-aware Compare the scalar reference
// sorts by.
func TestSortKeyCompositeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kinds := []Kind{KindString, KindInt, KindFloat, KindBool, KindTime}
	const n = 24
	for trial := 0; trial < 200; trial++ {
		nk := 1 + rng.Intn(3)
		cols := make([]Column, nk)
		vals := make([][]Value, nk)
		desc := make([]bool, nk)
		for i := range cols {
			cols[i], vals[i] = randColumn(rng, kinds[rng.Intn(len(kinds))], n)
			desc[i] = rng.Intn(2) == 0
		}
		cmp, total := RowOrder(cols, desc)
		if !total {
			t.Fatalf("typed keys without NaN: order not total (desc %v)", desc)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := 0
				for i := 0; i < nk && want == 0; i++ {
					c := Compare(vals[i][a], vals[i][b])
					if desc[i] {
						c = -c
					}
					want = signOf(c)
				}
				if got := signOf(cmp(a, b)); got != want {
					t.Fatalf("composite: order %d, want %d for rows %d, %d (desc %v)", got, want, a, b, desc)
				}
			}
		}
	}
}

// TestSortKeyNullColumn pins the all-NULL (KindNull) column case: every
// cell is a peer of every other and the order stays total; and a NULL
// sorts before the empty string ascending, after it descending.
func TestSortKeyNullColumn(t *testing.T) {
	c := NewColumn("x", KindNull)
	c.AppendNull()
	c.AppendNull()
	cmp, total := ColumnOrder(&c, false)
	if !total {
		t.Fatal("KindNull column order should be total")
	}
	if cmp(0, 1) != 0 || cmp(1, 0) != 0 {
		t.Fatalf("NULL cells compare %d / %d, want peers", cmp(0, 1), cmp(1, 0))
	}
	s := NewColumn("s", KindString)
	s.AppendNull()
	s.Append(Str(""))
	if asc, _ := ColumnOrder(&s, false); asc(0, 1) >= 0 {
		t.Fatal("NULL must sort before the empty string ascending")
	}
	if desc, _ := ColumnOrder(&s, true); desc(0, 1) <= 0 {
		t.Fatal("NULL must sort after the empty string descending")
	}
}

// TestSortKeyTotalUnlessNaN pins the stable-sort trigger: a float column
// holding a NaN has no total order, and one such key makes a composite
// order not total. Every other column's order is total, an all-NULL
// column's too: all its cells are peers.
func TestSortKeyTotalUnlessNaN(t *testing.T) {
	f := NewColumn("f", KindFloat)
	f.Append(Float(1))
	f.Append(Float(math.NaN()))
	if _, total := ColumnOrder(&f, false); total {
		t.Fatal("float column holding NaN must not be total")
	}
	i := NewColumn("i", KindInt)
	i.Append(Int(1))
	i.Append(Int(2))
	if _, total := RowOrder([]Column{i, f}, []bool{false, true}); total {
		t.Fatal("composite order with a NaN key must not be total")
	}
	if _, total := RowOrder([]Column{i}, []bool{true}); !total {
		t.Fatal("typed int key order must be total")
	}
	n := NewColumn("n", KindNull)
	n.AppendNull()
	n.AppendNull()
	if cmp, total := ColumnOrder(&n, true); !total || cmp(0, 1) != 0 {
		t.Fatal("an all-NULL column's cells must be total peers")
	}
}
