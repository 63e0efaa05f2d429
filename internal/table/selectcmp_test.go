package table

import (
	"math"
	"math/rand"
	"testing"
)

// accepts is the definition SelectCompare is held to: the operator applied
// to Compare's three-way result.
func accepts(op CmpOp, c int) bool {
	switch {
	case c < 0:
		return op&CmpLt != 0
	case c > 0:
		return op&CmpGt != 0
	}
	return op&CmpEq != 0
}

var allCmpOps = []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}

func TestCmpOpFlip(t *testing.T) {
	want := map[CmpOp]CmpOp{CmpEq: CmpEq, CmpNe: CmpNe, CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe}
	for op, flipped := range want {
		if got := op.Flip(); got != flipped {
			t.Errorf("Flip(%03b) = %03b, want %03b", op, got, flipped)
		}
	}
}

// TestSelectCompareMatchesCompare checks the kernels cell by cell against
// Compare over every column kind they cover — NULLs, NaN, both infinities
// and integers past 2^53 included — from span-form and dense-form inputs,
// and that every other column/constant pairing is refused.
func TestSelectCompareMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	ints := NewColumn("i", KindInt)
	floats := NewColumn("f", KindFloat)
	strs := NewColumn("s", KindString)
	bools := NewColumn("b", KindBool)
	boxed := NewColumn("x", KindInt)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			ints.AppendNull()
			floats.AppendNull()
			strs.AppendNull()
		} else {
			ints.Append(Int([]int64{-2, 0, 1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(7)]))
			floats.Append(Float([]float64{-2, 0, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53}[rng.Intn(7)]))
			strs.Append(Str([]string{"", "a", "b", "ab"}[rng.Intn(4)]))
		}
		bools.Append(Bool(i%2 == 0))
		boxed.Append(Int(int64(i)))
	}
	boxed.Append(Str("mixed")) // degrades to boxed storage
	consts := []Value{Int(1), Int(1<<53 + 1), Float(1.5), Float(1 << 53), Float(math.NaN()), Float(math.Inf(-1)), Str("a"), Bool(true), Null()}
	var idx []int
	for i := 0; i < n; i += 1 + rng.Intn(4) {
		idx = append(idx, i)
	}
	inputs := []*Selection{NewSpanSelection(Span{3, 120}, Span{150, n}), NewIndexSelection(idx), NewSpanSelection()}

	for _, c := range []*Column{&ints, &floats, &strs, &bools, &boxed} {
		for _, k := range consts {
			numericPair := (c.Kind == KindInt || c.Kind == KindFloat) && (k.Kind == KindInt || k.Kind == KindFloat)
			want := c.IsTyped() && (numericPair || c.Kind == KindString && k.Kind == KindString)
			if got := c.ComparesTyped(k); got != want {
				t.Fatalf("column %s vs %v: ComparesTyped = %v, want %v", c.Name, k, got, want)
			}
			if !want {
				continue
			}
			for _, op := range allCmpOps {
				for _, in := range inputs {
					got, sawNull := c.SelectCompare(op, k, in)
					checkInvariants(t, got)
					var rows []int
					anyNull := false
					in.ForEach(func(r int) {
						if c.IsNullAt(r) {
							anyNull = true
						} else if accepts(op, Compare(c.Value(r), k)) {
							rows = append(rows, r)
						}
					})
					if !eqInts(got.Indices(), rows) || sawNull != anyNull {
						t.Fatalf("column %s op %03b vs %v: got %v (sawNull %v), Compare says %v (NULL in input %v)",
							c.Name, op, k, got.Indices(), sawNull, rows, anyNull)
					}
				}
			}
		}
	}
}

// TestSelectionPick checks Pick against the naive expansion for span-form,
// dense-form and single-range receivers, with and without a null mask.
func TestSelectionPick(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		var base *Selection
		switch trial % 3 {
		case 0:
			base = SelectionFromMask(clusteredMask(rng, n), rng.Intn(20))
		case 1:
			base = NewIndexSelection(naiveIndices(randMask(rng, n, 0.4), 0))
		default:
			base = NewSpanSelection(Span{5, 5 + n})
		}
		rows := base.Indices()
		vals := randMask(rng, len(rows), []float64{0, 0.05, 0.5, 1}[rng.Intn(4)])
		var nulls []bool
		if trial%2 == 0 {
			nulls = randMask(rng, len(rows), 0.2)
		}
		var want []int
		for i, r := range rows {
			if vals[i] && (nulls == nil || !nulls[i]) {
				want = append(want, r)
			}
		}
		got := base.Pick(vals, nulls)
		checkInvariants(t, got)
		if !eqInts(got.Indices(), want) {
			t.Fatalf("trial %d: Pick = %v, want %v", trial, got.Indices(), want)
		}
	}
}
