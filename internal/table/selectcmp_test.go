package table

import (
	"math"
	"math/rand"
	"testing"
	"time"
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

// checkRun holds SelectCompare over in to its definition: the rows of in
// whose cell is non-NULL and accepted by every comparison of run, and
// sawNull exactly when some row of in is NULL.
func checkRun(t *testing.T, c *Column, run []Cmp, in *Selection) {
	t.Helper()
	got, sawNull := c.SelectCompare(run, in)
	checkInvariants(t, got)
	var rows []int
	anyNull := false
	in.ForEach(func(r int) {
		if c.IsNullAt(r) {
			anyNull = true
			return
		}
		for _, cm := range run {
			if !accepts(cm.Op, Compare(c.Value(r), cm.K)) {
				return
			}
		}
		rows = append(rows, r)
	})
	if !eqInts(got.Indices(), rows) || sawNull != anyNull {
		t.Fatalf("column %s run %v: got %v (sawNull %v), Compare says %v (NULL in input %v)",
			c.Name, run, got.Indices(), sawNull, rows, anyNull)
	}
}

// TestSelectCompareMatchesCompare checks the kernels cell by cell against
// Compare over every column kind they cover — NULLs, NaN, both infinities,
// −0, integers past 2^53 and the int64 extremes included — for every single
// comparison and every pair of comparisons as one run (so each strict bound
// at MinInt64/MaxInt64, each empty interval and each mix of int and float
// constants on an int column), from span-form, dense-form and empty inputs,
// and that every other column/constant pairing is refused.
func TestSelectCompareMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	ints := NewColumn("i", KindInt)
	floats := NewColumn("f", KindFloat)
	strs := NewColumn("s", KindString)
	bools := NewColumn("b", KindBool)
	times := NewColumn("t", KindTime)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			ints.AppendNull()
			floats.AppendNull()
			strs.AppendNull()
		} else {
			ints.Append(Int([]int64{-2, 0, 1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}[rng.Intn(7)]))
			floats.Append(Float([]float64{-2, 0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53}[rng.Intn(8)]))
			strs.Append(Str([]string{"", "a", "b", "ab"}[rng.Intn(4)]))
		}
		bools.Append(Bool(i%2 == 0))
		times.Append(Time(time.Unix(int64(i), 0).UTC()))
	}
	consts := []Value{
		Int(1), Int(1 << 53), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64), Int(0),
		Float(1.5), Float(1 << 53), Float(math.NaN()), Float(math.Inf(-1)), Float(math.Inf(1)), Float(math.Copysign(0, -1)),
		Str("a"), Bool(true), Null(),
	}
	var idx []int
	for i := 0; i < n; i += 1 + rng.Intn(4) {
		idx = append(idx, i)
	}
	inputs := []*Selection{NewSpanSelection(Span{3, 120}, Span{150, n}), NewIndexSelection(idx), NewSpanSelection()}

	for _, c := range []*Column{&ints, &floats, &strs, &bools, &times} {
		var covered []Value
		for _, k := range consts {
			numericPair := (c.Kind == KindInt || c.Kind == KindFloat) && (k.Kind == KindInt || k.Kind == KindFloat)
			want := numericPair || c.Kind == KindString && k.Kind == KindString
			if got := c.ComparesTyped(k); got != want {
				t.Fatalf("column %s vs %v: ComparesTyped = %v, want %v", c.Name, k, got, want)
			}
			if want {
				covered = append(covered, k)
			}
		}
		for _, k1 := range covered {
			for _, op1 := range allCmpOps {
				for _, in := range inputs {
					checkRun(t, c, []Cmp{{op1, k1}}, in)
				}
				for _, k2 := range covered {
					for _, op2 := range allCmpOps {
						for _, in := range inputs {
							checkRun(t, c, []Cmp{{op1, k1}, {op2, k2}}, in)
						}
					}
				}
			}
		}
	}
}

// FuzzSelectCompare holds SelectCompare to its definition over cells, NULLs,
// one or two comparisons and a span or dense input all drawn from the fuzz
// bytes, and over the same int cells stretched past two blocks through an
// Appender, so that the zones decide whole blocks; the seeds carry the
// constants where the interval's strict bounds move by one, and cell counts
// whose stretched cells end one row before, at and one row after a block
// edge.
func FuzzSelectCompare(f *testing.F) {
	edges := []struct {
		k     int64
		float bool
	}{{math.MaxInt64, false}, {math.MinInt64, false}, {0, false}, {-1 << 63, true}, {0x7FF0000000000000, true}}
	cells := []byte{0x80, 0x81, 0x7f, 0x9a, 0x9b, 0x01, 0x03, 0x0b, 0x21, 0x31, 0xe1, 0xff}
	for i, e := range edges {
		for op := range uint8(len(allCmpOps)) {
			f.Add(cells, op, e.k, e.float, uint8(0), int64(0), false)
			f.Add(cells, op|0x10, e.k, e.float, uint8(128+i), int64(1), false)
		}
	}
	for _, edge := range []int{zoneRows - 1, zoneRows, zoneRows + 1} {
		for n := 2; n <= 512; n++ {
			if k := stretchOf(n); edge%k != 0 || edge/k >= n {
				continue
			}
			// Four runs of odd bytes (cells 1, 3, 2^53+5 and 7) and a NULL
			// (0x84) last: the ranges below take, skip and split blocks.
			edgeCells := make([]byte, n)
			for j := range edgeCells {
				edgeCells[j] = 0x81 + byte(2*(j*4/n))
			}
			edgeCells[n-1] = 0x84
			f.Add(edgeCells, uint8(5), int64(1), false, uint8(128+1), int64(3), false) // >= 1 AND <= 3
			f.Add(edgeCells, uint8(2), int64(2), false, uint8(0), int64(0), false)     // < 2
			break
		}
	}
	f.Fuzz(func(t *testing.T, cells []byte, op1 uint8, k1 int64, float1 bool, op2 uint8, k2 int64, float2 bool) {
		if len(cells) > 512 {
			cells = cells[:512]
		}
		// A cell byte picks NULL, an extreme, a value near the constants or
		// a value past 2^53; the float column holds the same numbers, and
		// NaN where the int column holds the extremes.
		ints := NewColumn("i", KindInt)
		floats := NewColumn("f", KindFloat)
		for _, c := range cells {
			switch v := int64(c) - 128; {
			case c%11 == 0:
				ints.AppendNull()
				floats.AppendNull()
			case c%13 == 0:
				ints.Append(Int([]int64{math.MaxInt64, math.MinInt64}[c%2]))
				floats.Append(Float(math.NaN()))
			case c%7 == 0:
				ints.Append(Int(1<<53 + v))
				floats.Append(Float(float64(1<<53 + v)))
			default:
				ints.Append(Int(v % 8))
				floats.Append(Float(float64(v%8) / 2))
			}
		}
		cmp := func(op uint8, k int64, float bool) Cmp {
			kv := Int(k)
			if float {
				kv = Float(math.Float64frombits(uint64(k)))
			}
			return Cmp{allCmpOps[int(op)%len(allCmpOps)], kv}
		}
		run := []Cmp{cmp(op1, k1, float1)}
		if op2 >= 128 {
			run = append(run, cmp(op2, k2, float2))
		}
		// The input: the rows whose byte is odd, as spans or (bit 4 of op1)
		// as a dense list.
		var spans []Span
		var idx []int
		for i, c := range cells {
			if c%2 == 1 {
				spans = append(spans, Span{i, i + 1})
				idx = append(idx, i)
			}
		}
		in := NewSpanSelection(spans...)
		if op1&0x10 != 0 {
			in = NewIndexSelection(idx)
		}
		checkRun(t, &ints, run, in)
		checkRun(t, &floats, run, in)
		if len(cells) == 0 {
			return
		}
		// The int cells again, each repeated over stretchOf rows and then
		// once more each as a tail past the last full block, published by an
		// Appender: over the odd bytes' rows, over the stretched rows and
		// over all of them.
		k := stretchOf(len(cells))
		stretched := NewColumn("i", KindInt)
		var zspans []Span
		for j, c := range cells {
			for range k {
				stretched.Append(ints.Value(j))
			}
			if c%2 == 1 {
				zspans = append(zspans, Span{j * k, (j + 1) * k}, Span{len(cells)*k + j, len(cells)*k + j + 1})
			}
		}
		stretched.AppendColumn(&ints)
		app := NewAppender(&Table{Name: "z", Columns: []Column{stretched}})
		zoned := &app.Snapshot().Table().Columns[0]
		if len(zoned.zoneBlocks()) < 2 {
			t.Fatalf("%d rows carry %d zones", zoned.Len(), len(zoned.zoneBlocks()))
		}
		checkRun(t, zoned, run, NewSpanSelection(zspans...))
		checkRun(t, zoned, run, NewSpanSelection(Span{0, len(cells) * k}))
		checkRun(t, zoned, run, NewSpanSelection(Span{0, zoned.Len()}))
	})
}

// stretchOf is how many rows FuzzSelectCompare's zoned column repeats each
// of n cells over: enough for n of them to fill two blocks.
func stretchOf(n int) int { return (2*zoneRows + n - 1) / n }

// TestSelectCompareRunAllocations pins "a stretch is one append": a
// two-comparison run over a 100k-row span input whose passing rows form one
// range allocates the Selection and its span slice, nothing per row.
func TestSelectCompareRunAllocations(t *testing.T) {
	const n = 100_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := ColumnFromInts("id", vals, nil)
	in := NewSpanSelection(Span{0, n / 2}, Span{n/2 + 1, n})
	run := []Cmp{{CmpGe, Int(25_000)}, {CmpLt, Int(45_000)}}
	allocsOf := func(c *Column) float64 {
		return testing.AllocsPerRun(20, func() {
			if out, _ := c.SelectCompare(run, in); out.Len() != 20_000 {
				t.Fatalf("selected %d rows, want 20000", out.Len())
			}
		})
	}
	allocs := allocsOf(&c)
	if allocs > 2 {
		t.Errorf("a two-comparison run allocates %v objects, want at most 2", allocs)
	}
	// The same cells through an Appender carry zones: taking and skipping
	// whole blocks allocates nothing the cell scan does not.
	zoned := &NewAppender(&Table{Name: "t", Columns: []Column{c}}).Snapshot().Table().Columns[0]
	if len(zoned.zoneBlocks()) == 0 {
		t.Fatal("the published column has no zones")
	}
	if z := allocsOf(zoned); z > allocs {
		t.Errorf("the zoned run allocates %v objects, the cell scan %v", z, allocs)
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
			base = SelectionFromBools(clusteredMask(rng, n), nil, rng.Intn(20))
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
