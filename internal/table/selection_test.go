package table

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// naiveIndices is the reference expansion of a mask: the ascending row
// indices of its set bits. Every Selection property below is checked
// against this or a plain []int model.
func naiveIndices(mask []bool, offset int) []int {
	var idx []int
	for i, m := range mask {
		if m {
			idx = append(idx, offset+i)
		}
	}
	return idx
}

func randMask(rng *rand.Rand, n int, density float64) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = rng.Float64() < density
	}
	return mask
}

// clusteredMask flips whole runs, producing span-friendly layouts.
func clusteredMask(rng *rand.Rand, n int) []bool {
	mask := make([]bool, n)
	i := 0
	set := rng.Intn(2) == 0
	for i < n {
		run := 1 + rng.Intn(40)
		for j := 0; j < run && i < n; j, i = j+1, i+1 {
			mask[i] = set
		}
		set = !set
	}
	return mask
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkInvariants asserts the representation invariants: span form is
// sorted, disjoint, non-adjacent, and non-empty per span; dense form is
// strictly ascending; count matches the expansion.
func checkInvariants(t *testing.T, s *Selection) {
	t.Helper()
	if spans, ok := s.Spans(); ok {
		total := 0
		for i, sp := range spans {
			if sp.Hi <= sp.Lo {
				t.Fatalf("empty span %v at %d", sp, i)
			}
			if i > 0 && spans[i-1].Hi >= sp.Lo {
				t.Fatalf("overlapping/adjacent spans %v, %v", spans[i-1], sp)
			}
			total += sp.Hi - sp.Lo
		}
		if total != s.Len() {
			t.Fatalf("span cardinality %d != Len %d", total, s.Len())
		}
	} else {
		idx := s.Indices()
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				t.Fatalf("dense indices not ascending at %d: %v <= %v", i, idx[i], idx[i-1])
			}
		}
		if len(idx) != s.Len() {
			t.Fatalf("dense cardinality %d != Len %d", len(idx), s.Len())
		}
	}
}

func TestSelectionFromMaskMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		offset := rng.Intn(50)
		var mask []bool
		if trial%2 == 0 {
			mask = randMask(rng, n, []float64{0, 0.01, 0.3, 0.5, 0.9, 1}[rng.Intn(6)])
		} else {
			mask = clusteredMask(rng, n)
		}
		want := naiveIndices(mask, offset)
		s := SelectionFromBools(mask, nil, offset)
		checkInvariants(t, s)
		if got := s.Indices(); !eqInts(got, want) {
			t.Fatalf("trial %d: indices = %v, want %v", trial, got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, s.Len(), len(want))
		}
	}
}

func TestSelectionFromBoolsMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(150)
		vals := randMask(rng, n, 0.6)
		nulls := randMask(rng, n, 0.2)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = vals[i] && !nulls[i]
		}
		a := SelectionFromBools(vals, nulls, 7)
		b := SelectionFromBools(mask, nil, 7)
		checkInvariants(t, a)
		if !eqInts(a.Indices(), b.Indices()) {
			t.Fatalf("trial %d: bools %v vs mask %v", trial, a.Indices(), b.Indices())
		}
	}
}

// TestSelectionRoundTrip checks dense↔range conversion both ways: a span
// selection rebuilt from its expanded indices selects the same rows, and
// a dense selection rebuilt from a mask of its rows round-trips.
func TestSelectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		mask := clusteredMask(rng, rng.Intn(300))
		s := SelectionFromBools(mask, nil, 0)
		viaIdx := NewIndexSelection(append([]int(nil), s.Indices()...))
		checkInvariants(t, viaIdx)
		if !eqInts(viaIdx.Indices(), s.Indices()) {
			t.Fatalf("trial %d: dense round-trip mismatch", trial)
		}
		// Range round-trip: each index [r, r+1) as a span must normalize to
		// the same selection.
		var spans []Span
		for _, r := range s.Indices() {
			spans = append(spans, Span{r, r + 1})
		}
		viaSpans := NewSpanSelection(spans...)
		checkInvariants(t, viaSpans)
		if !eqInts(viaSpans.Indices(), s.Indices()) {
			t.Fatalf("trial %d: span round-trip mismatch", trial)
		}
	}
}

// TestNewSpanSelectionNormalizes feeds unsorted, overlapping, adjacent,
// and empty spans and checks the union against a reference bitmap.
func TestNewSpanSelectionNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		nspans := rng.Intn(12)
		spans := make([]Span, nspans)
		bitmap := make([]bool, 120)
		for i := range spans {
			lo := rng.Intn(100)
			hi := lo + rng.Intn(20) - 2 // sometimes empty or inverted
			spans[i] = Span{lo, hi}
			for r := lo; r < hi && r < len(bitmap); r++ {
				bitmap[r] = true
			}
		}
		s := NewSpanSelection(spans...)
		checkInvariants(t, s)
		if _, ok := s.Spans(); !ok {
			t.Fatalf("trial %d: NewSpanSelection produced dense form", trial)
		}
		if want := naiveIndices(bitmap, 0); !eqInts(s.Indices(), want) {
			t.Fatalf("trial %d: spans %v → %v, want %v", trial, spans, s.Indices(), want)
		}
	}
}

func TestNewIndexSelectionSortsAndDedups(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		idx := make([]int, len(raw))
		for i, v := range raw {
			idx[i] = int(v)
		}
		s := NewIndexSelection(append([]int(nil), idx...))
		sorted := append([]int(nil), idx...)
		sort.Ints(sorted)
		var want []int
		for i, v := range sorted {
			if i == 0 || v != sorted[i-1] {
				want = append(want, v)
			}
		}
		return eqInts(s.Indices(), want) && s.Len() == len(want)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectionFromAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		mask := clusteredMask(rng, rng.Intn(250))
		want := naiveIndices(mask, 0)
		s, ok := SelectionFromAscending(append([]int(nil), want...))
		if !ok {
			t.Fatalf("trial %d: ascending input rejected", trial)
		}
		checkInvariants(t, s)
		if !eqInts(s.Indices(), want) {
			t.Fatalf("trial %d: %v, want %v", trial, s.Indices(), want)
		}
	}
	for _, bad := range [][]int{{3, 3}, {5, 2}, {-1, 0, 1}, {0, 1, 1}} {
		if _, ok := SelectionFromAscending(bad); ok {
			t.Errorf("accepted non-ascending %v", bad)
		}
	}
	if s, ok := SelectionFromAscending(nil); !ok || s.Len() != 0 {
		t.Error("empty ascending input should yield empty selection")
	}
}

// TestMergeSelections splits a mask at random cut points, builds one
// part-selection per segment, and checks the merge equals the whole.
func TestMergeSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		var mask []bool
		if trial%2 == 0 {
			mask = clusteredMask(rng, n)
		} else {
			mask = randMask(rng, n, 0.4)
		}
		cuts := []int{0}
		for c := rng.Intn(n); c < n; c += 1 + rng.Intn(n/2+1) {
			if c > cuts[len(cuts)-1] {
				cuts = append(cuts, c)
			}
		}
		cuts = append(cuts, n)
		var parts []*Selection
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			if trial%3 == 0 {
				// Mix in dense parts to exercise the mixed-form merge.
				parts = append(parts, NewIndexSelection(naiveIndices(mask[lo:hi], lo)))
			} else {
				parts = append(parts, SelectionFromBools(mask[lo:hi], nil, lo))
			}
		}
		merged := MergeSelections(parts)
		checkInvariants(t, merged)
		if want := naiveIndices(mask, 0); !eqInts(merged.Indices(), want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, merged.Indices(), want)
		}
	}
}

// TestMergeSelectionsMixedFormsKeepSpans pins the global density rule: one
// scattered (dense-form) chunk among clustered chunks must not degrade the
// merged result to a per-row index vector, and dense runs that continue a
// neighboring span must fuse with it.
func TestMergeSelectionsMixedFormsKeepSpans(t *testing.T) {
	parts := []*Selection{
		NewSpanSelection(Span{0, 1000}),
		NewIndexSelection([]int{1000, 1001, 1004, 1006}), // 3 runs, first fuses with the span
		NewSpanSelection(Span{2000, 3000}),
	}
	m := MergeSelections(parts)
	checkInvariants(t, m)
	spans, ok := m.Spans()
	if !ok {
		t.Fatal("mixed merge degraded to dense form despite clustered majority")
	}
	want := []Span{{0, 1002}, {1004, 1005}, {1006, 1007}, {2000, 3000}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, spans[i], want[i])
		}
	}
	if m.Len() != 1000+4+1000 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// RowAt returns the i-th selected row (0 <= i < Len), the reference the
// iterators are checked against. Dense form is O(1); span form walks the
// span list. Any i is out of range for a nil (empty) selection.
func (s *Selection) RowAt(i int) int {
	if s == nil || i < 0 || i >= s.count {
		panic("table: Selection.RowAt out of range")
	}
	if s.idx != nil {
		return s.idx[i]
	}
	for _, sp := range s.spans {
		if n := sp.Hi - sp.Lo; i < n {
			return sp.Lo + i
		} else {
			i -= n
		}
	}
	panic("table: Selection.RowAt out of range")
}

func TestSelectionRowAtOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil":    func() { (*Selection)(nil).RowAt(0) },
		"empty":  func() { NewSpanSelection().RowAt(0) },
		"beyond": func() { NewSpanSelection(Span{0, 3}).RowAt(3) },
		"neg":    func() { NewIndexSelection([]int{5}).RowAt(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RowAt did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMergeSelectionsJoinsBoundarySpans pins the cross-chunk span merge:
// an all-passing mask split into chunks must merge to one span.
func TestMergeSelectionsJoinsBoundarySpans(t *testing.T) {
	parts := []*Selection{
		NewSpanSelection(Span{0, 100}),
		NewSpanSelection(Span{100, 250}),
		NewSpanSelection(Span{250, 300}),
	}
	m := MergeSelections(parts)
	if lo, hi, ok := m.AsRange(); !ok || lo != 0 || hi != 300 {
		t.Fatalf("AsRange = (%d,%d,%v), want (0,300,true)", lo, hi, ok)
	}
	if m.Len() != 300 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestSelectionRowAtIterForEachAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		var s *Selection
		if trial%2 == 0 {
			s = SelectionFromBools(clusteredMask(rng, rng.Intn(200)), nil, rng.Intn(10))
		} else {
			s = SelectionFromBools(randMask(rng, rng.Intn(200), 0.3), nil, 0)
		}
		want := s.Indices()
		for i, r := range want {
			if got := s.RowAt(i); got != r {
				t.Fatalf("RowAt(%d) = %d, want %d", i, got, r)
			}
		}
		var viaEach []int
		s.ForEach(func(r int) { viaEach = append(viaEach, r) })
		if !eqInts(viaEach, want) {
			t.Fatalf("ForEach %v, want %v", viaEach, want)
		}
		var viaIter []int
		it := IterSelection(s, 0)
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			viaIter = append(viaIter, r)
		}
		if !eqInts(viaIter, want) {
			t.Fatalf("Iter %v, want %v", viaIter, want)
		}
	}
	// nil selection iterates [0, n).
	var nilIdx []int
	it := IterSelection(nil, 5)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		nilIdx = append(nilIdx, r)
	}
	if !eqInts(nilIdx, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("nil iter = %v", nilIdx)
	}
}

func TestSelectionTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var s *Selection
		if trial%2 == 0 {
			s = SelectionFromBools(clusteredMask(rng, rng.Intn(150)), nil, 0)
		} else {
			s = SelectionFromBools(randMask(rng, rng.Intn(150), 0.5), nil, 0)
		}
		k := rng.Intn(s.Len() + 10)
		tr := s.Truncate(k)
		checkInvariants(t, tr)
		want := s.Indices()
		if k < len(want) {
			want = want[:k]
		}
		if !eqInts(tr.Indices(), want) {
			t.Fatalf("trial %d: Truncate(%d) = %v, want %v", trial, k, tr.Indices(), want)
		}
	}
	if got := (*Selection)(nil).Truncate(3); got != nil {
		t.Fatalf("nil Truncate = %v", got)
	}
}

func TestSelectionDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var s *Selection
		if trial%2 == 0 {
			s = SelectionFromBools(clusteredMask(rng, rng.Intn(150)), nil, 0)
		} else {
			s = SelectionFromBools(randMask(rng, rng.Intn(150), 0.5), nil, 0)
		}
		k := rng.Intn(s.Len() + 10)
		dr := s.Drop(k)
		checkInvariants(t, dr)
		want := s.Indices()
		if k < len(want) {
			want = want[k:]
		} else {
			want = nil
		}
		if !eqInts(dr.Indices(), want) {
			t.Fatalf("trial %d: Drop(%d) = %v, want %v", trial, k, dr.Indices(), want)
		}
		// Drop then Truncate realizes an OFFSET/LIMIT window.
		if s.Len() > 2 {
			win := s.Drop(1).Truncate(s.Len() - 2)
			if win.Len() != s.Len()-2 || !eqInts(win.Indices(), s.Indices()[1:s.Len()-1]) {
				t.Fatalf("trial %d: window mismatch", trial)
			}
		}
	}
	if got := (*Selection)(nil).Drop(3); got != nil {
		t.Fatalf("nil Drop = %v", got)
	}
	if s := NewSpanSelection(Span{0, 5}); s.Drop(0) != s {
		t.Fatal("Drop(0) should return the receiver")
	}
}

// TestGatherSelEquivalence checks Column.GatherSel against the naive
// Gather over expanded indices, for every storage kind — an all-NULL
// column too — and NULLs, in both selection forms.
func TestGatherSelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 120
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	bools := make([]bool, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(1000) - 500)
		floats[i] = rng.Float64() * 100
		strs[i] = string(rune('a' + rng.Intn(26)))
		bools[i] = rng.Intn(2) == 0
		nulls[i] = rng.Intn(5) == 0
	}
	times := make([]int64, n)
	for i := range times {
		times[i] = ints[i] * int64(time.Second)
	}
	allNull := NewColumn("z", KindNull)
	for i := 0; i < n; i++ {
		allNull.AppendNull()
	}
	cols := []Column{
		ColumnFromInts("i", ints, append([]bool(nil), nulls...)),
		ColumnFromFloats("f", floats, append([]bool(nil), nulls...)),
		ColumnFromStrings("s", strs, append([]bool(nil), nulls...)),
		ColumnFromBools("b", bools, append([]bool(nil), nulls...)),
		ColumnFromTimes("t", times, append([]bool(nil), nulls...)),
		allNull,
	}
	sels := []*Selection{
		NewSpanSelection(),
		NewSpanSelection(Span{0, n}),
		NewSpanSelection(Span{10, 30}, Span{50, 90}),
		SelectionFromBools(randMask(rng, n, 0.4), nil, 0),
		SelectionFromBools(clusteredMask(rng, n), nil, 0),
		NewIndexSelection([]int{3, 4, 5, 99}),
	}
	for ci := range cols {
		for si, s := range sels {
			got := cols[ci].GatherSel(s)
			want := cols[ci].Gather(s.Indices(), nil)
			if got.Len() != want.Len() {
				t.Fatalf("col %d sel %d: len %d != %d", ci, si, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if keyOf(got.Value(i)) != keyOf(want.Value(i)) {
					t.Fatalf("col %d sel %d row %d: %v != %v", ci, si, i, got.Value(i), want.Value(i))
				}
			}
		}
	}
}

// TestViewSharesAndMatches checks View against a span copy cell-for-cell
// and confirms the zero-copy property for typed columns.
func TestViewSharesAndMatches(t *testing.T) {
	ints := []int64{1, 2, 3, 4, 5, 6}
	nulls := []bool{false, true, false, false, true, false}
	c := ColumnFromInts("x", ints, nulls)
	v := c.View(1, 5)
	w := c.GatherSel(NewSpanSelection(Span{1, 5}))
	if v.Len() != 4 || w.Len() != 4 {
		t.Fatalf("lens = %d, %d", v.Len(), w.Len())
	}
	for i := 0; i < 4; i++ {
		if keyOf(v.Value(i)) != keyOf(w.Value(i)) {
			t.Fatalf("row %d: %v != %v", i, v.Value(i), w.Value(i))
		}
	}
	vi, _, ok := v.Ints()
	if !ok {
		t.Fatal("view lost typed storage")
	}
	if &vi[0] != &ints[1] {
		t.Fatal("View copied storage; want shared backing array")
	}
	if reflect.ValueOf(vi).Cap() != 4 {
		t.Fatalf("view capacity %d leaks past hi; want clamped to 4", reflect.ValueOf(vi).Cap())
	}
}

func TestSelectionAsRange(t *testing.T) {
	cases := []struct {
		s      *Selection
		lo, hi int
		ok     bool
	}{
		{NewSpanSelection(), 0, 0, true},
		{NewSpanSelection(Span{2, 9}), 2, 9, true},
		{NewSpanSelection(Span{0, 3}, Span{5, 8}), 0, 0, false},
		{NewIndexSelection([]int{1, 2, 3}), 0, 0, false}, // form fixed at construction
	}
	for i, tc := range cases {
		lo, hi, ok := tc.s.AsRange()
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("case %d: AsRange = (%d,%d,%v), want (%d,%d,%v)", i, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}
