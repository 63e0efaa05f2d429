package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fillWindows builds the pair list of a probe of len(matches) rows split
// into windows at the bounds cuts: probe row p matches build rows 0..m-1
// for m = matches[p], and pads its right side when m is 0 and kind is
// outer. It returns the buffer and the filled windows, unmerged.
func fillWindows(kind JoinKind, matches []int, cuts []int, parts []JoinPairs) *JoinPairs {
	p := NewJoinPairs(kind, len(matches))
	for ci := range parts {
		lo, hi := cuts[ci], cuts[ci+1]
		w := p.Window(lo, hi)
		for row := lo; row < hi; row++ {
			if matches[row] == 0 && kind != JoinInner {
				w.PadRight(row)
			}
			for b := 0; b < matches[row]; b++ {
				w.Match(row, b)
			}
		}
		parts[ci] = w
	}
	return p
}

// serialPairs is the pair list fillWindows describes, written out row by
// row without windows.
func serialPairs(kind JoinKind, matches []int) *JoinPairs {
	want := &JoinPairs{}
	if kind == JoinFull {
		want.Lnull = []bool{}
	}
	if kind != JoinInner {
		want.Rnull = []bool{}
	}
	add := func(l, r int, rnull bool) {
		want.Lidx = append(want.Lidx, l)
		want.Ridx = append(want.Ridx, r)
		if want.Lnull != nil {
			want.Lnull = append(want.Lnull, false)
		}
		if want.Rnull != nil {
			want.Rnull = append(want.Rnull, rnull)
		}
	}
	for row, m := range matches {
		if m == 0 && kind != JoinInner {
			add(row, 0, true)
		}
		for b := 0; b < m; b++ {
			add(row, b, false)
		}
	}
	return want
}

func TestJoinPairsMerge(t *testing.T) {
	cuts := []int{0, 4, 8, 12}
	oneToOne := []int{1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0}
	fanFirst := slices.Clone(oneToOne)
	fanFirst[1] = 5
	fanLast := slices.Clone(oneToOne)
	fanLast[11] = 3
	for _, tc := range []struct {
		name    string
		matches []int
		inPlace bool
	}{
		{"one-to-one", oneToOne, true},
		{"fan-out in the first window", fanFirst, false},
		{"fan-out in the last window", fanLast, false},
		{"no matches", make([]int, 12), true},
		{"every row fills its slot", slices.Repeat([]int{1}, 12), true},
	} {
		for _, kind := range []JoinKind{JoinInner, JoinLeft, JoinFull} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, kind), func(t *testing.T) {
				parts := make([]JoinPairs, len(cuts)-1)
				p := fillWindows(kind, tc.matches, cuts, parts)
				buf := p.Lidx[:1]
				p.Merge(parts)
				want := serialPairs(kind, tc.matches)
				if !slices.Equal(p.Lidx, want.Lidx) || !slices.Equal(p.Ridx, want.Ridx) ||
					!slices.Equal(p.Lnull, want.Lnull) || !slices.Equal(p.Rnull, want.Rnull) {
					t.Fatalf("merged %+v, want %+v", *p, *want)
				}
				if (p.Lnull != nil) != (kind == JoinFull) || (p.Rnull != nil) != (kind != JoinInner) {
					t.Fatalf("masks of %v: Lnull %v, Rnull %v", kind, p.Lnull, p.Rnull)
				}
				if inPlace := &p.Lidx[:1][0] == &buf[0]; inPlace != tc.inPlace {
					t.Errorf("merged in place = %v, want %v", inPlace, tc.inPlace)
				}
				if !tc.inPlace && cap(p.Lidx) != p.Len() {
					t.Errorf("fallback capacity %d, want the exact total %d", cap(p.Lidx), p.Len())
				}
			})
		}
	}
}

// TestJoinPairsMergeEmpty merges a probe of no rows: there are no windows.
func TestJoinPairsMergeEmpty(t *testing.T) {
	p := NewJoinPairs(JoinFull, 0)
	p.Merge(nil)
	if p.Len() != 0 || p.Lnull == nil || p.Rnull == nil {
		t.Fatalf("empty FULL merge = %+v", *p)
	}
	p.SweepUnmatchedRight(2)
	if p.Len() != 2 || !p.Lnull[0] || !p.Lnull[1] {
		t.Fatalf("sweep after empty merge = %+v", *p)
	}
}

// TestJoinPairsMergeInPlaceAllocatesNothing pins the point of the windows:
// filling windows that each stay within their share, and merging them,
// allocates nothing beyond the buffer NewJoinPairs made.
func TestJoinPairsMergeInPlaceAllocatesNothing(t *testing.T) {
	const n = 4096
	cuts := []int{0, 1000, 2500, n}
	p := NewJoinPairs(JoinLeft, n)
	parts := make([]JoinPairs, len(cuts)-1)
	allocs := testing.AllocsPerRun(20, func() {
		for ci := range parts {
			lo, hi := cuts[ci], cuts[ci+1]
			parts[ci] = p.Window(lo, hi)
			for row := lo; row < hi; row++ {
				if row%3 == 0 {
					parts[ci].PadRight(row)
				} else if row%3 == 1 {
					parts[ci].Match(row, row/3)
				}
			}
		}
		p.Merge(parts)
	})
	if allocs != 0 {
		t.Errorf("in-window fill and merge: %v allocations, want 0", allocs)
	}
	if want := 2 * n / 3; p.Len() < want || p.Len() > want+1 {
		t.Errorf("merged %d pairs, want about %d", p.Len(), want)
	}
}

// TestEquiKeyExact: the hash join's per-cell key is equal exactly when =
// holds on every key pair — -0 and 0 meet, an int meets the float it
// converts to, and neither a NUL-extended string, a composite whose cells
// split the same bytes differently, nor an instant one nanosecond later
// meets its neighbour. Each case runs through probeKey and through
// NewHashProbe.
func TestEquiKeyExact(t *testing.T) {
	t0 := time.Date(1969, 12, 31, 23, 59, 59, 5, time.UTC)
	cases := []struct {
		name        string
		left, right []Value
	}{
		{"-0 vs 0", []Value{Float(math.Copysign(0, -1))}, []Value{Float(0)}},
		{"2^53+1 int vs 2^53 float", []Value{Int(1<<53 + 1)}, []Value{Float(1 << 53)}},
		{"2^53+1 vs 2^53 ints", []Value{Int(1<<53 + 1)}, []Value{Int(1 << 53)}},
		{"a vs a NUL", []Value{Str("a")}, []Value{Str("a\x00")}},
		{"ab,c vs a,bc", []Value{Str("ab"), Str("c")}, []Value{Str("a"), Str("bc")}},
		{"ab,c vs ab,c", []Value{Str("ab"), Str("c")}, []Value{Str("ab"), Str("c")}},
		{"instants 1ns apart", []Value{Time(t0)}, []Value{Time(t0.Add(time.Nanosecond))}},
		{"one instant in two zones", []Value{Time(t0)}, []Value{Time(t0.In(time.FixedZone("X", -5*3600)))}},
		{"true vs false, 1", []Value{Bool(true), Int(1)}, []Value{Bool(false), Int(1)}},
	}
	for _, tc := range cases {
		lcols, rcols := make([]*Column, len(tc.left)), make([]*Column, len(tc.right))
		want := true
		for i := range tc.left {
			l, r := columnOf("l", tc.left[i].Kind, tc.left[i:i+1]), columnOf("r", tc.right[i].Kind, tc.right[i:i+1])
			if !EquiHashable(&l, &r) {
				t.Fatalf("%s: key pair %d is not hashable", tc.name, i)
			}
			lcols[i], rcols[i] = &l, &r
			want = want && Compare(tc.left[i], tc.right[i]) == 0
		}
		lk, lok := probeKey(nil, lcols, rcols, 0)
		rk, rok := probeKey(nil, rcols, lcols, 0)
		if !lok || !rok {
			t.Fatalf("%s: a non-NULL row has no key", tc.name)
		}
		if got := string(lk) == string(rk); got != want {
			t.Errorf("%s: keys equal %v, = holds %v", tc.name, got, want)
		}
		if got := len(NewHashProbe(lcols, rcols)(0)) == 1; got != want {
			t.Errorf("%s: probe matched %v, = holds %v", tc.name, got, want)
		}
	}
}

// mapProbe is NewHashProbe as it stood before the flat build index: one
// map entry and one index slice per distinct key. TestHashProbeMatchesMapIndex
// keeps it as the oracle the flat index must reproduce, list for list.
func mapProbe(lcols, rcols []*Column) func(leftRow int) []int {
	if len(lcols) == 1 {
		if lv, ln, ok := lcols[0].Ints(); ok {
			if rv, rn, ok := rcols[0].Ints(); ok {
				return mapTypedProbe(lv, ln, rv, rn)
			}
		}
		if lv, ln, ok := lcols[0].Strings(); ok {
			if rv, rn, ok := rcols[0].Strings(); ok {
				return mapTypedProbe(lv, ln, rv, rn)
			}
		}
	}
	n := 0
	if len(rcols) > 0 {
		n = rcols[0].Len()
	}
	index := make(map[string][]int, n)
	var kb []byte
	for r := 0; r < n; r++ {
		var ok bool
		if kb, ok = probeKey(kb[:0], rcols, lcols, r); ok {
			index[string(kb)] = append(index[string(kb)], r)
		}
	}
	return func(l int) []int {
		var buf [64]byte
		k, ok := probeKey(buf[:0], lcols, rcols, l)
		if !ok {
			return nil
		}
		return index[string(k)]
	}
}

func mapTypedProbe[T comparable](lvals []T, lnulls []bool, rvals []T, rnulls []bool) func(leftRow int) []int {
	index := make(map[T][]int, len(rvals))
	for r, v := range rvals {
		if !rnulls[r] {
			index[v] = append(index[v], r)
		}
	}
	return func(l int) []int {
		if lnulls[l] {
			return nil
		}
		return index[lvals[l]]
	}
}

// TestHashProbeMatchesMapIndex: the flat build index hands every probe row
// the build rows the per-key map did, in the same (ascending) order, for
// dense keys (the directly indexed form), sparse and negative ones,
// duplicates, NULLs on either side, keys at MinInt64 and MaxInt64 (where
// max − min overflows int64), string keys and composite keys. Every left
// row also probes an appended list that must not reach the next key's rows.
func TestHashProbeMatchesMapIndex(t *testing.T) {
	ints := func(vals ...int64) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = Int(v)
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	randInts := func(n int, lo, span int64, nullEvery int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = Int(lo + rng.Int63n(span))
			if nullEvery > 0 && i%nullEvery == 0 {
				out[i] = Null()
			}
		}
		return out
	}
	strs := func(vals ...string) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = Str(v)
			if v == "" {
				out[i] = Null()
			}
		}
		return out
	}
	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		name        string
		left, right [][]Value // per key column
	}{
		{"dense", [][]Value{randInts(300, -2, 60, 0)}, [][]Value{randInts(50, 0, 50, 0)}},
		{"dense with duplicates and NULLs", [][]Value{randInts(300, -1, 12, 7)}, [][]Value{randInts(40, 0, 10, 5)}},
		{"sparse", [][]Value{randInts(300, 0, 1e6, 0)}, [][]Value{randInts(40, 0, 1e6, 9)}},
		{"negative", [][]Value{randInts(300, -80, 100, 11)}, [][]Value{randInts(60, -70, 60, 0)}},
		{"MinInt64 and MaxInt64", [][]Value{ints(minI, maxI, 0, 1, -1, minI+1, maxI-1, maxI)},
			[][]Value{ints(maxI, 0, minI, maxI, 1, minI)}},
		{"MinInt64 beside small keys", [][]Value{ints(minI, 0, 1, 2, 3, maxI)}, [][]Value{ints(0, 1, minI, 2, 1)}},
		{"MaxInt64 beside small keys", [][]Value{ints(minI, 0, 1, 2, 3, maxI)}, [][]Value{ints(3, maxI, 2, 3)}},
		{"dense build, extreme probes", [][]Value{ints(minI, maxI, 0, 3, 4, -1)}, [][]Value{ints(0, 1, 2, 3, 3)}},
		{"one build key", [][]Value{ints(5, 4, 6, 5)}, [][]Value{ints(5)}},
		{"NULL build keys only", [][]Value{ints(0, 1)}, [][]Value{{Null(), Null()}}},
		{"no build rows", [][]Value{ints(0, 1)}, [][]Value{{}}},
		{"strings", [][]Value{strs("a", "b", "", "c", "a", "zz")}, [][]Value{strs("b", "a", "", "b", "c", "a")}},
		{"composite", [][]Value{randInts(200, 0, 6, 13), randInts(200, 0, 3, 0)},
			[][]Value{randInts(40, 0, 6, 11), randInts(40, 0, 3, 0)}},
		{"int facing float", [][]Value{ints(1, 2, 3, -4)}, [][]Value{{Float(2), Float(1), Float(2), Float(-4), Null()}}},
	}
	for _, tc := range cases {
		lcols, rcols := make([]*Column, len(tc.left)), make([]*Column, len(tc.right))
		for i := range tc.left {
			kind := func(vals []Value) Kind { // the first cell's, an int when it is NULL
				if len(vals) > 0 && !vals[0].IsNull() {
					return vals[0].Kind
				}
				return KindInt
			}
			l, r := columnOf("l", kind(tc.left[i]), tc.left[i]), columnOf("r", kind(tc.right[i]), tc.right[i])
			lcols[i], rcols[i] = &l, &r
		}
		got, want := NewHashProbe(lcols, rcols), mapProbe(lcols, rcols)
		for row := 0; row < lcols[0].Len(); row++ {
			g, w := got(row), want(row)
			if !slices.Equal(g, w) {
				t.Errorf("%s: left row %d probes %v, the map index %v", tc.name, row, g, w)
			}
			_ = append(g, -1) // must not write into the next key's rows
		}
		for row := 0; row < lcols[0].Len(); row++ {
			if g, w := got(row), want(row); !slices.Equal(g, w) {
				t.Errorf("%s: after appends, left row %d probes %v, the map index %v", tc.name, row, g, w)
			}
		}
	}
}

// BenchmarkIntProbe builds an index over m distinct int build keys, spread
// evenly over span k·m, and probes it n times with keys drawn from that
// span: the direct index (denseProbe) against the hashed one (typedProbe)
// at spans on both sides of denseSpan. m = 2,000, n = 50,000 is a fact
// table probing a small dimension; m = n = 100,000 builds as much as it
// probes.
func BenchmarkIntProbe(b *testing.B) {
	for _, shape := range []struct{ m, n int }{{2000, 50000}, {100000, 100000}} {
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			rng := rand.New(rand.NewSource(1))
			rvals, rnulls := make([]int64, shape.m), make([]bool, shape.m)
			for r := range rvals {
				rvals[r] = int64(r * k)
			}
			lvals, lnulls := make([]int64, shape.n), make([]bool, shape.n)
			for l := range lvals {
				lvals[l] = rng.Int63n(int64(k * shape.m))
			}
			lo, hi, _ := keyRange(rvals, rnulls)
			probes := map[string]func() func(int) []int{
				"index": func() func(int) []int { return denseProbe(lvals, lnulls, rvals, rnulls, lo, hi) },
				"map":   func() func(int) []int { return typedProbe(lvals, lnulls, rvals, rnulls) },
			}
			for _, name := range []string{"index", "map"} {
				b.Run(fmt.Sprintf("m%d/n%d/span%dx/%s", shape.m, shape.n, k, name), func(b *testing.B) {
					b.ReportAllocs()
					for range b.N {
						probe, hits := probes[name](), 0
						for l := range lvals {
							hits += len(probe(l))
						}
						if hits == 0 {
							b.Fatal("no probe hit")
						}
					}
				})
			}
		}
	}
}
