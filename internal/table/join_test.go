package table

import (
	"fmt"
	"math"
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
			l, r := ColumnOf("l", tc.left[i].Kind, tc.left[i:i+1]), ColumnOf("r", tc.right[i].Kind, tc.right[i:i+1])
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
