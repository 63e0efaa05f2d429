package table

import "math"

// JoinKind selects the join semantics.
type JoinKind uint8

const (
	// JoinInner keeps only matched (left, right) row pairs.
	JoinInner JoinKind = iota
	// JoinLeft keeps every left row; unmatched left rows pad the right
	// side with NULLs.
	JoinLeft
	// JoinRight keeps every right row; unmatched right rows pad the left
	// side with NULLs. Output rows follow right-row order.
	JoinRight
	// JoinFull keeps every row of both sides: the inner matches in
	// left-probe order, then the unmatched right rows (left side padded)
	// appended in ascending right-row order.
	JoinFull
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	default:
		return "INNER"
	}
}

// JoinPairs is a join's match list: one entry per output row, kept as
// parallel per-side row-index lists plus explicit null masks for
// outer-join padding — never -1 sentinel indices. A nil mask means that
// side can never be padded by the join's kind (and its index list is a
// candidate for span-form gathering when strictly ascending). The SQL
// engine's parallel join pipeline allocates one, sized to the probe side,
// hands each probe chunk a Window of it to append into, and Merges the
// windows back in chunk order.
type JoinPairs struct {
	Lidx  []int
	Ridx  []int
	Lnull []bool // non-nil ⇒ RIGHT/FULL padding may blank left cells
	Rnull []bool // non-nil ⇒ LEFT/FULL padding may blank right cells
}

// NewJoinPairs allocates the empty pair list of an INNER, LEFT or FULL
// join whose probe side has n rows: capacity n in each index list and in
// each null mask that kind can need (non-nil, so appends stay aligned) —
// the whole output when every probe row yields at most one pair. A RIGHT
// join builds as the LEFT join of the swapped sides and swaps the lists and
// masks of the result.
func NewJoinPairs(kind JoinKind, n int) *JoinPairs {
	p := &JoinPairs{Lidx: make([]int, 0, n), Ridx: make([]int, 0, n)}
	if kind == JoinFull {
		p.Lnull = make([]bool, 0, n)
	}
	if kind == JoinLeft || kind == JoinFull {
		p.Rnull = make([]bool, 0, n)
	}
	return p
}

// Window returns an empty pair list that appends into p's capacity
// [lo, hi): the pairs of probe rows lo..hi-1. Its lists are three-index
// slices, so an append can never run into the next window; a window that
// outgrows its share (a probe row with several matches) reallocates only
// itself. Windows over disjoint ranges may be filled concurrently.
func (p *JoinPairs) Window(lo, hi int) JoinPairs {
	w := JoinPairs{Lidx: p.Lidx[lo:lo:hi], Ridx: p.Ridx[lo:lo:hi]}
	if p.Lnull != nil {
		w.Lnull = p.Lnull[lo:lo:hi]
	}
	if p.Rnull != nil {
		w.Rnull = p.Rnull[lo:lo:hi]
	}
	return w
}

// Merge sets p to the concatenation of parts: windows of p that together
// cover its capacity, in range order — which reproduces a serial probe's
// output order. When every part stayed inside its window, the parts move
// down in place and p keeps its buffer with no allocation. Otherwise p
// gets a new buffer of exactly the total length and every part is copied
// into it.
func (p *JoinPairs) Merge(parts []JoinPairs) {
	total, capSum := 0, 0
	for i := range parts {
		total += len(parts[i].Lidx)
		capSum += cap(parts[i].Lidx)
	}
	// Append only ever grows a capacity, so the windows' capacities add
	// up to p's exactly when none of them reallocated.
	fresh := capSum != cap(p.Lidx)
	p.Lidx, p.Ridx = mergeDst(p.Lidx, fresh, total), mergeDst(p.Ridx, fresh, total)
	p.Lnull, p.Rnull = mergeDst(p.Lnull, fresh, total), mergeDst(p.Rnull, fresh, total)
	off := 0
	for i := range parts {
		// copy handles the overlap: a part never sits below its offset.
		q := &parts[i]
		copy(p.Lidx[off:], q.Lidx)
		copy(p.Ridx[off:], q.Ridx)
		if p.Lnull != nil {
			copy(p.Lnull[off:], q.Lnull)
		}
		if p.Rnull != nil {
			copy(p.Rnull[off:], q.Rnull)
		}
		off += len(q.Lidx)
	}
}

// mergeDst is Merge's destination for one list: s's own buffer, or a new
// one when fresh, at length n. A nil mask stays nil.
func mergeDst[T any](s []T, fresh bool, n int) []T {
	switch {
	case s == nil:
		return nil
	case fresh:
		return make([]T, n)
	}
	return s[:n]
}

// Len returns the number of output rows.
func (p *JoinPairs) Len() int { return len(p.Lidx) }

// Match appends a matched (left row, right row) pair.
func (p *JoinPairs) Match(l, r int) {
	p.Lidx = append(p.Lidx, l)
	p.Ridx = append(p.Ridx, r)
	if p.Lnull != nil {
		p.Lnull = append(p.Lnull, false)
	}
	if p.Rnull != nil {
		p.Rnull = append(p.Rnull, false)
	}
}

// PadRight appends left row l with a NULL-padded right side (LEFT/FULL).
func (p *JoinPairs) PadRight(l int) {
	p.Lidx = append(p.Lidx, l)
	p.Ridx = append(p.Ridx, 0)
	if p.Lnull != nil {
		p.Lnull = append(p.Lnull, false)
	}
	p.Rnull = append(p.Rnull, true)
}

// SweepUnmatchedRight appends, for a FULL join, the right-side rows no
// surviving pair matched — left-padded, in ascending row order. This is
// the final step that defines FULL OUTER output order.
func (p *JoinPairs) SweepUnmatchedRight(nright int) {
	matched := make([]bool, nright)
	for i, r := range p.Ridx {
		if !p.Rnull[i] {
			matched[r] = true
		}
	}
	for r := 0; r < nright; r++ {
		if !matched[r] {
			p.Lidx = append(p.Lidx, 0)
			p.Ridx = append(p.Ridx, r)
			p.Lnull = append(p.Lnull, true)
			p.Rnull = append(p.Rnull, false)
		}
	}
}

// EquiHashable reports whether the equality l = r has an exact hash key:
// both columns of one kind or an int·float pair (which = compares as
// float64), and no float column holding NaN, which = makes equal to every
// number. NewHashProbe requires it of every key pair; any
// other equality is left for = itself to decide pair by pair.
func EquiHashable(l, r *Column) bool {
	if hasNaN(l) || hasNaN(r) {
		return false
	}
	return l.Kind == r.Kind ||
		(l.Kind == KindInt && r.Kind == KindFloat) || (l.Kind == KindFloat && r.Kind == KindInt)
}

// hasNaN reports whether c is a typed float column holding a NaN.
func hasNaN(c *Column) bool {
	fs, nulls, _ := c.Floats()
	for i, f := range fs {
		if math.IsNaN(f) && !nulls[i] {
			return true
		}
	}
	return false
}

// NewHashProbe builds an index over the key columns of the right side and
// returns a probe from a left-row index to the matching right rows, in
// ascending order. lcols and rcols pair up positionally (lcols[i] =
// rcols[i]), and every pair must be EquiHashable; a NULL in any key column
// never matches. The probe is safe for concurrent use, and the lists it
// returns are read-only. The index is one flat list of the build rows
// grouped by key (rowLists). A single typed int key whose values span
// fewer than denseSpan times the build rows finds its group by key − min,
// with no hashing; a single typed int or string key otherwise hashes its raw
// value to a group number, and any other key hashes the row's probeKey, so
// two rows meet exactly when = holds on every pair.
func NewHashProbe(lcols, rcols []*Column) func(leftRow int) []int {
	if len(lcols) == 1 {
		if lv, ln, ok := lcols[0].Ints(); ok {
			if rv, rn, ok := rcols[0].Ints(); ok {
				return intProbe(lv, ln, rv, rn)
			}
		}
		if lv, ln, ok := lcols[0].Strings(); ok {
			if rv, rn, ok := rcols[0].Strings(); ok {
				return typedProbe(lv, ln, rv, rn)
			}
		}
	}
	n := 0
	if len(rcols) > 0 {
		n = rcols[0].Len()
	}
	groups := make(map[string]int32)
	slots := make([]int32, n)
	var kb []byte
	for r := range slots {
		var ok bool
		if kb, ok = probeKey(kb[:0], rcols, lcols, r); !ok {
			slots[r] = -1
			continue
		}
		g, seen := groups[string(kb)]
		if !seen {
			g = int32(len(groups))
			groups[string(kb)] = g
		}
		slots[r] = g
	}
	index := newRowLists(slots, len(groups))
	return func(l int) []int {
		var buf [64]byte
		k, ok := probeKey(buf[:0], lcols, rcols, l)
		if !ok {
			return nil
		}
		if g, ok := groups[string(k)]; ok {
			return index.rows(g)
		}
		return nil
	}
}

// denseSpan bounds a directly indexed int key: its values span fewer than
// this many times the build side's rows. BenchmarkIntProbe sets it: up to
// a span of 8× the direct index builds and probes faster than the hashed
// one and takes fewer bytes, with 2,000 or 100,000 build rows; at 16× it
// takes more bytes than the map with 100,000, and at 32× it is slower.
const denseSpan = 8

// intProbe is NewHashProbe over one typed int key column per side: the
// direct index (denseProbe) when the build keys span fewer than denseSpan
// times the build rows, the hashed one (typedProbe) otherwise. The span is
// taken in uint64, where max − min cannot overflow.
func intProbe(lvals []int64, lnulls []bool, rvals []int64, rnulls []bool) func(leftRow int) []int {
	lo, hi, found := keyRange(rvals, rnulls)
	if !found {
		return func(int) []int { return nil }
	}
	span := uint64(hi) - uint64(lo)
	if span >= uint64(denseSpan*len(rvals)) || len(rvals) > math.MaxInt32/denseSpan {
		return typedProbe(lvals, lnulls, rvals, rnulls)
	}
	return denseProbe(lvals, lnulls, rvals, rnulls, lo, hi)
}

// keyRange returns the least and greatest non-NULL values of vals; found
// is false when every value is NULL.
func keyRange(vals []int64, nulls []bool) (lo, hi int64, found bool) {
	for r, v := range vals {
		if nulls[r] {
			continue
		}
		if !found || v < lo {
			lo = v
		}
		if !found || v > hi {
			hi = v
		}
		found = true
	}
	return lo, hi, found
}

// denseProbe indexes the build rows, whose non-NULL keys lie in [lo, hi],
// by key − lo: a key's group is its offset, and no key is hashed. A probe
// outside [lo, hi] misses.
func denseProbe(lvals []int64, lnulls []bool, rvals []int64, rnulls []bool, lo, hi int64) func(leftRow int) []int {
	slots := make([]int32, len(rvals))
	for r, v := range rvals {
		slots[r] = -1
		if !rnulls[r] {
			slots[r] = int32(uint64(v) - uint64(lo))
		}
	}
	index := newRowLists(slots, int(uint64(hi)-uint64(lo))+1)
	return func(l int) []int {
		v := lvals[l]
		if lnulls[l] || v < lo || v > hi {
			return nil
		}
		return index.rows(int32(uint64(v) - uint64(lo)))
	}
}

// typedProbe is NewHashProbe over one typed key column per side: a map from
// each distinct build key to its group.
func typedProbe[T comparable](lvals []T, lnulls []bool, rvals []T, rnulls []bool) func(leftRow int) []int {
	groups := make(map[T]int32)
	slots := make([]int32, len(rvals))
	for r, v := range rvals {
		if rnulls[r] {
			slots[r] = -1
			continue
		}
		g, ok := groups[v]
		if !ok {
			g = int32(len(groups))
			groups[v] = g
		}
		slots[r] = g
	}
	index := newRowLists(slots, len(groups))
	return func(l int) []int {
		if lnulls[l] {
			return nil
		}
		if g, ok := groups[lvals[l]]; ok {
			return index.rows(g)
		}
		return nil
	}
}

// rowLists is a build side's rows grouped by key in one flat list (the
// compressed sparse row layout): group g's rows are list[start[g]:start[g+1]],
// ascending. It costs two allocations however many keys there are.
type rowLists struct {
	start []int32
	list  []int
}

// newRowLists groups rows 0..len(slots)-1 into groups groups: row r joins
// group slots[r], or none when that is negative. One counting pass sizes
// each group, a prefix sum places it, and a fill pass in row order writes
// each group's rows ascending.
func newRowLists(slots []int32, groups int) rowLists {
	start := make([]int32, groups+1)
	for _, g := range slots {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := 1; g <= groups; g++ {
		start[g] += start[g-1]
	}
	list := make([]int, start[groups])
	// The fill advances start[g] to group g's end, which is group g+1's
	// start; shifting the offsets up by one restores them.
	for r, g := range slots {
		if g >= 0 {
			list[start[g]] = r
			start[g]++
		}
	}
	copy(start[1:], start[:groups])
	start[0] = 0
	return rowLists{start: start, list: list}
}

// rows returns group g's rows; its capacity ends with them, so an append
// to it cannot write into the next group.
func (x rowLists) rows(g int32) []int {
	lo, hi := x.start[g], x.start[g+1]
	return x.list[lo:hi:hi]
}

// probeKey appends the AppendKey tuple of row across the key columns cols,
// each compared by = against the column at the same position of other; ok
// is false when a cell is NULL, which matches nothing. An int facing a
// float column keys as the float64 = compares it as.
func probeKey(dst []byte, cols, other []*Column, row int) ([]byte, bool) {
	for i, c := range cols {
		switch {
		case c.IsNullAt(row):
			return dst, false
		case c.Kind == KindInt && other[i].Kind == KindFloat:
			dst = appendRealKey(dst, float64(c.ints[row]))
		default:
			dst = c.AppendKey(dst, row)
		}
	}
	return dst, true
}
