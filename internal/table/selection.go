package table

import "sort"

// Span is a half-open row range [Lo, Hi): Lo is the first row covered,
// Hi the first row past the end.
type Span struct{ Lo, Hi int }

// Selection is an ordered set of row indices — the engine's description of
// which rows of a relation survive a filter. It has two concrete
// representations chosen by construction:
//
//   - span form: a sorted list of disjoint, non-adjacent [Lo,Hi) ranges.
//     Contiguous runs of passing rows (clustered predicates, all-passing
//     chunks) cost two ints per run no matter how many rows they cover,
//     and downstream gathers turn into zero-copy views or memcpy-style
//     range copies.
//   - dense form: an ascending []int of row indices, the classic selection
//     vector, used when passing rows are scattered and runs are short.
//
// A Selection is immutable after construction and safe to share across
// goroutines. Methods are nil-receiver safe and treat nil as empty; note
// that the SQL engine separately uses a nil *Selection to mean "all rows"
// and checks for nil before calling any method here.
type Selection struct {
	spans []Span // span form when idx == nil
	idx   []int  // dense form when non-nil
	count int
}

// NewSpanSelection builds a span-form selection. Spans are normalized:
// empty spans are dropped, out-of-order spans sorted, and overlapping or
// adjacent spans merged, so the invariants above hold for any input.
func NewSpanSelection(spans ...Span) *Selection {
	norm := normalizeSpans(spans)
	n := 0
	for _, sp := range norm {
		n += sp.Hi - sp.Lo
	}
	return &Selection{spans: norm, count: n}
}

// normalizeSpans sorts, drops empties, and merges overlap/adjacency. The
// input slice is not retained unless it is already normalized.
func normalizeSpans(spans []Span) []Span {
	sorted := true
	kept := 0
	for i, sp := range spans {
		if sp.Hi <= sp.Lo {
			sorted = false // force the copying path to drop empties
			continue
		}
		kept++
		if i > 0 && spans[i-1].Hi >= sp.Lo {
			sorted = false
		}
	}
	if sorted && kept == len(spans) {
		return spans
	}
	work := make([]Span, 0, kept)
	for _, sp := range spans {
		if sp.Hi > sp.Lo {
			work = append(work, sp)
		}
	}
	sort.Slice(work, func(a, b int) bool { return work[a].Lo < work[b].Lo })
	out := work[:0]
	for _, sp := range work {
		if n := len(out); n > 0 && sp.Lo <= out[n-1].Hi {
			if sp.Hi > out[n-1].Hi {
				out[n-1].Hi = sp.Hi
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// NewIndexSelection builds a dense-form selection. An already strictly
// ascending index slice is adopted as-is (no copy); otherwise it is
// sorted and deduplicated into fresh storage. Indices must be >= 0.
func NewIndexSelection(idx []int) *Selection {
	ascending := true
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			ascending = false
			break
		}
	}
	if !ascending {
		cp := append([]int(nil), idx...)
		sort.Ints(cp)
		out := cp[:0]
		for i, v := range cp {
			if i == 0 || v != cp[i-1] {
				out = append(out, v)
			}
		}
		idx = out
	}
	if idx == nil {
		idx = []int{}
	}
	return &Selection{idx: idx, count: len(idx)}
}

// SelectionFromAscending builds a selection from an already strictly
// ascending, non-negative index list, detecting contiguous runs to pick
// span form (the join output path uses this: a probe where consecutive
// left rows each match once yields long runs, and span gathering copies
// them range-at-a-time). ok=false — and no selection — when idx is not
// strictly ascending or starts below zero; callers fall back to raw
// gathering. Dense-form results adopt idx without copying.
func SelectionFromAscending(idx []int) (*Selection, bool) {
	if len(idx) > 0 && idx[0] < 0 {
		return nil, false
	}
	runs := 0
	for i := 0; i < len(idx); i++ {
		if i > 0 && idx[i] <= idx[i-1] {
			return nil, false
		}
		if i == 0 || idx[i] != idx[i-1]+1 {
			runs++
		}
	}
	count := len(idx)
	if count == 0 {
		return &Selection{}, true
	}
	if 2*runs > count {
		return &Selection{idx: idx, count: count}, true
	}
	spans := make([]Span, 0, runs)
	lo := idx[0]
	for i := 1; i < count; i++ {
		if idx[i] != idx[i-1]+1 {
			spans = append(spans, Span{lo, idx[i-1] + 1})
			lo = idx[i]
		}
	}
	spans = append(spans, Span{lo, idx[count-1] + 1})
	return &Selection{spans: spans, count: count}, true
}

// SelectionFromBools builds the selection of the positions i where vals[i]
// is true and nulls[i] is false (nulls nil = no NULLs), shifted by offset
// so position i selects row offset+i. The representation is chosen by
// density: runs of selected positions become spans unless the runs are so
// short that dense indices are smaller. A counting pass picks the form
// first so exactly one right-sized slice is allocated — scattered masks
// never build a throwaway span list. This is the WHERE hot path over a
// boolean column's typed storage.
func SelectionFromBools(vals, nulls []bool, offset int) *Selection {
	set := func(i int) bool { return vals[i] && (nulls == nil || !nulls[i]) }
	n := len(vals)
	count, runs := 0, 0
	prev := false
	for i := 0; i < n; i++ {
		s := set(i)
		if s {
			count++
			if !prev {
				runs++
			}
		}
		prev = s
	}
	if count == 0 {
		return &Selection{}
	}
	if 2*runs > count {
		idx := make([]int, 0, count)
		for i := 0; i < n; i++ {
			if set(i) {
				idx = append(idx, offset+i)
			}
		}
		return &Selection{idx: idx, count: count}
	}
	spans := make([]Span, 0, runs)
	for i := 0; i < n; {
		if !set(i) {
			i++
			continue
		}
		j := i + 1
		for j < n && set(j) {
			j++
		}
		spans = append(spans, Span{offset + i, offset + j})
		i = j
	}
	return &Selection{spans: spans, count: count}
}

func expandSpans(spans []Span, count int) []int {
	idx := make([]int, 0, count)
	for _, sp := range spans {
		for r := sp.Lo; r < sp.Hi; r++ {
			idx = append(idx, r)
		}
	}
	return idx
}

// MergeSelections concatenates parts covering ascending disjoint row
// regions (e.g. per-chunk filter results) into one selection, merging
// runs that touch across part boundaries. The combined representation is
// re-chosen by the same global density rule as SelectionFromBools — runs
// are counted across all parts (dense parts contribute their runs of
// consecutive indices), so one scattered chunk among many clustered ones
// does not degrade the whole result to a per-row index vector.
func MergeSelections(parts []*Selection) *Selection {
	total, runs := 0, 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		total += p.count
		runs += len(p.spans)
		for i, r := range p.idx {
			if i == 0 || r != p.idx[i-1]+1 {
				runs++
			}
		}
	}
	if 2*runs > total {
		idx := make([]int, 0, total)
		for _, p := range parts {
			idx = p.AppendIndices(idx)
		}
		return &Selection{idx: idx, count: total}
	}
	spans := make([]Span, 0, runs)
	push := func(sp Span) {
		if n := len(spans); n > 0 && spans[n-1].Hi == sp.Lo {
			spans[n-1].Hi = sp.Hi
			return
		}
		spans = append(spans, sp)
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, sp := range p.spans {
			push(sp)
		}
		for i := 0; i < len(p.idx); {
			j := i + 1
			for j < len(p.idx) && p.idx[j] == p.idx[j-1]+1 {
				j++
			}
			push(Span{p.idx[i], p.idx[j-1] + 1})
			i = j
		}
	}
	return &Selection{spans: spans, count: total}
}

// Len returns the number of selected rows.
func (s *Selection) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Spans returns the span list and true when the selection is span-form.
func (s *Selection) Spans() ([]Span, bool) {
	if s == nil {
		return nil, true
	}
	return s.spans, s.idx == nil
}

// AsRange reports whether the selection is a single contiguous range
// (including the empty selection, as [0,0)) and returns its bounds. A
// dense-form selection never reports true, even if its indices happen to
// be contiguous: form is fixed at construction.
func (s *Selection) AsRange() (lo, hi int, ok bool) {
	if s == nil || (s.idx == nil && len(s.spans) == 0) {
		return 0, 0, true
	}
	if s.idx == nil && len(s.spans) == 1 {
		return s.spans[0].Lo, s.spans[0].Hi, true
	}
	return 0, 0, false
}

// Indices returns the selected rows as an ascending index slice. For
// dense-form selections this is the internal slice (callers must not
// mutate it); span form materializes a fresh slice.
func (s *Selection) Indices() []int {
	if s == nil {
		return nil
	}
	if s.idx != nil {
		return s.idx
	}
	return expandSpans(s.spans, s.count)
}

// AppendIndices appends the selected rows to dst in ascending order.
func (s *Selection) AppendIndices(dst []int) []int {
	if s == nil {
		return dst
	}
	if s.idx != nil {
		return append(dst, s.idx...)
	}
	for _, sp := range s.spans {
		for r := sp.Lo; r < sp.Hi; r++ {
			dst = append(dst, r)
		}
	}
	return dst
}

// ForEach calls fn for every selected row in ascending order.
func (s *Selection) ForEach(fn func(row int)) {
	if s == nil {
		return
	}
	if s.idx != nil {
		for _, r := range s.idx {
			fn(r)
		}
		return
	}
	for _, sp := range s.spans {
		for r := sp.Lo; r < sp.Hi; r++ {
			fn(r)
		}
	}
}

// Truncate returns a selection of the first k selected rows. The result
// shares storage with s where possible; k >= Len returns s itself.
func (s *Selection) Truncate(k int) *Selection {
	if k < 0 {
		k = 0
	}
	if s == nil || k >= s.count {
		return s
	}
	if s.idx != nil {
		return &Selection{idx: s.idx[:k], count: k}
	}
	spans := make([]Span, 0, len(s.spans))
	left := k
	for _, sp := range s.spans {
		if left == 0 {
			break
		}
		n := sp.Hi - sp.Lo
		if n > left {
			n = left
		}
		spans = append(spans, Span{sp.Lo, sp.Lo + n})
		left -= n
	}
	return &Selection{spans: spans, count: k}
}

// Drop returns a selection of all but the first k selected rows — the
// complement of Truncate, used for OFFSET pushdown. The result shares
// storage with s where possible; k <= 0 returns s itself, k >= Len the
// empty selection.
func (s *Selection) Drop(k int) *Selection {
	if k <= 0 || s == nil {
		return s
	}
	if k >= s.count {
		return &Selection{}
	}
	if s.idx != nil {
		return &Selection{idx: s.idx[k:], count: s.count - k}
	}
	spans := make([]Span, 0, len(s.spans))
	skip := k
	for _, sp := range s.spans {
		n := sp.Hi - sp.Lo
		if skip >= n {
			skip -= n
			continue
		}
		spans = append(spans, Span{sp.Lo + skip, sp.Hi})
		skip = 0
	}
	return &Selection{spans: spans, count: s.count - k}
}

// Pick returns the rows of s at the positions where vals is true and nulls
// is false (nulls nil = no NULLs): vals[i] speaks for the i-th selected row,
// the layout a predicate evaluated over s produces. The representation
// follows the same density rule as SelectionFromBools, which serves the
// single-range case directly.
func (s *Selection) Pick(vals, nulls []bool) *Selection {
	if lo, _, ok := s.AsRange(); ok {
		return SelectionFromBools(vals, nulls, lo)
	}
	var b spanBuilder
	it := IterSelection(s, 0)
	for i, v := range vals {
		r, _ := it.Next()
		if v && (nulls == nil || !nulls[i]) {
			b.add(r)
		}
	}
	return b.selection()
}

// SelectionIter iterates the rows of a selection without per-row closure
// calls, with the engine's "nil selects all of [0,n)" convention built in.
type SelectionIter struct {
	s       *Selection
	n       int // iteration bound for the nil (all-rows) case
	pos     int // next position (nil/dense) or row within current span
	span    int // current span index (span form)
	allRows bool
}

// IterSelection returns an iterator over s; a nil s iterates 0..n-1.
func IterSelection(s *Selection, n int) SelectionIter {
	if s == nil {
		return SelectionIter{n: n, allRows: true}
	}
	return SelectionIter{s: s}
}

// Next returns the next selected row, or ok=false when exhausted.
func (it *SelectionIter) Next() (row int, ok bool) {
	if it.allRows {
		if it.pos >= it.n {
			return 0, false
		}
		it.pos++
		return it.pos - 1, true
	}
	if it.s.idx != nil {
		if it.pos >= len(it.s.idx) {
			return 0, false
		}
		it.pos++
		return it.s.idx[it.pos-1], true
	}
	for it.span < len(it.s.spans) {
		sp := it.s.spans[it.span]
		if r := sp.Lo + it.pos; r < sp.Hi {
			it.pos++
			return r, true
		}
		it.span++
		it.pos = 0
	}
	return 0, false
}
