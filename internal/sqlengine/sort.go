package sqlengine

import (
	"context"
	"slices"
	"sort"

	"datalab/internal/table"
)

// ORDER BY kernel. rowOrder turns the key columns into one comparator over
// positions, table.RowOrder's: decided once per key column rather than per
// row, a typed closure over the storage of an int, float, string, time or
// bool column ("all equal" for an all-NULL one). Every ordering consumer
// runs through it:
//
//   - sortPerm: the stable permutation. Contiguous chunks of at least
//     parallelMinRows positions sort on the shared worker pool, and a k-way
//     merge joins them (one chunk, below 2*parallelMinRows, sorts inline).
//   - topKPerm: ORDER BY ... LIMIT k OFFSET m keeps the first k+m rows of
//     the stable order in a bounded max-heap of row numbers, so a 100k-row
//     scan with LIMIT 10 never sorts 100k entries.
//   - the window segment sort and its peer test (window.go).
//
// A total order sorts with pdqsort and a position tie-break, which yields
// exactly the stable order. table.Compare makes NaN equal to every value,
// which is no order at all; keys holding one run sort.SliceStable over the
// same comparator instead. That is the scalar
// reference's algorithm with the same per-pair results, so the two make the
// same comparison sequence and agree.

// rowOrder returns the ORDER BY comparator over positions of the key
// columns: negative when a sorts before b, zero when they are peers on
// every key — there is no position tie-break. Each key compares as
// table.Compare does, negated for DESC, so NULLs sort first ascending and
// last descending. total is false when a key column is a float column
// holding a NaN.
func rowOrder(keyCols []table.Column, order []OrderItem) (cmp func(a, b int) int, total bool) {
	desc := make([]bool, len(order))
	for i := range order {
		desc[i] = order[i].Desc
	}
	return table.RowOrder(keyCols, desc)
}

// sortRows sorts the positions in seg by cmp into the stable order: pdqsort
// with a position tie-break when the order is total, sort.SliceStable
// otherwise (see the file comment).
func sortRows(seg []int, cmp func(a, b int) int, total bool) {
	if !total {
		sort.SliceStable(seg, func(i, j int) bool { return cmp(seg[i], seg[j]) < 0 })
		return
	}
	slices.SortFunc(seg, func(a, b int) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return a - b
	})
}

// precedes is cmp's total order with the position tie-break: whether row a
// comes before row b in the stable order.
func precedes(cmp func(a, b int) int, a, b int) bool {
	c := cmp(a, b)
	return c < 0 || c == 0 && a < b
}

// sortPerm returns the stable row permutation ordering the key columns.
func sortPerm(ctx context.Context, keyCols []table.Column, order []OrderItem, n int) ([]int, error) {
	cmp, total := rowOrder(keyCols, order)
	if !total {
		perm := iotaInts(n)
		sortRows(perm, cmp, false)
		return perm, nil
	}
	return parallelSortPerm(ctx, cmp, n)
}

// parallelSortPerm sorts the permutation chunk-at-a-time on the worker
// pool under the total order cmp and k-way merges the sorted chunks; below
// 2*parallelMinRows rows there is one chunk, sorted inline, and nothing to
// merge. The error is the pool's: a chunk skipped on cancellation, or a
// panic it contained.
func parallelSortPerm(ctx context.Context, cmp func(a, b int) int, n int) ([]int, error) {
	_, count := chunkLayout(n, parallelMinRows)
	perm := iotaInts(n)
	chunks := make([][]int, count)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		chunks[ci] = perm[lo:hi]
		sortRows(chunks[ci], cmp, true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if count <= 1 {
		return perm, nil
	}
	// Each chunk is a cursor: its head is the next row in sorted order.
	h := rowHeap[[]int]{items: chunks, before: func(a, b []int) bool { return precedes(cmp, a[0], b[0]) }}
	h.init()
	out := make([]int, 0, n)
	for len(h.items) > 0 {
		top := h.items[0]
		out = append(out, top[0])
		if len(top) > 1 {
			h.items[0] = top[1:]
		} else {
			last := len(h.items) - 1
			h.items[0] = h.items[last]
			h.items = h.items[:last]
		}
		h.siftDown(0)
	}
	return out, nil
}

// topKPerm returns the first k entries of the stable sort permutation: the
// rows ORDER BY ... LIMIT/OFFSET can reach, without sorting the rest. A
// bounded max-heap of row numbers (the worst retained row at the root)
// scans the n rows once.
func topKPerm(ctx context.Context, keyCols []table.Column, order []OrderItem, n, k int) ([]int, error) {
	if k <= 0 {
		return []int{}, nil
	}
	if k >= n {
		return sortPerm(ctx, keyCols, order, n)
	}
	cmp, total := rowOrder(keyCols, order)
	if !total {
		// Without a total order a heap's selection can diverge from what
		// a stable sort keeps; the sort's prefix cannot.
		perm := iotaInts(n)
		sortRows(perm, cmp, false)
		return perm[:k], nil
	}
	h := rowHeap[int]{items: iotaInts(k), before: func(a, b int) bool { return precedes(cmp, b, a) }}
	h.init()
	for row := k; row < n; row++ {
		// Ties keep the earlier row (stability), and row is after every
		// retained row, so only a strictly smaller key displaces the root.
		if cmp(row, h.items[0]) < 0 {
			h.items[0] = row
			h.siftDown(0)
		}
	}
	sortRows(h.items, cmp, true)
	return h.items, nil
}

// rowHeap is a binary heap whose root is the item no other item goes
// before: the merge's chunk cursors by head row, and top-k's retained rows
// with the worst first.
type rowHeap[T any] struct {
	items  []T
	before func(a, b T) bool
}

func (h *rowHeap[T]) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *rowHeap[T]) siftDown(i int) {
	items := h.items
	for {
		l := 2*i + 1
		if l >= len(items) {
			return
		}
		top := l
		if r := l + 1; r < len(items) && h.before(items[r], items[l]) {
			top = r
		}
		if !h.before(items[top], items[i]) {
			return
		}
		items[top], items[i] = items[i], items[top]
		i = top
	}
}
