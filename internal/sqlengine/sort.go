package sqlengine

import (
	"bytes"
	"context"
	"math"
	"sort"

	"datalab/internal/table"
)

// Typed ORDER BY kernel. The key columns are encoded once into memcmp-
// ordered byte keys (internal/table/sortkey.go) and the row permutation is
// sorted by comparing key bytes — no per-comparison Value boxing. Three
// strategies, picked by shape:
//
//   - full sort: encode all keys, pdqsort the permutation with a
//     (key, position) comparator. The position tie-break makes the order
//     total, so the unstable sort.Slice yields exactly the stable order.
//   - large full sort (n >= 2*parallelMinRows): partition positions into
//     contiguous chunks on the shared worker pool, encode + sort each
//     chunk independently, then k-way merge the sorted chunks through a
//     small loser-heap. Chunk-local key buffers keep encoding parallel
//     and false-sharing-free.
//   - ORDER BY ... LIMIT k OFFSET m: a bounded max-heap retains the first
//     k+m rows of the stable order, so a 100k-row scan with LIMIT 10
//     never sorts 100k entries. Rows are encoded into a reused scratch
//     buffer and only copied into the heap when they beat the current
//     worst retained row.
//
// Mixed-kind (boxed) key columns have no memcmp encoding; those fall back
// to the boxed comparator paths at the bottom of this file, which preserve
// the scalar reference semantics bit-for-bit (the differential fuzz
// harness checks both routes).

// sortKeySpecs resolves the ORDER BY columns to encoder specs; ok=false
// when any key column has no memcmp encoding: boxed mixed-kind storage,
// or a float column containing NaN. table.Compare treats NaN as equal to
// every value (it is not a total order), so no byte encoding can
// reproduce it — NaN keys must run the reference algorithm itself.
func sortKeySpecs(keyCols []table.Column, order []OrderItem) ([]table.SortKeySpec, bool) {
	specs := make([]table.SortKeySpec, len(order))
	for i := range order {
		if !table.CanEncodeSortKey(&keyCols[i]) {
			return nil, false
		}
		if fs, nulls, ok := keyCols[i].Floats(); ok {
			for j, f := range fs {
				if !nulls[j] && math.IsNaN(f) {
					return nil, false
				}
			}
		}
		specs[i] = table.SortKeySpec{Col: &keyCols[i], Desc: order[i].Desc}
	}
	return specs, true
}

// keyset holds the encoded sort keys of positions [lo, hi). Fixed-width
// composite keys (no string key columns) are addressed by stride; variable
// keys through an offsets slice.
type keyset struct {
	lo   int
	buf  []byte
	offs []int // nil when fixed-width
	w    int   // stride when offs == nil
}

func buildKeyset(specs []table.SortKeySpec, lo, hi int) keyset {
	if w := table.FixedSortKeyWidth(specs); w > 0 {
		return keyset{lo: lo, buf: table.BuildFixedSortKeys(specs, lo, hi, w), w: w}
	}
	buf, offs := table.BuildSortKeys(specs, lo, hi)
	return keyset{lo: lo, buf: buf, offs: offs}
}

// key returns the encoded key of absolute position pos.
func (ks *keyset) key(pos int) []byte {
	i := pos - ks.lo
	if ks.offs == nil {
		return ks.buf[i*ks.w : (i+1)*ks.w]
	}
	return ks.buf[ks.offs[i]:ks.offs[i+1]]
}

// sortSegment sorts one contiguous permutation segment by (key, position);
// the position tie-break totalizes the order, making the unstable pdqsort
// produce exactly the stable result.
func (ks *keyset) sortSegment(seg []int) {
	sort.Slice(seg, func(a, b int) bool {
		pa, pb := seg[a], seg[b]
		c := bytes.Compare(ks.key(pa), ks.key(pb))
		if c != 0 {
			return c < 0
		}
		return pa < pb
	})
}

// sortPerm returns the stable row permutation ordering the key columns.
// ctx is observed by the parallel chunk sort; serial sorts below the
// parallel threshold run to completion (they are sub-millisecond).
func sortPerm(ctx context.Context, keyCols []table.Column, order []OrderItem, n int) ([]int, error) {
	specs, ok := sortKeySpecs(keyCols, order)
	if !ok {
		return boxedSortPerm(keyCols, order, n), nil
	}
	if n >= 2*parallelMinRows {
		return parallelSortPerm(ctx, specs, n)
	}
	ks := buildKeyset(specs, 0, n)
	perm := iotaInts(n)
	ks.sortSegment(perm)
	return perm, nil
}

// parallelSortPerm sorts large permutations chunk-at-a-time on the worker
// pool and k-way merges the sorted chunks. The error is the pool's: a
// chunk skipped on cancellation, or a panic it contained.
func parallelSortPerm(ctx context.Context, specs []table.SortKeySpec, n int) ([]int, error) {
	_, count := chunkLayout(n, parallelMinRows)
	perm := iotaInts(n)
	keysets := make([]keyset, count)
	bounds := make([][2]int, count)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		keysets[ci] = buildKeyset(specs, lo, hi)
		bounds[ci] = [2]int{lo, hi}
		keysets[ci].sortSegment(perm[lo:hi])
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge cursors, one per sorted chunk, ordered by (key, position).
	cursors := make([]mergeCursor, 0, count)
	for ci := range keysets {
		if bounds[ci][1] > bounds[ci][0] {
			cursors = append(cursors, mergeCursor{
				seg: perm[bounds[ci][0]:bounds[ci][1]],
				ks:  &keysets[ci],
			})
		}
	}
	if len(cursors) <= 1 {
		return perm, nil
	}
	out := make([]int, 0, n)
	h := mergeHeap(cursors)
	h.init()
	for len(h) > 0 {
		out = append(out, h[0].head())
		if h[0].advance() {
			h.siftDown(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			h.siftDown(0)
		}
	}
	return out, nil
}

// mergeCursor walks one sorted chunk of the permutation. head is the next
// position in sorted order; its key lives in the chunk-local keyset.
type mergeCursor struct {
	seg  []int // sorted chunk segment of the permutation
	next int
	ks   *keyset
}

func (c *mergeCursor) head() int { return c.seg[c.next] }

func (c *mergeCursor) key() []byte { return c.ks.key(c.seg[c.next]) }

// advance moves to the next element, reporting false when exhausted.
func (c *mergeCursor) advance() bool {
	c.next++
	return c.next < len(c.seg)
}

// mergeHeap is a binary min-heap of cursors ordered by (key, position):
// the position tie-break keeps the merged order identical to the stable
// serial sort.
type mergeHeap []mergeCursor

func (h mergeHeap) less(a, b int) bool {
	c := bytes.Compare(h[a].key(), h[b].key())
	if c != 0 {
		return c < 0
	}
	return h[a].head() < h[b].head()
}

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h mergeHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		small := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			small = r
		}
		if !h.less(small, i) {
			return
		}
		h[small], h[i] = h[i], h[small]
		i = small
	}
}

// topKPerm returns the first k entries of the stable sort permutation: the
// rows ORDER BY ... LIMIT/OFFSET can reach, without sorting the rest. A
// bounded max-heap (worst retained row at the root) scans the n rows once;
// each row's key is encoded into a reused scratch buffer and copied only
// when it displaces the root.
func topKPerm(ctx context.Context, keyCols []table.Column, order []OrderItem, n, k int) ([]int, error) {
	if k <= 0 {
		return []int{}, nil
	}
	if k >= n {
		return sortPerm(ctx, keyCols, order, n)
	}
	specs, ok := sortKeySpecs(keyCols, order)
	if !ok {
		return boxedTopKPerm(keyCols, order, n, k), nil
	}
	h := topKHeap{rows: make([]int, k), keys: make([][]byte, k)}
	h.worse = func(a, b int) bool {
		c := bytes.Compare(h.keys[a], h.keys[b])
		if c != 0 {
			return c > 0
		}
		return h.rows[a] > h.rows[b]
	}
	// Seed the heap with the first k rows, their keys carved out of one
	// arena encoding (full-capacity subslices, so a longer replacement key
	// reallocates its slot instead of clobbering a neighbour).
	arena := buildKeyset(specs, 0, k)
	for row := 0; row < k; row++ {
		h.rows[row] = row
		key := arena.key(row)
		h.keys[row] = key[:len(key):len(key)]
	}
	h.heapify(k)
	var scratch []byte
	for row := k; row < n; row++ {
		scratch = table.AppendRowSortKey(scratch[:0], specs, row)
		// Ties keep the earlier row (stability), and row > rows[0] always
		// holds here, so only strictly smaller keys displace the root.
		if bytes.Compare(scratch, h.keys[0]) >= 0 {
			continue
		}
		h.keys[0] = append(h.keys[0][:0], scratch...)
		h.rows[0] = row
		h.siftDown(0, k)
	}
	h.sortAscending(k)
	return h.rows, nil
}

// boxedTopKPerm is topKPerm for keys with no memcmp encoding. It takes
// the prefix of the full boxed sort rather than running a bounded heap:
// with NaN keys the comparator is not a total order, and a heap's
// selection can diverge from what a stable sort would have kept — the
// prefix of the reference sort cannot, by construction.
func boxedTopKPerm(keyCols []table.Column, order []OrderItem, n, k int) []int {
	return boxedSortPerm(keyCols, order, n)[:k]
}

// topKHeap is a bounded binary max-heap over permutation slots: worse(a, b)
// reports whether slot a's row sorts after slot b's, so the root is always
// the worst retained row.
type topKHeap struct {
	rows  []int
	keys  [][]byte
	worse func(a, b int) bool
}

func (h *topKHeap) swap(a, b int) {
	h.rows[a], h.rows[b] = h.rows[b], h.rows[a]
	h.keys[a], h.keys[b] = h.keys[b], h.keys[a]
}

func (h *topKHeap) heapify(n int) {
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

func (h *topKHeap) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h.worse(r, l) {
			big = r
		}
		if !h.worse(big, i) {
			return
		}
		h.swap(big, i)
		i = big
	}
}

// sortAscending turns the heap into the ascending stable order in place
// (classic heapsort finish: repeatedly move the worst row to the tail).
func (h *topKHeap) sortAscending(n int) {
	for i := n - 1; i > 0; i-- {
		h.swap(0, i)
		h.siftDown(0, i)
	}
}

// boxedCompare is the vectorized side's one boxed ORDER BY comparator:
// negative when position a sorts before position b under the ORDER BY
// spec, zero when they are peers on every key. It has no position
// tie-break — stability is the sorting algorithm's job.
func boxedCompare(keyCols []table.Column, order []OrderItem, a, b int) int {
	for k := range order {
		c := table.Compare(keyCols[k].Value(a), keyCols[k].Value(b))
		if c == 0 {
			continue
		}
		if order[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// boxedSortSegment is the pre-typed-kernel sort: it stable-sorts the
// positions in seg by boxing each key cell per comparison. It must stay
// sort.SliceStable over boxedCompare — the scalar reference sorts its rows
// with the identical comparator and algorithm, so the two paths make the
// same comparison sequence and agree even when NaN makes the comparator
// non-transitive (where an unstable sort's result is unspecified and could
// diverge).
func boxedSortSegment(keyCols []table.Column, order []OrderItem, seg []int) {
	sort.SliceStable(seg, func(a, b int) bool {
		return boxedCompare(keyCols, order, seg[a], seg[b]) < 0
	})
}

// boxedSortPerm is the full-input boxed sort: the stable permutation of
// 0..n-1.
func boxedSortPerm(keyCols []table.Column, order []OrderItem, n int) []int {
	perm := iotaInts(n)
	boxedSortSegment(keyCols, order, perm)
	return perm
}
