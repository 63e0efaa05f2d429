package sqlengine

import (
	"context"

	"datalab/internal/table"
)

// grouping numbers positions 0..n-1 by key: ids[i] is position i's group,
// the groups numbered in first-appearance order; firsts[g] is group g's
// first position and counts[g] how many positions it holds. A coded
// grouping (groupCodes) has no ids: position i's group is remap[codes[i]],
// or remap's last entry when nulls (nil: none) marks i. With neither, every
// position is in group 0.
type grouping struct {
	ids    []int32
	firsts []int
	counts []int
	codes  []int32
	nulls  []bool
	remap  []int32
}

// idsAt writes the ids of a coded grouping's positions pos, pos+1, ...
// into gs and returns it.
func (gr *grouping) idsAt(pos int, gs []int32) []int32 {
	codes := gr.codes[pos : pos+len(gs)]
	if gr.nulls == nil {
		for j, c := range codes {
			gs[j] = gr.remap[c]
		}
		return gs
	}
	nulls := gr.nulls[pos : pos+len(gs)]
	null := gr.remap[len(gr.remap)-1]
	for j, c := range codes {
		id := gr.remap[c]
		if nulls[j] {
			id = null
		}
		gs[j] = id
	}
	return gs
}

// idList is every position's id, built from the codes of a coded grouping;
// nil when every position is in group 0.
func (gr *grouping) idList() []int32 {
	if gr.remap == nil {
		return gr.ids
	}
	return gr.idsAt(0, make([]int32, len(gr.codes)))
}

// groupKeys is the vectorized engine's one key grouper, behind GROUP BY,
// DISTINCT and PARTITION BY. keyCols hold one key per position 0..n-1; NULL
// is a key like any other. A single coded string key (table.Column.Codes)
// counts its codes, unless its dictionary outnumbers the positions; a
// single typed int/string key hashes its raw values; every other shape
// (composite, float, bool, time) hashes its key tuple's table.AppendKey bytes.
// Either way two positions share a group exactly when = holds on every
// key, NULL and NaN each being one group.
func groupKeys(ctx context.Context, keyCols []table.Column, n int) (grouping, error) {
	if len(keyCols) == 1 {
		if codes, dict, nulls, ok := keyCols[0].Codes(); ok && len(dict) <= n {
			return groupCodes(ctx, codes, len(dict), nulls, n)
		}
		if is, nulls, ok := keyCols[0].Ints(); ok {
			return groupByKey(ctx, n, func(d *groupDict[int64], ids []int32, lo, hi int) {
				hashValues(d, is, nulls, ids, lo, hi)
			})
		}
		if ss, nulls, ok := keyCols[0].Strings(); ok {
			return groupByKey(ctx, n, func(d *groupDict[string], ids []int32, lo, hi int) {
				hashValues(d, ss, nulls, ids, lo, hi)
			})
		}
	}
	return groupByKey(ctx, n, func(d *groupDict[string], ids []int32, lo, hi int) {
		hashEncoded(d, keyCols, ids, lo, hi)
	})
}

// groupCodes is groupKeys over the codes of a dictionary of size entries:
// each worker-pool chunk tallies its range in arrays of its own, and the
// tallies merge in chunk order, so the ids number the codes seen in
// first-appearance order, as groupByKey's do. No string is hashed and no
// id is written per position: the grouping keeps the codes and a code→id
// remap. A position nulls (nil: none) marks is code size, NULL's slot.
func groupCodes(ctx context.Context, codes []int32, size int, nulls []bool, n int) (grouping, error) {
	if n == 0 {
		return grouping{}, ctx.Err()
	}
	_, chunks := chunkLayout(n, parallelMinRows)
	tallies := make([]codeTally, chunks)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		tallies[ci] = tallyCodes(codes, nulls, size, lo, hi)
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	remap := make([]int32, size+1)
	for c := range remap {
		remap[c] = -1
	}
	var firsts, counts []int
	for t := range tallies {
		for j, c := range tallies[t].order {
			id := remap[c]
			if id < 0 {
				id = int32(len(firsts))
				remap[c] = id
				firsts = append(firsts, tallies[t].firsts[j])
				counts = append(counts, 0)
			}
			counts[id] += tallies[t].counts[c]
		}
	}
	gr := grouping{firsts: firsts, counts: counts, codes: codes[:n], remap: remap}
	if nulls != nil {
		gr.nulls = nulls[:n]
	}
	return gr, nil
}

// codeTally is one chunk's count of each code, NULL's in the last slot,
// and the slots it met in first-appearance order with their first positions.
type codeTally struct {
	counts []int
	order  []int32
	firsts []int
}

// tallyCodes tallies positions lo..hi-1 of a dictionary of size entries.
func tallyCodes(codes []int32, nulls []bool, size, lo, hi int) codeTally {
	t := codeTally{counts: make([]int, size+1)}
	if nulls == nil {
		for j, c := range codes[lo:hi] {
			if t.counts[c] == 0 {
				t.order = append(t.order, c)
				t.firsts = append(t.firsts, lo+j)
			}
			t.counts[c]++
		}
		return t
	}
	nulls = nulls[lo:hi]
	for j, c := range codes[lo:hi] {
		if nulls[j] {
			c = int32(size)
		}
		if t.counts[c] == 0 {
			t.order = append(t.order, c)
			t.firsts = append(t.firsts, lo+j)
		}
		t.counts[c]++
	}
	return t
}

// groupByKey is groupKeys over the worker pool's chunks: each chunk hashes
// its range into a dictionary of its own, and the dictionaries merge in
// chunk order — the first chunk's becomes the merged one, a later chunk's
// local ids map through a remap slice — so the ids number the groups in
// first-appearance order. The later chunks' ids are then remapped in place,
// each chunk on the pool.
func groupByKey[K comparable](ctx context.Context, n int, hash func(d *groupDict[K], ids []int32, lo, hi int)) (grouping, error) {
	if n == 0 {
		return grouping{}, ctx.Err()
	}
	_, chunks := chunkLayout(n, parallelMinRows)
	ids := make([]int32, n)
	dicts := make([]groupDict[K], chunks)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		d := &dicts[ci]
		d.ids, d.null = make(map[K]int32, min(hi-lo, 64)), -1
		hash(d, ids, lo, hi)
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	g := &dicts[0]
	if chunks == 1 {
		return grouping{ids: ids, firsts: g.firsts, counts: g.counts}, nil
	}
	remaps := make([][]int32, chunks)
	for c := 1; c < chunks; c++ {
		d := &dicts[c]
		remaps[c] = make([]int32, len(d.keys))
		for l, k := range d.keys {
			id, ok := g.null, g.null >= 0
			if int32(l) != d.null {
				id, ok = g.ids[k]
			}
			if !ok {
				id = g.add(k, d.firsts[l])
				if int32(l) == d.null {
					g.null = id
				} else {
					g.ids[k] = id
				}
			}
			g.counts[id] += d.counts[l]
			remaps[c][l] = id
		}
	}
	err = parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		if remap := remaps[ci]; remap != nil {
			for i := lo; i < hi; i++ {
				ids[i] = remap[ids[i]]
			}
		}
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	return grouping{ids: ids, firsts: g.firsts, counts: g.counts}, nil
}

// groupDict is one chunk's dictionary: the id of each distinct non-NULL
// key, and by id in first-appearance order every group's key, first
// position and count.
type groupDict[K comparable] struct {
	ids    map[K]int32
	keys   []K // the NULL group's entry is the zero K
	firsts []int
	counts []int
	null   int32 // id of the NULL group, -1 while it has none
}

// add opens a group for k, first seen at position first, and returns its id.
func (d *groupDict[K]) add(k K, first int) int32 {
	id := int32(len(d.keys))
	d.keys = append(d.keys, k)
	d.firsts = append(d.firsts, first)
	d.counts = append(d.counts, 0)
	return id
}

// hashValues gives positions lo..hi-1 the ids of their typed keys; the
// positions nulls marks share the one NULL group.
func hashValues[K comparable](d *groupDict[K], keys []K, nulls []bool, ids []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		var id int32
		if nulls[i] {
			if d.null < 0 {
				var zero K
				d.null = d.add(zero, i)
			}
			id = d.null
		} else {
			var ok bool
			if id, ok = d.ids[keys[i]]; !ok {
				id = d.add(keys[i], i)
				d.ids[keys[i]] = id
			}
		}
		d.counts[id]++
		ids[i] = id
	}
}

// hashEncoded is hashValues over the table.AppendKey bytes of each
// position's key tuple (a NULL cell is a part like any other). The key is
// built in one reused buffer and copied into a string only when it opens
// a group.
func hashEncoded(d *groupDict[string], keyCols []table.Column, ids []int32, lo, hi int) {
	var kb []byte
	for i := lo; i < hi; i++ {
		kb = kb[:0]
		for k := range keyCols {
			kb = keyCols[k].AppendKey(kb, i)
		}
		id, ok := d.ids[string(kb)]
		if !ok {
			key := string(kb)
			id = d.add(key, i)
			d.ids[key] = id
		}
		d.counts[id]++
		ids[i] = id
	}
}

// partitionPerm orders the positions 0..n-1 by key group of groupKeys, in
// its group order: group g's positions are perm[ends[g-1]:ends[g]] (from 0
// for group 0), ascending — the segments window PARTITION BY sorts and
// frames in place. The scatter leaves each group's start at its end.
func partitionPerm(ctx context.Context, keyCols []table.Column, n int) (perm, ends []int, err error) {
	gr, err := groupKeys(ctx, keyCols, n)
	if err != nil {
		return nil, nil, err
	}
	perm, ends = make([]int, n), make([]int, len(gr.counts))
	at := 0
	for g, count := range gr.counts {
		ends[g] = at
		at += count
	}
	for i, g := range gr.idList() {
		perm[ends[g]] = i
		ends[g]++
	}
	return perm, ends, nil
}

// rowsOf replaces each of the ascending positions pos with the row of sel
// at it; with a nil sel, position i is row i already.
func rowsOf(sel *table.Selection, pos []int) {
	if sel == nil {
		return
	}
	spans, ok := sel.Spans()
	if !ok {
		idx := sel.Indices()
		for i, p := range pos {
			pos[i] = idx[p]
		}
		return
	}
	s, start := 0, 0 // spans[s] holds the positions from start on
	for i, p := range pos {
		for p-start >= spans[s].Hi-spans[s].Lo {
			start += spans[s].Hi - spans[s].Lo
			s++
		}
		pos[i] = spans[s].Lo + p - start
	}
}

// vgroups makes a relation of groups (vrel.grp): its row g is group g of
// the selected rows of base — position i of sel, its i-th row, belongs to
// group ids[i]. firsts holds each group's first row of base, and counts
// its size. evalVec reads a column at each group's first row — NULL for
// the empty global group — and folds an aggregate call by group id in one
// pass over the positions.
type vgroups struct {
	base *vrel
	sel  *table.Selection // nil = every row of base
	grouping
}

// groupRows groups the selected rows of rel by the GROUP BY key columns
// (one key per position). With no key columns (global aggregates) every
// position is the one group, possibly empty, and no id is written.
func groupRows(ctx context.Context, keyCols []table.Column, rel *vrel, sel *table.Selection) (*vgroups, error) {
	n := selLen(rel, sel)
	gr := grouping{firsts: []int{0}, counts: []int{n}}
	if len(keyCols) > 0 {
		var err error
		if gr, err = groupKeys(ctx, keyCols, n); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		rowsOf(sel, gr.firsts)
	}
	return &vgroups{base: rel, sel: sel, grouping: gr}, ctx.Err()
}

// groupThrough is groupRows over a single GROUP BY key the join left as
// its pairs — the groupjoin. groupKeys runs once over the build column's
// rows; each selected pair takes its build row's group as a code, a pad or
// a NULL cell NULL's slot; and groupCodes numbers the codes in
// first-appearance order. The groups, their order, firsts and counts are
// the ones grouping the gathered column gives, with no key gathered or
// hashed per pair.
func groupThrough(ctx context.Context, key *pairCol, rel *vrel, sel *table.Selection) (*vgroups, error) {
	n, m := selLen(rel, sel), key.src.Len()
	build, err := groupKeys(ctx, []table.Column{*key.src}, m)
	if err != nil {
		return nil, err
	}
	ids, size := build.idList(), int32(len(build.counts))
	nullID := int32(-1) // the build's NULL group, which takes NULL's slot
	for g, first := range build.firsts {
		if key.src.IsNullAt(first) {
			nullID = int32(g)
		}
	}
	// Position i is row base+i, or rows[i] unless sel is one range.
	base, _, isRange := sel.AsRange()
	var rows []int
	if !isRange {
		rows = sel.Indices()
	}
	codes := make([]int32, n)
	err = parallelChunks(ctx, n, parallelMinRows, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			r := base + i
			if rows != nil {
				r = rows[i]
			}
			codes[i] = size
			if key.pad == nil || !key.pad[r] {
				if id := ids[key.idx[r]]; id != nullID {
					codes[i] = id
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gr, err := groupCodes(ctx, codes, int(size), nil, n)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		rowsOf(sel, gr.firsts)
	}
	return &vgroups{base: rel, sel: sel, grouping: gr}, ctx.Err()
}

// firstRows reads base column ci at the first row of each selected group.
func (g *vgroups) firstRows(ci int, sel *table.Selection, n int) table.Column {
	idx := make([]int, n)
	var pad []bool // set only for the empty global group, which has no first row
	it := table.IterSelection(sel, len(g.counts))
	for i := range idx {
		gi, _ := it.Next()
		if g.counts[gi] == 0 {
			if pad == nil {
				pad = make([]bool, n)
			}
			pad[i] = true
			continue
		}
		idx[i] = g.firsts[gi]
	}
	if late := g.base.lateCol(ci); late != nil {
		return late.gather(idx, pad)
	}
	return g.base.cols[ci].Gather(idx, pad)
}
