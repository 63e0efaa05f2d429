package sqlengine

import (
	"context"
	"slices"
	"sync/atomic"

	"datalab/internal/table"
)

// The join pipeline. The preserved side probes — left for INNER/LEFT/FULL;
// a RIGHT join runs as the LEFT join of the swapped sides — and is
// partitioned into contiguous chunks across the shared worker pool. Each
// probe row's candidates come from table.NewHashProbe's index over the ON
// clause's equality conjuncts between a left and a right column — the
// build rows in one flat list grouped by key — or, when it has none, are
// every row of the other side (a nested loop). Residual ON
// conjuncts are evaluated with evalVec over batches of candidate pairs,
// several probe rows at a time, rather than by per-pair tree walks.
// The pair list is allocated once per join, sized to the probe side's
// rows; each chunk appends into its own window of it (the slots of its
// probe rows), and the merge moves the windows down in chunk order inside
// the same buffer — so the parallel probe produces exactly the serial
// probe's output order, and a join where every probe row matches at most
// once writes its pairs once. A chunk that fans out past its window grows
// on its own, and the merge then copies every window into one buffer of
// the exact total.
//
// The join hands on row pairs where it can rather than gathered columns.
// A column only the join's own ON reads is not gathered (plan.onFrom
// keeps what a later ON reads). The probe side of a 1:1 join emits
// strictly ascending row indices, which convert to a table.Selection: one
// range is a zero-copy View of each column, several copy span-at-a-time
// (GatherSel); multi-match fan-out falls back to a dense index gather, and
// outer-join padding is the per-side pad mask handed to Gather. A build
// column a grouped statement reads only as its sole GROUP BY key or at
// group level (plan.late) stays as the pairs themselves, a pairCol, which
// the groupjoin (groupThrough, group.go) groups through the build rows.

// serialJoinProbe is a test hook: when set, the join probe runs as a
// single chunk on the calling goroutine instead of partitioning the probe
// side across the worker pool. TestJoinLargeParallelDifferential uses it to
// pin the parallel probe's output to the serial order.
var serialJoinProbe atomic.Bool

// splitConjuncts flattens a tree of ANDs into its conjuncts in evaluation
// order.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// splitJoinOn partitions the ON conjuncts into hash-joinable equality
// pairs (left column index, right column index) and residual expressions
// evaluated per candidate pair, in ON order. nl is the number of left
// columns: a resolved reference below it reads the left side, one at or
// past it the right. An equality between a left and a right column is a
// pair unless hashable refuses it (nil accepts every one); a refused one
// stays a residual, where = itself decides each candidate pair.
func splitJoinOn(nl int, on Expr, hashable func(l, r int) bool) (equiL, equiR []int, residual []Expr) {
	for _, cj := range splitConjuncts(on) {
		if b, ok := cj.(*Binary); ok && b.Op == "=" {
			lr, lok := b.L.(*ColumnRef)
			rr, rok := b.R.(*ColumnRef)
			if lok && rok && (lr.idx < nl) != (rr.idx < nl) {
				l, r := lr.idx, rr.idx
				if l >= nl {
					l, r = r, l
				}
				if hashable == nil || hashable(l, r-nl) {
					equiL = append(equiL, l)
					equiR = append(equiR, r-nl)
					continue
				}
			}
		}
		residual = append(residual, cj)
	}
	return equiL, equiR, residual
}

// joinsArePureEqui reports whether every join is INNER or LEFT with an ON
// clause made only of equalities between a left and a right column. Such
// an ON cannot raise, whether an equality is hashed or, where
// table.EquiHashable refuses its columns, runs as a residual. widths[i] is
// the relation's width before the i-th join.
func joinsArePureEqui(joins []JoinClause, widths []int) bool {
	for i, j := range joins {
		if j.Kind != table.JoinInner && j.Kind != table.JoinLeft {
			return false
		}
		if equiL, _, residual := splitJoinOn(widths[i], j.On, nil); len(equiL) == 0 || len(residual) > 0 {
			return false
		}
	}
	return true
}

// joinVRel joins left and right per the clause's kind. See the comment at
// the top of this file for the pipeline shape; the probe side is the
// preserved side (left for INNER/LEFT/FULL, right for RIGHT), so output
// order always follows it, matching the scalar reference executor row for
// row. Output columns the statement never observes after this join
// (keep[i] false, by index in the final joined relation, of which this
// join's output is a prefix) are not materialized — they stay zero
// placeholders that keep the indexes aligned. A column late marks (nil:
// none) stays its side's pairs (pairCol). Of the others, a side whose
// pairs are one ascending unpadded range is a view of its input; the
// per-column gathers of a large join run on the worker pool.
func joinVRel(ctx context.Context, left, right *vrel, j JoinClause, keep, late []bool) (*vrel, error) {
	out := &vrel{x: left.x}
	nl := len(left.cols)

	equiL, equiR, residual := splitJoinOn(nl, j.On, func(l, r int) bool {
		return table.EquiHashable(&left.cols[l], &right.cols[r])
	})

	pairs, err := joinPairs(ctx, left, right, equiL, equiR, residual, j.Kind)
	if err != nil {
		return nil, err
	}

	out.nrows = pairs.Len()
	ncols := nl + len(right.cols)
	out.cols = make([]table.Column, ncols)
	if late != nil {
		out.late = make([]pairCol, ncols)
	}
	// A side's selection is worked out only when one of its columns is
	// gathered.
	var lsel, rsel *table.Selection
	for oi := 0; oi < ncols; oi++ {
		switch {
		case !keep[oi] || (late != nil && late[oi]):
		case oi < nl && lsel == nil:
			lsel = sideSelection(pairs.Lidx, pairs.Lnull)
		case oi >= nl && rsel == nil:
			rsel = sideSelection(pairs.Ridx, pairs.Rnull)
		}
	}
	gatherOne := func(oi int) {
		if !keep[oi] {
			return // placeholder: never observed downstream
		}
		var src *table.Column
		idx, nulls, sel := pairs.Lidx, pairs.Lnull, lsel
		if oi < nl {
			src = &left.cols[oi]
		} else {
			src, idx, nulls, sel = &right.cols[oi-nl], pairs.Ridx, pairs.Rnull, rsel
		}
		if late != nil && late[oi] {
			out.late[oi] = pairCol{src: src, idx: idx, pad: nulls}
			return
		}
		switch lo, hi, isRange := sel.AsRange(); {
		case sel == nil:
			out.cols[oi] = src.Gather(idx, nulls)
		case isRange:
			out.cols[oi] = src.View(lo, hi)
		default:
			out.cols[oi] = src.GatherSel(sel)
		}
	}
	if out.nrows >= parallelMinRows && ncols > 1 && !serialJoinProbe.Load() {
		err = parallelChunks(ctx, ncols, 1, func(lo, hi int) error {
			for oi := lo; oi < hi; oi++ {
				gatherOne(oi)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		for oi := 0; oi < ncols; oi++ {
			gatherOne(oi)
		}
	}
	return out, ctx.Err()
}

// pairCol is a join output column left as its side's pairs: row i is row
// idx[i] of src, or NULL where pad (nil: nowhere) is set.
type pairCol struct {
	src *table.Column
	idx []int
	pad []bool
}

// gather materializes the column at rows, NULL where pad (nil: nowhere)
// is set.
func (c *pairCol) gather(rows []int, pad []bool) table.Column {
	idx := make([]int, len(rows))
	var nulls []bool
	for i, r := range rows {
		if (pad != nil && pad[i]) || (c.pad != nil && c.pad[r]) {
			if nulls == nil {
				nulls = make([]bool, len(rows))
			}
			nulls[i] = true
			continue
		}
		idx[i] = c.idx[r]
	}
	return c.src.Gather(idx, nulls)
}

// sideSelection converts one side's pair list to a table.Selection when
// it is strictly ascending and free of padding — runs of consecutive 1:1
// matches then copy span-at-a-time, and a single run is a view. nil means
// gather densely instead. A mask that was allocated but never set counts
// as padding-free.
func sideSelection(idx []int, nulls []bool) *table.Selection {
	if nulls != nil && anyTrue(nulls) {
		return nil
	}
	sel, ok := table.SelectionFromAscending(idx)
	if !ok {
		return nil
	}
	return sel
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// joinPairs builds the join's pair list. The preserved side probes: left
// for INNER/LEFT/FULL, while a RIGHT join runs as the LEFT join of the
// swapped sides and its pairs are swapped back once, after the chunk merge.
// A probe row's candidates are its matches in a hash index over the
// equality keys or, with no equality, every row of the other side. Without
// residual conjuncts each candidate is a match; with them a chunk's
// candidates go through residualMask in batches, evaluated once they number
// at least parallelMinRows and again at the chunk's end. An outer probe row
// with no passing candidate pads the other side.
func joinPairs(ctx context.Context, left, right *vrel, equiL, equiR []int, residual []Expr, kind table.JoinKind) (*table.JoinPairs, error) {
	swapped := kind == table.JoinRight
	probe, build, probeKind := left, right, kind
	probeKeys, buildKeys := equiL, equiR
	if swapped {
		probe, build, probeKind = right, left, table.JoinLeft
		probeKeys, buildKeys = equiR, equiL
	}
	var candidates func(p int) []int
	if len(probeKeys) > 0 {
		pk := make([]*table.Column, len(probeKeys))
		bk := make([]*table.Column, len(buildKeys))
		for i := range probeKeys {
			pk[i] = &probe.cols[probeKeys[i]]
			bk[i] = &build.cols[buildKeys[i]]
		}
		candidates = table.NewHashProbe(pk, bk)
	} else {
		all := iotaInts(build.nrows)
		candidates = func(int) []int { return all }
	}
	outer := kind != table.JoinInner

	n := probe.nrows
	minChunk := parallelMinRows
	if serialJoinProbe.Load() || n < 2*parallelMinRows {
		minChunk = n
	}
	_, nchunks := chunkLayout(n, minChunk)
	pairs := table.NewJoinPairs(probeKind, n)
	parts := make([]table.JoinPairs, nchunks)
	err := parallelChunksIndexed(ctx, n, minChunk, func(ci, lo, hi int) error {
		// The chunk appends into a local copy of its window — neighbouring
		// parts share cache lines — and stores it once it is done.
		part := pairs.Window(lo, hi)
		// The pending batch: candidate pairs (candP[i], candB[i]) of probe
		// rows first, first+1, ..., row first+k's ending at ends[k].
		var candP, candB, ends []int
		first := lo
		flush := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			lidx, ridx := candP, candB
			if swapped {
				lidx, ridx = candB, candP
			}
			pass, err := residualMask(residual, left, right, lidx, ridx)
			if err != nil {
				return err
			}
			start := 0
			for k, end := range ends {
				matched := false
				for i := start; i < end; i++ {
					if pass[i] {
						matched = true
						part.Match(first+k, candB[i])
					}
				}
				if !matched && outer {
					part.PadRight(first + k)
				}
				start = end
			}
			candP, candB, ends = candP[:0], candB[:0], ends[:0]
			return nil
		}
		for p := lo; p < hi; p++ {
			if (p-lo)&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			m := candidates(p)
			if len(residual) == 0 {
				if len(m) == 0 && outer {
					part.PadRight(p)
				}
				for _, b := range m {
					part.Match(p, b)
				}
				continue
			}
			if len(ends) == 0 {
				first = p
			}
			candP = slices.Grow(candP, len(m)) // a row may bring every build row
			for range m {
				candP = append(candP, p)
			}
			candB = append(candB, m...)
			ends = append(ends, len(candB))
			if len(candB) >= parallelMinRows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if len(ends) > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		parts[ci] = part
		return nil
	})
	if err != nil {
		return nil, err
	}

	pairs.Merge(parts)
	if swapped {
		pairs.Lidx, pairs.Ridx = pairs.Ridx, pairs.Lidx
		pairs.Lnull, pairs.Rnull = pairs.Rnull, pairs.Lnull
	}
	if kind == table.JoinFull {
		pairs.SweepUnmatchedRight(right.nrows)
	}
	return pairs, nil
}

// residualMask batch-evaluates the residual conjuncts over the candidate
// pairs (lidx[i], ridx[i]) and returns, per candidate, whether every
// conjunct is known true — the same truthiness rule the scalar executor
// applies per pair. The candidate set is compressed between conjuncts, so
// a later conjunct only ever evaluates on pairs every earlier conjunct
// passed — preserving the per-pair AND short-circuit exactly: a
// data-dependent error in conjunct k cannot fire for a pair conjunct k-1
// already rejected. Only the columns each conjunct references are
// gathered into its candidate relation.
func residualMask(residual []Expr, left, right *vrel, lidx, ridx []int) ([]bool, error) {
	n := len(lidx)
	pass := make([]bool, n)
	for i := range pass {
		pass[i] = true
	}
	nl := len(left.cols)
	curL, curR := lidx, ridx // pairs every conjunct so far passed
	var curPos []int         // cur index -> original index; nil = identity
	for _, cj := range residual {
		m := len(curL)
		if m == 0 {
			break
		}
		rel := &vrel{cols: make([]table.Column, nl+len(right.cols)), nrows: m, x: left.x}
		walkExpr(cj, func(e Expr) bool {
			// m > 0, so a column still of length 0 has not been gathered.
			if ref, ok := e.(*ColumnRef); ok && rel.cols[ref.idx].Len() != m {
				if ci := ref.idx; ci < nl {
					rel.cols[ci] = left.cols[ci].Gather(curL, nil)
				} else {
					rel.cols[ci] = right.cols[ci-nl].Gather(curR, nil)
				}
			}
			return true
		})
		col, err := evalVec(cj, rel, nil)
		if err != nil {
			return nil, err
		}
		b, known := truthVec(&col, m)
		var nextL, nextR, nextPos []int
		for i := 0; i < m; i++ {
			orig := i
			if curPos != nil {
				orig = curPos[i]
			}
			if known[i] && b[i] {
				nextL = append(nextL, curL[i])
				nextR = append(nextR, curR[i])
				nextPos = append(nextPos, orig)
				continue
			}
			pass[orig] = false
		}
		curL, curR, curPos = nextL, nextR, nextPos
	}
	return pass, nil
}
