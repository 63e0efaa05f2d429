package sqlengine

import (
	"context"
	"sync/atomic"

	"datalab/internal/table"
)

// The join pipeline. Equality conjuncts between a left and a right column
// drive a hash join: the non-preserved side is hashed once, the preserved
// (probe) side is partitioned into contiguous chunks across the shared
// worker pool, and each chunk emits its matches into a chunk-local
// table.JoinPairs that are concatenated in chunk order — so the parallel
// probe produces exactly the serial probe's output order. Residual ON
// conjuncts
// are evaluated in batch over the candidate pair vectors with evalVec
// rather than boxed per-pair tree walks. Without any equi conjunct the
// join degrades to a (still chunk-parallel) nested loop whose ON runs
// through the same batched evaluation, one probe row's candidates at a
// time.
//
// Output assembly is selection-aware: the probe side of a 1:1 join emits
// strictly ascending row indices, which convert to a table.Selection so
// runs of consecutive surviving rows copy span-at-a-time (GatherSel);
// multi-match fan-out falls back to a dense index gather, and outer-join
// padding is the per-side pad mask handed to Gather.

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

// joinVRel joins left and right per the clause's kind. See the package
// comment at the top of this file for the pipeline shape; the probe side
// is the preserved side (left for INNER/LEFT/FULL, right for RIGHT), so
// output order always follows it, matching the scalar reference executor
// row for row. Output columns the statement never observes (keep[i] false,
// by index in the final joined relation, of which this join's output is a
// prefix) are not materialized — they stay zero placeholders that keep the
// indexes aligned — and the per-column gathers of a large join run on the
// worker pool.
func joinVRel(ctx context.Context, left, right *vrel, j JoinClause, keep []bool) (*vrel, error) {
	out := &vrel{x: left.x}
	nl := len(left.cols)

	equiL, equiR, residual := splitJoinOn(nl, j.On, func(l, r int) bool {
		return table.EquiHashable(&left.cols[l], &right.cols[r])
	})

	var pairs *table.JoinPairs
	var err error
	if len(equiL) > 0 {
		pairs, err = probeJoinPairs(ctx, left, right, equiL, equiR, residual, j.Kind)
	} else {
		pairs, err = loopJoinPairs(ctx, left, right, j.On, j.Kind)
	}
	if err != nil {
		return nil, err
	}
	if j.Kind == table.JoinFull {
		pairs.SweepUnmatchedRight(right.nrows)
	}

	out.nrows = pairs.Len()
	lsel := sideSelection(pairs.Lidx, pairs.Lnull)
	rsel := sideSelection(pairs.Ridx, pairs.Rnull)
	ncols := nl + len(right.cols)
	out.cols = make([]table.Column, ncols)
	gatherOne := func(oi int) {
		if !keep[oi] {
			return // placeholder: never observed downstream
		}
		var src *table.Column
		var idx []int
		var nulls []bool
		var sel *table.Selection
		if oi < nl {
			src = &left.cols[oi]
			idx, nulls, sel = pairs.Lidx, pairs.Lnull, lsel
		} else {
			src = &right.cols[oi-nl]
			idx, nulls, sel = pairs.Ridx, pairs.Rnull, rsel
		}
		if sel != nil {
			out.cols[oi] = src.GatherSel(sel)
		} else {
			out.cols[oi] = src.Gather(idx, nulls)
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

// sideSelection converts one side's pair list to a table.Selection when
// it is strictly ascending and free of padding — runs of consecutive 1:1
// matches then copy span-at-a-time. nil means gather densely instead. A
// mask that was allocated but never set counts as padding-free.
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

// joinProbeChunks partitions [0, n) probe rows across the worker pool
// (one chunk when serialJoinProbe is set or n is small) and merges the
// chunk-local pair lists in chunk order.
func joinProbeChunks(ctx context.Context, n int, kind table.JoinKind, fn func(part *table.JoinPairs, lo, hi int) error) (*table.JoinPairs, error) {
	minChunk := parallelMinRows
	if serialJoinProbe.Load() || n < 2*parallelMinRows {
		minChunk = n
	}
	if n == 0 {
		return table.NewJoinPairs(kind), ctx.Err()
	}
	_, nchunks := chunkLayout(n, minChunk)
	parts := make([]*table.JoinPairs, nchunks)
	err := parallelChunksIndexed(ctx, n, minChunk, func(ci, lo, hi int) error {
		part := table.NewJoinPairs(kind)
		if err := fn(part, lo, hi); err != nil {
			return err
		}
		parts[ci] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	if nchunks == 1 {
		return parts[0], nil // no merge copy on the serial path
	}
	merged := table.NewJoinPairs(kind)
	for _, part := range parts {
		merged.Concat(part)
	}
	return merged, nil
}

// probeJoinPairs computes the pair list for an equi-join. The preserved
// side probes: INNER/LEFT/FULL hash the right side and probe left rows in
// order; RIGHT hashes the left side and probes right rows, flipping each
// emitted pair back to (left, right) orientation. Residual conjuncts are
// batch-evaluated per chunk over the candidate pair vectors.
func probeJoinPairs(ctx context.Context, left, right *vrel, equiL, equiR []int, residual []Expr, kind table.JoinKind) (*table.JoinPairs, error) {
	flipped := kind == table.JoinRight
	probe, build := left, right
	probeKeys, buildKeys := equiL, equiR
	if flipped {
		probe, build = right, left
		probeKeys, buildKeys = equiR, equiL
	}
	pk := make([]*table.Column, len(probeKeys))
	bk := make([]*table.Column, len(buildKeys))
	for i := range probeKeys {
		pk[i] = &probe.cols[probeKeys[i]]
		bk[i] = &build.cols[buildKeys[i]]
	}
	lookup := table.NewHashProbe(pk, bk)
	outerProbe := kind != table.JoinInner

	emitMatch := func(part *table.JoinPairs, p, b int) {
		if flipped {
			part.Match(b, p)
		} else {
			part.Match(p, b)
		}
	}
	emitPad := func(part *table.JoinPairs, p int) {
		if flipped {
			part.PadLeft(p)
		} else {
			part.PadRight(p)
		}
	}

	return joinProbeChunks(ctx, probe.nrows, kind, func(part *table.JoinPairs, lo, hi int) error {
		if len(residual) == 0 {
			for p := lo; p < hi; p++ {
				if (p-lo)&4095 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				matches := lookup(p)
				if len(matches) == 0 {
					if outerProbe {
						emitPad(part, p)
					}
					continue
				}
				for _, b := range matches {
					emitMatch(part, p, b)
				}
			}
			return nil
		}

		// Residual conjuncts: collect every candidate pair of the chunk,
		// batch-evaluate the conjuncts over the candidate vectors, then
		// emit the passing pairs (and outer padding for probe rows whose
		// candidates all failed).
		var candProbe, candBuild []int
		rowStart := make([]int, hi-lo+1)
		for p := lo; p < hi; p++ {
			if (p-lo)&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rowStart[p-lo] = len(candProbe)
			for _, b := range lookup(p) {
				candProbe = append(candProbe, p)
				candBuild = append(candBuild, b)
			}
		}
		rowStart[hi-lo] = len(candProbe)

		lcand, rcand := candProbe, candBuild
		if flipped {
			lcand, rcand = candBuild, candProbe
		}
		pass, err := residualMask(residual, left, right, lcand, rcand)
		if err != nil {
			return err
		}
		for k := 0; k < hi-lo; k++ {
			matched := false
			for i := rowStart[k]; i < rowStart[k+1]; i++ {
				if pass[i] {
					matched = true
					emitMatch(part, lo+k, candBuild[i])
				}
			}
			if !matched && outerProbe {
				emitPad(part, lo+k)
			}
		}
		return nil
	})
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

// loopJoinPairs is the no-equi-conjunct fallback: a nested loop, still
// chunk-parallel over the probe side, which is the preserved side as in
// probeJoinPairs. A probe row's candidates — every row of the other side —
// go through residualMask together, so ON evaluates in batch with the same
// per-pair short circuit as a hash join's residual.
func loopJoinPairs(ctx context.Context, left, right *vrel, on Expr, kind table.JoinKind) (*table.JoinPairs, error) {
	conjuncts := splitConjuncts(on)
	flipped := kind == table.JoinRight
	probeRows, innerRows := left.nrows, right.nrows
	if flipped {
		probeRows, innerRows = right.nrows, left.nrows
	}
	outerProbe := kind != table.JoinInner

	return joinProbeChunks(ctx, probeRows, kind, func(part *table.JoinPairs, lo, hi int) error {
		inner := iotaInts(innerRows)
		probe := make([]int, innerRows) // the probe row, once per candidate
		for p := lo; p < hi; p++ {
			if (p-lo)&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for i := range probe {
				probe[i] = p
			}
			lidx, ridx := probe, inner
			if flipped {
				lidx, ridx = inner, probe
			}
			pass, err := residualMask(conjuncts, left, right, lidx, ridx)
			if err != nil {
				return err
			}
			matched := false
			for i, ok := range pass {
				if ok {
					matched = true
					part.Match(lidx[i], ridx[i])
				}
			}
			if !matched && outerProbe {
				if flipped {
					part.PadLeft(p)
				} else {
					part.PadRight(p)
				}
			}
		}
		return nil
	})
}
