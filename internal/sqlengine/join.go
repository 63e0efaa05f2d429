package sqlengine

import (
	"context"
	"strings"
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
// join degrades to a (still chunk-parallel) nested loop.
//
// Output assembly is selection-aware: the probe side of a 1:1 join emits
// strictly ascending row indices, which convert to a table.Selection so
// runs of consecutive surviving rows copy span-at-a-time (GatherSel);
// multi-match fan-out falls back to a dense index gather, and outer-join
// padding is an explicit per-side null mask handed to GatherPairs — no -1
// sentinels anywhere.

// serialJoinProbe is a test hook: when set, the join probe runs as a
// single chunk on the calling goroutine instead of partitioning the probe
// side across the worker pool. TestJoinLargeParallelDifferential uses it to
// pin the parallel probe's output to the serial order.
var serialJoinProbe atomic.Bool

// pairEnv evaluates an ON predicate for one (left row, right row)
// candidate without materializing the combined row — the boxed fallback
// used by the nested-loop join. rrow/lrow may be -1 to read the padded
// (all-NULL) side.
type pairEnv struct {
	schema      *relSchema // combined
	left, right *vrel
	lrow, rrow  int
}

func (e *pairEnv) resolveColumn(ref *ColumnRef) (table.Value, error) {
	i := e.schema.findColumn(ref)
	if i < 0 {
		return table.Null(), errUnknownColumn(ref)
	}
	if i < len(e.left.cols) {
		if e.lrow < 0 {
			return table.Null(), nil
		}
		return e.left.cols[i].Value(e.lrow), nil
	}
	if e.rrow < 0 {
		return table.Null(), nil
	}
	return e.right.cols[i-len(e.left.cols)].Value(e.rrow), nil
}

func (e *pairEnv) resolveAggregate(fn *FuncCall) (table.Value, error) {
	return table.Null(), errAggInRowContext(fn)
}

func (e *pairEnv) resolveParam(p *Param) (table.Value, error) {
	return bindAt(e.left.binds, p)
}

func (e *pairEnv) resolveWindow(fn *FuncCall) (table.Value, error) {
	return table.Null(), errWindowContext(fn)
}

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
// evaluated per candidate pair. out is the combined schema, nl the number
// of left columns.
func splitJoinOn(out *relSchema, nl int, on Expr) (equiL, equiR []int, residual []Expr) {
	for _, cj := range splitConjuncts(on) {
		if b, ok := cj.(*Binary); ok && b.Op == "=" {
			lr, lok := b.L.(*ColumnRef)
			rr, rok := b.R.(*ColumnRef)
			if lok && rok {
				ci := out.findColumn(lr)
				cj2 := out.findColumn(rr)
				switch {
				case ci >= 0 && cj2 >= nl:
					if ci < nl {
						equiL = append(equiL, ci)
						equiR = append(equiR, cj2-nl)
						continue
					}
				case cj2 >= 0 && cj2 < nl && ci >= nl:
					equiL = append(equiL, cj2)
					equiR = append(equiR, ci-nl)
					continue
				}
			}
		}
		residual = append(residual, cj)
	}
	return equiL, equiR, residual
}

// joinKeepSet records which output columns the rest of the statement can
// observe, so join materialization skips the others entirely. nil keeps
// everything; resolution is deliberately conservative — a bare `*` keeps
// all columns, `t.*` keeps all of qualifier t, and column references keep
// every column sharing the name (qualifier ignored), so the set can only
// over-approximate what findColumn resolves.
type joinKeepSet struct {
	all   bool
	quals map[string]bool // lowercased qualifiers kept whole (t.*)
	names map[string]bool // lowercased column names kept everywhere
}

func (k *joinKeepSet) keeps(qual, name string) bool {
	if k == nil || k.all {
		return true
	}
	return k.quals[qual] || k.names[name]
}

// referencedOutputColumns derives the keep set from every expression of
// the statement that evaluates against the joined relation: select items,
// every join's ON clause (later joins hash and filter on earlier outputs),
// WHERE, GROUP BY, HAVING, and ORDER BY. ORDER BY aliases and positions
// resolve to select items, which are walked already.
func referencedOutputColumns(stmt *SelectStmt) *joinKeepSet {
	k := &joinKeepSet{quals: map[string]bool{}, names: map[string]bool{}}
	stmt.eachExpr(func(p *Expr) {
		walkExpr(*p, func(e Expr) bool {
			switch x := e.(type) {
			case Star:
				k.all = true
			case *ColumnRef:
				if x.Name == "*" {
					k.quals[strings.ToLower(x.Table)] = true
				} else {
					k.names[strings.ToLower(x.Name)] = true
				}
			}
			return true
		})
	})
	if k.all {
		return nil
	}
	return k
}

// prunedColumn reports whether col is a pruning placeholder: a zero-value
// Column inside a relation that has rows. Base-table columns always span
// their table, so only columns skipped by an earlier join qualify.
func prunedColumn(col *table.Column, nrows int) bool {
	return nrows > 0 && col.Len() == 0 && col.Kind == table.KindNull && col.IsTyped()
}

// joinVRel joins left and right per the clause's kind. See the package
// comment at the top of this file for the pipeline shape; the probe side
// is the preserved side (left for INNER/LEFT/FULL, right for RIGHT), so
// output order always follows it, matching the scalar reference executor
// row for row. Output columns the statement never observes (keep) are not
// materialized — they stay zero placeholders that keep schema indexes
// aligned — and the per-column gathers of a large join run on the worker
// pool.
func joinVRel(ctx context.Context, left, right *vrel, j JoinClause, keep *joinKeepSet) (*vrel, error) {
	out := &vrel{relSchema: concatSchemas(&left.relSchema, &right.relSchema), binds: left.binds}
	nl := len(left.cols)

	equiL, equiR, residual := splitJoinOn(&out.relSchema, nl, j.On)

	var pairs *table.JoinPairs
	var err error
	if len(equiL) > 0 {
		pairs, err = probeJoinPairs(ctx, left, right, out, equiL, equiR, residual, j.Kind)
	} else {
		pairs, err = loopJoinPairs(ctx, left, right, out, j.On, j.Kind)
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
		var src *table.Column
		var srcRel *vrel
		var idx []int
		var nulls []bool
		var sel *table.Selection
		if oi < nl {
			src, srcRel = &left.cols[oi], left
			idx, nulls, sel = pairs.Lidx, pairs.Lnull, lsel
		} else {
			src, srcRel = &right.cols[oi-nl], right
			idx, nulls, sel = pairs.Ridx, pairs.Rnull, rsel
		}
		if !keep.keeps(out.quals[oi], out.names[oi]) || prunedColumn(src, srcRel.nrows) {
			return // placeholder: never observed downstream
		}
		switch {
		case sel != nil:
			out.cols[oi] = src.GatherSel(sel)
		case nulls != nil:
			out.cols[oi] = src.GatherPairs(idx, nulls)
		default:
			out.cols[oi] = src.Gather(idx)
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
func probeJoinPairs(ctx context.Context, left, right, out *vrel, equiL, equiR []int, residual []Expr, kind table.JoinKind) (*table.JoinPairs, error) {
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
		pass, err := residualMask(residual, left, right, &out.relSchema, lcand, rcand)
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
func residualMask(residual []Expr, left, right *vrel, schema *relSchema, lidx, ridx []int) ([]bool, error) {
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
		rel := &vrel{relSchema: *schema, nrows: m, binds: left.binds}
		rel.cols = make([]table.Column, len(schema.names))
		for _, ci := range referencedColumns(cj, schema) {
			if ci < nl {
				rel.cols[ci] = left.cols[ci].Gather(curL)
			} else {
				rel.cols[ci] = right.cols[ci-nl].Gather(curR)
			}
		}
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

// referencedColumns resolves every column reference in e to its index in
// the schema, deduplicated; unresolvable references are skipped
// (evaluation reports them as unknown-column errors, identically to the
// scalar path).
func referencedColumns(e Expr, schema *relSchema) []int {
	seen := make(map[int]bool)
	var out []int
	walkExpr(e, func(e Expr) bool {
		if x, ok := e.(*ColumnRef); ok {
			if ci := schema.findColumn(x); ci >= 0 && !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
		return true
	})
	return out
}

// loopJoinPairs is the no-equi-conjunct fallback: a nested loop over
// (probe row, other-side row) pairs, boxed ON evaluation per pair, still
// chunk-parallel over the probe side. The probe side is the preserved
// side, as in hashJoinPairs.
func loopJoinPairs(ctx context.Context, left, right, out *vrel, on Expr, kind table.JoinKind) (*table.JoinPairs, error) {
	conjuncts := splitConjuncts(on)
	flipped := kind == table.JoinRight
	probeRows, innerRows := left.nrows, right.nrows
	if flipped {
		probeRows, innerRows = right.nrows, left.nrows
	}
	outerProbe := kind != table.JoinInner

	return joinProbeChunks(ctx, probeRows, kind, func(part *table.JoinPairs, lo, hi int) error {
		env := &pairEnv{schema: &out.relSchema, left: left, right: right}
		pairOK := func(l, r int) (bool, error) {
			env.lrow, env.rrow = l, r
			for _, cj := range conjuncts {
				v, err := evalExpr(cj, env)
				if err != nil {
					return false, err
				}
				if b, ok := v.AsBool(); !ok || !b {
					return false, nil
				}
			}
			return true, nil
		}
		for p := lo; p < hi; p++ {
			if (p-lo)&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			matched := false
			for q := 0; q < innerRows; q++ {
				l, r := p, q
				if flipped {
					l, r = q, p
				}
				ok, err := pairOK(l, r)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					part.Match(l, r)
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
