package sqlengine

import (
	"context"
	"sync/atomic"

	"datalab/internal/table"
)

// The WHERE stage. A predicate's top-level AND chain usually begins with
// comparisons of a typed column against a literal or bound parameter
// (`id >= ? AND id < ?`, `col BETWEEN ? AND ?`). Those conjuncts cannot
// raise, so they run through table.Column.SelectCompare: one typed loop per
// comparison, each reading only the rows the previous one kept and emitting
// a Selection directly — no constant vector, no boolean vector. Whatever
// follows the first conjunct of another shape (OR, NOT, LIKE, arithmetic,
// column against column, CASE, ...) is evaluated by evalVec over the rows
// the comparisons kept. Three observations keep that exact against the
// scalar executor, which walks the chain left to right per row and stops at
// the first known-false conjunct:
//
//   - only the leading comparisons are taken, so no comparison jumps over a
//     conjunct that could raise;
//   - a row a comparison rejects is known false, so the scalar executor
//     would not have evaluated the rest on it either — unless the cell was
//     NULL, which is "not known false": a chunk that meets a NULL while
//     other conjuncts remain re-runs the whole predicate the general way;
//   - a predicate with no leading comparison takes the general path as is.

// forceDenseSelection is a test hook: when set, the WHERE stage always emits
// dense index selections, never range spans — after every kernel comparison
// as well as out of the general path. The differential fuzz harness uses it
// to run every query through both selection representations.
var forceDenseSelection atomic.Bool

func maybeForceDense(sel *table.Selection) *table.Selection {
	if forceDenseSelection.Load() {
		return table.NewIndexSelection(sel.Indices())
	}
	return sel
}

// kernelCmp is one WHERE conjunct the compare-to-constant kernels cover:
// column <op> constant, the column a typed vector of rel whose kind lines
// up with the constant's.
type kernelCmp struct {
	col int // index into rel.cols
	op  table.CmpOp
	k   table.Value
}

func cmpOpOf(op string) (table.CmpOp, bool) {
	switch op {
	case "=":
		return table.CmpEq, true
	case "<>":
		return table.CmpNe, true
	case "<":
		return table.CmpLt, true
	case "<=":
		return table.CmpLe, true
	case ">":
		return table.CmpGt, true
	case ">=":
		return table.CmpGe, true
	}
	return 0, false
}

// kernelCompare recognizes `colExpr op constExpr`: a column of rel against a
// literal or bound parameter of a kind the kernels cover.
func kernelCompare(colExpr Expr, op table.CmpOp, constExpr Expr, rel *vrel) (kernelCmp, bool) {
	ref, ok := colExpr.(*ColumnRef)
	if !ok {
		return kernelCmp{}, false
	}
	k, ok := constExprValue(constExpr, rel)
	if !ok {
		return kernelCmp{}, false
	}
	// Ahead of the joins rel is the FROM relation alone: a reference past
	// its width reads a joined table.
	ci := ref.idx
	if ci >= len(rel.cols) || !rel.cols[ci].ComparesTyped(k) {
		return kernelCmp{}, false
	}
	return kernelCmp{col: ci, op: op, k: k}, true
}

// kernelForm returns cj's kernel comparisons and their number: one for a
// comparison with the constant on either side, two for a non-negated
// BETWEEN with constant bounds, none when cj has another shape.
func kernelForm(cj Expr, rel *vrel) (cmps [2]kernelCmp, n int) {
	switch x := cj.(type) {
	case *Binary:
		op, ok := cmpOpOf(x.Op)
		if !ok {
			return cmps, 0
		}
		if kc, ok := kernelCompare(x.L, op, x.R, rel); ok {
			return [2]kernelCmp{kc}, 1
		}
		if kc, ok := kernelCompare(x.R, op.Flip(), x.L, rel); ok {
			return [2]kernelCmp{kc}, 1
		}
	case *Between:
		if x.Not {
			return cmps, 0
		}
		lo, lok := kernelCompare(x.X, table.CmpGe, x.Lo, rel)
		hi, hok := kernelCompare(x.X, table.CmpLe, x.Hi, rel)
		if lok && hok {
			return [2]kernelCmp{lo, hi}, 2
		}
	}
	return cmps, 0
}

// splitKernelPrefix splits the top-level AND chain of where into its leading
// kernel comparisons and the conjunction of everything from the first
// conjunct of another shape on (nil when nothing follows). With no leading
// comparison it returns where itself as rest, having allocated nothing.
func splitKernelPrefix(where Expr, rel *vrel) (kern []kernelCmp, rest Expr) {
	first := where
	for b, ok := first.(*Binary); ok && b.Op == "AND"; b, ok = first.(*Binary) {
		first = b.L
	}
	if _, n := kernelForm(first, rel); n == 0 {
		return nil, where
	}
	conjuncts := splitConjuncts(where)
	kern = make([]kernelCmp, 0, 2*len(conjuncts))
	taken := 0
	for _, cj := range conjuncts {
		cmps, n := kernelForm(cj, rel)
		if n == 0 {
			break
		}
		kern = append(kern, cmps[:n]...)
		taken++
	}
	for _, cj := range conjuncts[taken:] {
		if rest == nil {
			rest = cj
		} else {
			rest = &Binary{Op: "AND", L: rest, R: cj}
		}
	}
	return kern, rest
}

// narrow runs the kernel comparisons in order, each over the rows the
// previous one kept. sawNull reports whether a comparison met a NULL cell.
func narrow(rel *vrel, kern []kernelCmp, sel *table.Selection) (out *table.Selection, sawNull bool) {
	for _, kc := range kern {
		var null bool
		sel, null = rel.cols[kc.col].SelectCompare(kc.op, kc.k, sel)
		sel = maybeForceDense(sel)
		sawNull = sawNull || null
	}
	return sel, sawNull
}

// filterChunks runs body over [0, n) — as one call for a small relation,
// partitioned across the worker pool for a large one — and merges the
// per-chunk selections, joining spans that touch across chunk boundaries, so
// a predicate that passes everywhere yields a single [0,n) span.
func filterChunks(ctx context.Context, n int, body func(lo, hi int) (*table.Selection, error)) (*table.Selection, error) {
	if n < 2*parallelMinRows {
		return body(0, n)
	}
	_, nchunks := chunkLayout(n, parallelMinRows)
	parts := make([]*table.Selection, nchunks)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		var err error
		parts[ci], err = body(lo, hi)
		return err
	})
	if err != nil {
		return nil, err
	}
	return table.MergeSelections(parts), nil
}

// filterWhere returns the selection of rows passing the WHERE predicate.
// Each chunk narrows its row range through the predicate's leading kernel
// comparisons, then evaluates the remaining conjuncts over the survivors;
// a predicate without leading comparisons (and a chunk whose comparisons
// met a NULL while conjuncts remain) evaluates whole over a zero-copy range
// view of the relation and emits its passing rows as range spans when they
// form long runs, or dense indices when they are scattered. Names were
// resolved when the statement was planned, so evalVec raises only on a row
// it reads — like the scalar executor, which reaches the same rows.
func filterWhere(ctx context.Context, rel *vrel, where Expr) (*table.Selection, error) {
	kern, rest := splitKernelPrefix(where, rel)
	return filterChunks(ctx, rel.nrows, func(lo, hi int) (*table.Selection, error) {
		pred, in := where, table.NewSpanSelection(table.Span{Lo: lo, Hi: hi})
		if len(kern) > 0 {
			sel, sawNull := narrow(rel, kern, in)
			if rest == nil {
				return sel, nil
			}
			if !sawNull {
				pred, in = rest, sel
			}
		}
		col, err := evalVec(pred, rel, in)
		if err != nil {
			return nil, err
		}
		return passSelection(&col, in), nil
	})
}

// passSelection returns the rows of in whose predicate value is a known
// true, matching the scalar executor's truthiness rules. col is positional
// over in: cell i speaks for in's i-th row.
func passSelection(col *table.Column, in *table.Selection) *table.Selection {
	vals, nulls, ok := col.Bools()
	if !ok {
		vals, nulls = make([]bool, col.Len()), nil
		for i := range vals {
			v := col.Value(i)
			if b, ok := v.AsBool(); ok && b {
				vals[i] = true
			}
		}
	}
	return maybeForceDense(in.Pick(vals, nulls))
}

// filterBeforeJoins moves the WHERE's leading kernel comparisons ahead of
// the join probe when they read the FROM relation and every join is INNER
// or LEFT on pure equality (plan.earlyFilter): such a join cannot raise and
// keeps or drops a FROM row's output rows together, so rejecting the row
// first gives the same rows in the same order while the probe, the pair
// list and the gathers see only the survivors. RIGHT and FULL joins (FROM
// rows can be padding), residual ON conjuncts (they can raise on rows the
// filter would have removed) and a NULL met while other conjuncts remain
// keep the statement on the join-then-filter order. A nil sel means nothing
// moved and rest is where; otherwise sel holds the surviving FROM rows and
// rest what is left of the WHERE (nil when the comparisons were all of it).
func filterBeforeJoins(ctx context.Context, from *vrel, where Expr) (sel *table.Selection, rest Expr, err error) {
	kern, rest := splitKernelPrefix(where, from)
	if len(kern) == 0 {
		return nil, where, nil
	}
	var sawNull atomic.Bool
	sel, err = filterChunks(ctx, from.nrows, func(lo, hi int) (*table.Selection, error) {
		part, null := narrow(from, kern, table.NewSpanSelection(table.Span{Lo: lo, Hi: hi}))
		if null {
			sawNull.Store(true)
		}
		return part, nil
	})
	if err != nil || (rest != nil && sawNull.Load()) {
		return nil, where, err
	}
	return sel, rest, nil
}

// restrictRel returns rel cut down to the selected rows: zero-copy views
// when they form one range (the append-ordered key case), a gather of the
// columns the rest of the statement observes otherwise — the others stay
// pruning placeholders, as in joinVRel.
func restrictRel(rel *vrel, sel *table.Selection, keep []bool) *vrel {
	out := &vrel{cols: make([]table.Column, len(rel.cols)), nrows: sel.Len(), x: rel.x}
	lo, hi, isRange := sel.AsRange()
	for i := range rel.cols {
		switch {
		case isRange:
			out.cols[i] = rel.cols[i].View(lo, hi)
		case keep[i]:
			out.cols[i] = rel.cols[i].GatherSel(sel)
		}
	}
	return out
}
