package sqlengine

import (
	"context"
	"fmt"

	"datalab/internal/table"
)

// Subquery execution through slots. Uncorrelated subqueries — scalar
// `(SELECT ...)` expressions and `IN (SELECT ...)` membership — are resolved
// into plans of their own when the outer statement is (plan.subs, by slot).
// Each execution runs them once, in slot order, before the outer scan, and
// keeps the rows in execArgs.subs; evaluation reads a scalar subquery's
// value (NULL over zero rows; more than one is an error) or an IN
// subquery's list from the node's slot. The plan's tree is never rewritten.
//
// An execution runs its subqueries with the executor it was started with
// (the engine's executePlan, or the row-at-a-time oracle's in the
// package's tests), keeping the differential harness's separation intact. Correlated
// references fail at plan time with the same unknown-column error for both.
// Every subquery pins its own snapshot at its execution time; under
// concurrent ingest a statement's subqueries may observe a newer snapshot
// than the outer scan — callers needing a fixed view run against a frozen
// catalog, as the differential tests do.

// exprHasSubquery reports whether e contains a subquery of either form.
func exprHasSubquery(e Expr) bool {
	return anyExpr(e, func(e Expr) (bool, bool) {
		switch x := e.(type) {
		case *Subquery:
			return true, false
		case *In:
			return x.Sub != nil, true
		}
		return false, true
	})
}

// executor runs a resolved plan with one execution's arguments.
type executor func(ctx context.Context, p *plan, x *execArgs) (*Result, error)

// start begins a top-level execution of p, marking its stages on t (nil:
// untraced): the bindings must fill the statement's slots exactly.
func start(ctx context.Context, p *plan, binds []table.Value, t *Trace, run executor) (*execArgs, error) {
	if len(binds) != p.stmt.NumParams() {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), %d bound", p.stmt.NumParams(), len(binds))
	}
	return begin(ctx, p, binds, t, run)
}

// begin builds the arguments of one execution of p: LIMIT/OFFSET from the
// bindings, then every subquery's rows, each subquery run with run.
// Execution stops at the first error. A subquery declares no slots of its
// own (the parser clears its Params), so the outer bindings pass through it
// unchecked, and its own subqueries run the same way. A subquery marks its
// stages on the outer execution's trace, into the same stages.
func begin(ctx context.Context, p *plan, binds []table.Value, t *Trace, run executor) (*execArgs, error) {
	x, err := p.bind(binds, t)
	if err != nil {
		return nil, err
	}
	for _, sub := range p.subs {
		sx, err := begin(ctx, sub, binds, t, run)
		if err != nil {
			return nil, err
		}
		res, err := run(ctx, sub, sx)
		if err != nil {
			return nil, err
		}
		if sub.scalar && res.NumRows() > 1 {
			return nil, fmt.Errorf("sql: scalar subquery returned %d rows, want at most 1", res.NumRows())
		}
		col := res.cols[0] // exactly one: checked when the subquery was resolved
		if res.sel != nil {
			col = col.GatherSel(res.sel)
		}
		x.subs = append(x.subs, col.Values())
	}
	return x, nil
}

// scalarSub is a scalar subquery's value for this execution: NULL when it
// returned no row.
func (x *execArgs) scalarSub(slot int) table.Value {
	if rows := x.subs[slot]; len(rows) == 1 {
		return rows[0]
	}
	return table.Null()
}
