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
// Each engine runs its subqueries with itself (the scalar reference through
// the scalar path, the vectorized engine through the vectorized path),
// keeping the differential harness's engine separation intact. Correlated
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

// start begins a top-level execution of p: the bindings must fill the
// statement's slots exactly.
func start(ctx context.Context, p *plan, binds []table.Value, scalar bool) (*execArgs, error) {
	if len(binds) != p.stmt.NumParams() {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), %d bound", p.stmt.NumParams(), len(binds))
	}
	return begin(ctx, p, binds, scalar)
}

// begin builds the arguments of one execution of p: LIMIT/OFFSET from the
// bindings, then every subquery's rows, run with the engine scalar selects.
// Execution stops at the first error. A subquery declares no slots of its
// own (the parser clears its Params), so the outer bindings pass through it
// unchecked, and its own subqueries run the same way.
func begin(ctx context.Context, p *plan, binds []table.Value, scalar bool) (*execArgs, error) {
	x, err := p.bind(binds)
	if err != nil {
		return nil, err
	}
	for _, sub := range p.subs {
		sx, err := begin(ctx, sub, binds, scalar)
		if err != nil {
			return nil, err
		}
		var out *table.Table
		if scalar {
			out, err = executeScalarPlan(sub, sx)
		} else {
			out, err = executeVecPlan(ctx, sub, sx)
		}
		if err != nil {
			return nil, err
		}
		col := &out.Columns[0] // exactly one: checked when the subquery was resolved
		if sub.scalar && col.Len() > 1 {
			return nil, fmt.Errorf("sql: scalar subquery returned %d rows, want at most 1", col.Len())
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
