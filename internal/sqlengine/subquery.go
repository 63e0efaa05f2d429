package sqlengine

import (
	"context"
	"fmt"

	"datalab/internal/table"
)

// Subquery execution by inlining. Uncorrelated subqueries — scalar
// `(SELECT ...)` expressions and `IN (SELECT ...)` membership — execute
// once per statement execution, before the outer scan, and their results
// replace the subquery node in a copy-on-write rewrite of the statement
// (rewriteExpr): a scalar subquery becomes a Literal (NULL over zero rows;
// an error over more than one), an IN subquery becomes its literal value
// list. The rewrite copies only the spine above a subquery, so shared
// cached statements are never mutated and window-call node pointers (used
// as map keys during execution) survive untouched.
//
// Each engine inlines with itself (the scalar reference executes
// subqueries through the scalar path, the vectorized engine through the
// vectorized path), keeping the differential harness's engine separation
// intact. Correlated references fail with the same unknown-column error
// in both engines. Every subquery pins its own snapshot at its execution
// time; under concurrent ingest a statement's subqueries may observe a
// newer snapshot than the outer scan — callers needing a fixed view run
// against a frozen catalog, as the differential tests do.

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

func stmtHasSubquery(stmt *SelectStmt) bool {
	found := false
	stmt.eachExpr(func(p *Expr) { found = found || exprHasSubquery(*p) })
	return found
}

// inlineSubqueries executes every subquery of the statement and returns a
// copy with their results substituted — a scalar subquery by a Literal, an
// IN subquery by its literal value list; statements without subqueries
// come back unchanged (same pointer). Execution stops at the first error.
// scalar selects which engine executes the subqueries.
func (c *Catalog) inlineSubqueries(ctx context.Context, stmt *SelectStmt, binds []table.Value, scalar bool) (*SelectStmt, error) {
	if !stmtHasSubquery(stmt) {
		return stmt, nil
	}
	var err error
	var inline func(Expr) (Expr, bool)
	inline = func(e Expr) (Expr, bool) {
		if err != nil {
			return e, false
		}
		switch x := e.(type) {
		case *Subquery:
			var vals []table.Value
			if vals, err = c.execSubquery(ctx, x.Stmt, binds, scalar); err != nil {
				return e, false
			}
			if len(vals) > 1 {
				err = fmt.Errorf("sql: scalar subquery returned %d rows, want at most 1", len(vals))
				return e, false
			}
			v := table.Null()
			if len(vals) == 1 {
				v = vals[0]
			}
			return &Literal{Value: v}, false
		case *In:
			if x.Sub == nil {
				return e, true
			}
			// Left operand first, then the list: evaluation order.
			nx := rewriteExpr(x.X, inline)
			if err != nil {
				return e, false
			}
			var vals []table.Value
			if vals, err = c.execSubquery(ctx, x.Sub, binds, scalar); err != nil {
				return e, false
			}
			lits := make([]Expr, len(vals))
			for i, v := range vals {
				lits[i] = &Literal{Value: v}
			}
			return &In{X: nx, Values: lits, Not: x.Not}, false
		}
		return e, true
	}
	cp := *stmt
	cp.Items = append([]SelectItem(nil), stmt.Items...)
	cp.Joins = append([]JoinClause(nil), stmt.Joins...)
	cp.GroupBy = append([]Expr(nil), stmt.GroupBy...)
	cp.OrderBy = append([]OrderItem(nil), stmt.OrderBy...)
	cp.eachExpr(func(p *Expr) { *p = rewriteExpr(*p, inline) })
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

// execSubquery runs one subquery through the selected engine and returns
// its single output column as values, in result row order. The outer
// binding slice passes through unchecked (the subquery declares no slots
// of its own), and nested subqueries inline recursively.
func (c *Catalog) execSubquery(ctx context.Context, sub *SelectStmt, binds []table.Value, scalar bool) ([]table.Value, error) {
	sub, err := resolveBindsLoose(sub, binds)
	if err != nil {
		return nil, err
	}
	sub, err = c.inlineSubqueries(ctx, sub, binds, scalar)
	if err != nil {
		return nil, err
	}
	var out *table.Table
	if scalar {
		out, err = c.executeScalarStmt(sub, binds)
	} else {
		out, err = c.executeVecStmt(ctx, sub, binds)
	}
	if err != nil {
		return nil, err
	}
	if len(out.Columns) != 1 {
		return nil, fmt.Errorf("sql: subquery must return exactly one column, got %d", len(out.Columns))
	}
	col := &out.Columns[0]
	vals := make([]table.Value, col.Len())
	for i := range vals {
		vals[i] = col.Value(i)
	}
	return vals, nil
}
