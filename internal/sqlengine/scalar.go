package sqlengine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"datalab/internal/table"
)

// Scalar (row-at-a-time) reference executor. This is the seed engine's
// original execution strategy, kept intact behind Catalog.QueryScalar: it
// materializes row-major relations and walks the expression tree once per
// row. The vectorized executor in exec.go/vector.go is differentially
// tested against it (see vector_test.go); no request reaches it.

// srel is the scalar executor's working representation: row-major values,
// addressed by the indexes the plan's column references carry. x carries the
// execution's arguments.
type srel struct {
	rows  [][]table.Value
	width int // cells per row
	x     *execArgs
}

func srelFrom(t *table.Table, x *execArgs) *srel {
	r := &srel{width: len(t.Columns), x: x}
	n := t.NumRows()
	r.rows = make([][]table.Value, n)
	for i := 0; i < n; i++ {
		r.rows[i] = t.Row(i)
	}
	return r
}

// rowEnv evaluates expressions against one relation row. pos/win are set
// only during projection of a statement with window functions: win holds
// each window call's precomputed per-row values by slot, indexed by pos (the
// row's position in rel.rows).
type rowEnv struct {
	rel *srel
	row []table.Value
	pos int
	win [][]table.Value
}

func (e *rowEnv) args() *execArgs { return e.rel.x }

func (e *rowEnv) column(i int) table.Value {
	if e.row == nil {
		return table.Null() // the empty global group has no first row
	}
	return e.row[i]
}

func (e *rowEnv) aggregate(fn *FuncCall) (table.Value, error) {
	return table.Null(), errAggInRowContext(fn)
}

func (e *rowEnv) window(fn *FuncCall) (table.Value, error) {
	if e.win == nil {
		return table.Null(), errWindowContext(fn)
	}
	return e.win[fn.slot][e.pos], nil
}

// groupEnv evaluates expressions against one group: plain columns resolve
// from the group's first row (rowEnv.row), aggregates compute over all
// group rows.
type groupEnv struct {
	rowEnv
	rows []int // indexes into rel.rows
}

func (e *groupEnv) aggregate(fn *FuncCall) (table.Value, error) {
	if fn.IsStar {
		if fn.Name != "COUNT" {
			return table.Null(), fmt.Errorf("sql: %s(*) is not supported", fn.Name)
		}
		return table.Int(int64(len(e.rows))), nil
	}
	if len(fn.Args) != 1 {
		return table.Null(), fmt.Errorf("sql: aggregate %s expects one argument", fn.Name)
	}
	var vals []table.Value
	seen := map[string]bool{}
	for _, ri := range e.rows {
		re := &rowEnv{rel: e.rel, row: e.rel.rows[ri]}
		v, err := evalExpr(fn.Args[0], re)
		if err != nil {
			return table.Null(), err
		}
		if v.IsNull() {
			continue
		}
		if fn.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	return finishAggregate(fn.Name, vals)
}

// finishAggregate reduces the non-NULL values of one group to the aggregate
// result, shared by the scalar and vectorized fallback paths.
func finishAggregate(name string, vals []table.Value) (table.Value, error) {
	switch name {
	case "COUNT":
		return table.Int(int64(len(vals))), nil
	case "SUM", "AVG", "STDDEV", "MEDIAN":
		var nums []float64
		for _, v := range vals {
			if f, ok := v.AsFloat(); ok {
				nums = append(nums, f)
			}
		}
		return finishNumericAggregate(name, nums), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return table.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := table.Compare(v, best)
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return table.Null(), fmt.Errorf("sql: unknown aggregate %s", name)
}

// finishNumericAggregate computes the float-valued aggregates over the
// convertible values of one group.
func finishNumericAggregate(name string, nums []float64) table.Value {
	if len(nums) == 0 {
		return table.Null()
	}
	var total float64
	for _, f := range nums {
		total += f
	}
	switch name {
	case "SUM":
		return table.Float(total)
	case "AVG":
		return table.Float(total / float64(len(nums)))
	case "STDDEV":
		if len(nums) < 2 {
			return table.Float(0)
		}
		mean := total / float64(len(nums))
		var ss float64
		for _, f := range nums {
			d := f - mean
			ss += d * d
		}
		return table.Float(math.Sqrt(ss / float64(len(nums)-1)))
	case "MEDIAN":
		cp := append([]float64(nil), nums...)
		sort.Float64s(cp)
		n := len(cp)
		if n%2 == 1 {
			return table.Float(cp[n/2])
		}
		return table.Float((cp[n/2-1] + cp[n/2]) / 2)
	}
	return table.Null()
}

// QueryScalar parses and executes a SELECT with the scalar reference
// executor. Like Query, the text goes through fingerprinting and the plan
// cache: repeated templates plan once and execute with their extracted
// literals bound, so differential runs alternating Query/QueryScalar no
// longer pay (or skew) a raw parse per scalar call.
func (c *Catalog) QueryScalar(sql string) (*table.Table, error) {
	p, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return executeScalarBound(p, binds)
}

// ExecuteScalarBound runs a parsed statement with the row-at-a-time
// reference path and the execution's parameter bindings (nil for a
// statement without placeholders) — the scalar half of the bind-vs-inline
// differential harness. Like Execute it resolves a copy, uncached.
func (c *Catalog) ExecuteScalarBound(stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	p, err := c.resolve(cloneStmt(stmt))
	if err != nil {
		return nil, err
	}
	return executeScalarBound(p, binds)
}

func executeScalarBound(p *plan, binds []table.Value) (*table.Table, error) {
	x, err := start(context.Background(), p, binds, true)
	if err != nil {
		return nil, err
	}
	return executeScalarPlan(p, x)
}

// executeScalarPlan is the scalar execution body once the execution's
// arguments are known — shared with subquery execution.
func executeScalarPlan(p *plan, x *execArgs) (*table.Table, error) {
	// Same snapshot discipline as the vectorized path: one atomic load per
	// referenced table pins the rows this execution reads.
	stmt := p.stmt
	rel := srelFrom(p.apps[0].Snapshot().Table(), x)
	for i, j := range stmt.Joins {
		var err error
		rel, err = joinRelationsScalar(rel, srelFrom(p.apps[i+1].Snapshot().Table(), x), j)
		if err != nil {
			return nil, err
		}
	}

	if stmt.Where != nil {
		var kept [][]table.Value
		for _, row := range rel.rows {
			v, err := evalExpr(stmt.Where, &rowEnv{rel: rel, row: row})
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); ok && b {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}

	var out *table.Table
	var err error
	if p.grouped {
		out, err = executeGroupedScalar(p, rel)
	} else {
		out, err = executePlainScalar(p, rel)
	}
	if err != nil {
		return nil, err
	}
	return applyDistinctOffsetLimit(stmt.Distinct, x, out), nil
}

// joinRelationsScalar nested-loop joins left and right with the ON
// predicate, evaluated for every row pair. Output order follows the
// preserved side — left rows for INNER/LEFT/FULL, right rows for RIGHT —
// with FULL's unmatched right rows appended last in ascending order,
// matching the vectorized pipeline's probe order exactly (the differential
// harness compares results row for row).
func joinRelationsScalar(left, right *srel, j JoinClause) (*srel, error) {
	out := &srel{width: left.width + right.width, x: left.x}
	nullsLeft := make([]table.Value, left.width)
	nullsRight := make([]table.Value, right.width)
	match := func(lrow, rrow []table.Value) (bool, []table.Value, error) {
		combined := append(append([]table.Value{}, lrow...), rrow...)
		v, err := evalExpr(j.On, &rowEnv{rel: out, row: combined})
		if err != nil {
			return false, nil, err
		}
		b, ok := v.AsBool()
		return ok && b, combined, nil
	}

	if j.Kind == table.JoinRight {
		for _, rrow := range right.rows {
			matched := false
			for _, lrow := range left.rows {
				ok, combined, err := match(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, combined)
				}
			}
			if !matched {
				out.rows = append(out.rows, append(append([]table.Value{}, nullsLeft...), rrow...))
			}
		}
		return out, nil
	}

	var rmatched []bool
	if j.Kind == table.JoinFull {
		rmatched = make([]bool, len(right.rows))
	}
	for _, lrow := range left.rows {
		matched := false
		for ri, rrow := range right.rows {
			ok, combined, err := match(lrow, rrow)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				if rmatched != nil {
					rmatched[ri] = true
				}
				out.rows = append(out.rows, combined)
			}
		}
		if !matched && (j.Kind == table.JoinLeft || j.Kind == table.JoinFull) {
			out.rows = append(out.rows, append(append([]table.Value{}, lrow...), nullsRight...))
		}
	}
	for ri := range rmatched {
		if !rmatched[ri] {
			out.rows = append(out.rows, append(append([]table.Value{}, nullsLeft...), right.rows[ri]...))
		}
	}
	return out, nil
}

type projectedRow struct {
	out  []table.Value
	keys []table.Value // order-by keys
}

func buildOutput(p *plan, rows []projectedRow) *table.Table {
	order := p.order
	if len(order) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			for k := range order {
				c := table.Compare(rows[a].keys[k], rows[b].keys[k])
				if c == 0 {
					continue
				}
				if order[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	out := &table.Table{Name: p.stmt.From}
	for i, name := range p.names {
		kind := table.KindString
		for _, r := range rows {
			if !r.out[i].IsNull() {
				kind = r.out[i].Kind
				break
			}
		}
		col := table.NewColumn(name, kind)
		col.Grow(len(rows))
		for _, r := range rows {
			col.Append(r.out[i])
		}
		out.Columns = append(out.Columns, col)
	}
	return out
}

// project evaluates the select list and the ORDER BY keys in ev: one output
// row, for a relation row or for a group.
func project(p *plan, ev env) (projectedRow, error) {
	pr := projectedRow{out: make([]table.Value, len(p.items)), keys: make([]table.Value, len(p.order))}
	for i, it := range p.items {
		v, err := evalExpr(it.Expr, ev)
		if err != nil {
			return pr, err
		}
		pr.out[i] = v
	}
	for i, o := range p.order {
		v, err := evalExpr(o.Expr, ev)
		if err != nil {
			return pr, err
		}
		pr.keys[i] = v
	}
	return pr, nil
}

func executePlainScalar(p *plan, rel *srel) (*table.Table, error) {
	win, err := computeWindowsScalar(rel, p.wins)
	if err != nil {
		return nil, err
	}
	rows := make([]projectedRow, 0, len(rel.rows))
	for ri, row := range rel.rows {
		pr, err := project(p, &rowEnv{rel: rel, row: row, pos: ri, win: win})
		if err != nil {
			return nil, err
		}
		rows = append(rows, pr)
	}
	return buildOutput(p, rows), nil
}

func executeGroupedScalar(p *plan, rel *srel) (*table.Table, error) {
	// Partition rows into groups by the GROUP BY key expressions.
	var keys []string
	groups := map[string][]int{}
	var kb []byte
	for ri, row := range rel.rows {
		ev := &rowEnv{rel: rel, row: row}
		kb = kb[:0]
		for _, g := range p.groupBy {
			v, err := evalExpr(g, ev)
			if err != nil {
				return nil, err
			}
			kb = table.AppendKeyPart(kb, v)
		}
		k := string(kb)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], ri)
	}
	// Global aggregates over zero rows still produce one group.
	if len(p.groupBy) == 0 && len(keys) == 0 {
		keys = append(keys, "")
	}

	rows := make([]projectedRow, 0, len(keys))
	for _, k := range keys {
		ev := &groupEnv{rowEnv: rowEnv{rel: rel}, rows: groups[k]}
		if len(ev.rows) > 0 {
			ev.row = rel.rows[ev.rows[0]]
		}
		if p.having != nil {
			hv, err := evalExpr(p.having, ev)
			if err != nil {
				return nil, err
			}
			if b, ok := hv.AsBool(); !ok || !b {
				continue
			}
		}
		pr, err := project(p, ev)
		if err != nil {
			return nil, err
		}
		rows = append(rows, pr)
	}
	return buildOutput(p, rows), nil
}
