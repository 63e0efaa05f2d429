package sqlengine

import (
	"context"
	"fmt"
	"sort"

	"datalab/internal/table"
)

// Scalar (row-at-a-time) reference executor: the seed engine's original
// execution strategy, kept as the differential tests' oracle. It
// materializes row-major relations and walks the expression tree once per
// row (evalExpr, eval_test.go). It lives in test files only — QueryScalar
// and ExecuteScalarBound are Catalog methods the tests declare — so no
// request can reach it; the engine (exec.go, vector.go) is differentially
// tested against it (see vector_test.go and fuzz_test.go).

// srel is the scalar executor's working representation: row-major values,
// addressed by the indexes the plan's column references carry. x carries the
// execution's arguments.
type srel struct {
	rows  [][]table.Value
	width int // cells per row
	x     *execArgs
	kinds *vrel // the relation's column kinds, for kindOf
}

// kindsOf is a relation with no rows whose columns have cols' kinds, for
// kindOf to read.
func kindsOf(cols []table.Column, x *execArgs) *vrel {
	kinds := make([]table.Column, len(cols))
	for i := range cols {
		kinds[i] = table.NewColumn(cols[i].Name, cols[i].Kind)
	}
	return &vrel{cols: kinds, x: x}
}

func srelFrom(t *table.Table, x *execArgs) *srel {
	r := &srel{width: len(t.Columns), x: x, kinds: kindsOf(t.Columns, x)}
	n := t.NumRows()
	r.rows = make([][]table.Value, n)
	for i := 0; i < n; i++ {
		r.rows[i] = rowAt(t, i)
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

func (e *rowEnv) kinds() *vrel { return e.rel.kinds }

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
			k := string(table.AppendKey(nil, v))
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	acc, err := newAggAcc(fn.Name, false)
	if err != nil {
		return table.Null(), err
	}
	for i := range vals {
		acc.add(i, func(i int) table.Value { return vals[i] })
	}
	return acc.value(), nil
}

// QueryScalar parses and executes a SELECT with the scalar reference
// executor. Like QueryCtx, the text goes through fingerprinting and the
// plan cache: repeated templates plan once and execute with their extracted
// literals bound, so differential runs alternating the two executors do not
// pay (or skew) a raw parse per scalar call.
func (c *Catalog) QueryScalar(sql string) (*table.Table, error) {
	p, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return executeScalarBound(p, binds)
}

// ExecuteScalarBound resolves a freshly parsed statement, uncached, and
// runs it with the row-at-a-time reference path and the execution's
// parameter bindings (nil for a statement without placeholders) — the
// scalar half of the bind-vs-inline differential harness. Resolution
// writes into stmt's tree, so the statement must not be reused.
func (c *Catalog) ExecuteScalarBound(stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	p, err := c.resolve(stmt)
	if err != nil {
		return nil, err
	}
	return executeScalarBound(p, binds)
}

func executeScalarBound(p *plan, binds []table.Value) (*table.Table, error) {
	x, err := start(context.Background(), p, binds, nil, executeScalarPlan)
	if err != nil {
		return nil, err
	}
	res, err := executeScalarPlan(context.Background(), p, x)
	if err != nil {
		return nil, err
	}
	return res.Table(p.stmt.From), nil
}

// executeScalarPlan is the scalar execution body once the execution's
// arguments are known — the executor the oracle's subqueries run with.
func executeScalarPlan(_ context.Context, p *plan, x *execArgs) (*Result, error) {
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

	var rows []projectedRow
	var err error
	if p.grouped {
		rows, err = executeGroupedScalar(p, rel)
	} else {
		rows, err = executePlainScalar(p, rel)
	}
	if err != nil {
		return nil, err
	}
	return buildOutput(p, x, rel.kinds, rows), nil
}

// joinRelationsScalar nested-loop joins left and right with the ON
// predicate, evaluated for every row pair. Output order follows the
// preserved side — left rows for INNER/LEFT/FULL, right rows for RIGHT —
// with FULL's unmatched right rows appended last in ascending order,
// matching the vectorized pipeline's probe order exactly (the differential
// harness compares results row for row).
func joinRelationsScalar(left, right *srel, j JoinClause) (*srel, error) {
	out := &srel{width: left.width + right.width, x: left.x,
		kinds: kindsOf(append(append([]table.Column(nil), left.kinds.cols...), right.kinds.cols...), left.x)}
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

// buildOutput is the oracle's own output tail, row-major: it sorts the
// projected rows, keeps each distinct row's first occurrence under
// DISTINCT, cuts the OFFSET/LIMIT window, and only then builds the columns,
// each of its item's kind over the relation's kinds (TEXT for NULL).
func buildOutput(p *plan, x *execArgs, kinds *vrel, rows []projectedRow) *Result {
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
	if p.stmt.Distinct {
		seen := map[string]bool{}
		kept := rows[:0]
		var kb []byte
		for _, r := range rows {
			kb = kb[:0]
			for _, v := range r.out {
				kb = table.AppendKey(kb, v)
			}
			if !seen[string(kb)] {
				seen[string(kb)] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	rows = rows[min(x.offset, len(rows)):]
	if x.limit >= 0 && x.limit < len(rows) {
		rows = rows[:x.limit]
	}
	cols := make([]table.Column, len(p.names))
	for i, name := range p.names {
		kind := kindOf(p.items[i].Expr, kinds)
		if kind == table.KindNull {
			kind = table.KindString
		}
		cols[i] = table.NewColumn(name, kind)
		cols[i].Grow(len(rows))
		for _, r := range rows {
			cols[i].Append(r.out[i])
		}
	}
	return newResult(p.names, cols, nil)
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

func executePlainScalar(p *plan, rel *srel) ([]projectedRow, error) {
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
	return rows, nil
}

func executeGroupedScalar(p *plan, rel *srel) ([]projectedRow, error) {
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
			kb = table.AppendKey(kb, v)
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
	return rows, nil
}

// --- scalar window driver ---

// computeWindowsScalar evaluates every window call over the filtered
// scalar relation, returning per-slot value slices indexed by row
// position in rel.rows; nil without window calls.
func computeWindowsScalar(rel *srel, wins []*FuncCall) ([][]table.Value, error) {
	var out [][]table.Value
	for _, fn := range wins {
		vals, err := scalarWindowColumn(rel, fn)
		if err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, nil
}

func scalarWindowColumn(rel *srel, fn *FuncCall) ([]table.Value, error) {
	n := len(rel.rows)
	spec := fn.Over
	ordVals := make([][]table.Value, len(spec.OrderBy))
	for i := range ordVals {
		ordVals[i] = make([]table.Value, n)
	}
	var argVals []table.Value
	if !fn.IsStar && len(fn.Args) == 1 {
		argVals = make([]table.Value, n)
	}
	var keys []string
	if len(spec.PartitionBy) > 0 {
		keys = make([]string, n)
	}
	var kb []byte
	for ri, row := range rel.rows {
		ev := &rowEnv{rel: rel, row: row}
		if keys != nil {
			kb = kb[:0]
			for _, pe := range spec.PartitionBy {
				v, err := evalExpr(pe, ev)
				if err != nil {
					return nil, err
				}
				kb = table.AppendKey(kb, v)
			}
			keys[ri] = string(kb)
		}
		for k, o := range spec.OrderBy {
			v, err := evalExpr(o.Expr, ev)
			if err != nil {
				return nil, err
			}
			ordVals[k][ri] = v
		}
		if argVals != nil {
			v, err := evalExpr(fn.Args[0], ev)
			if err != nil {
				return nil, err
			}
			argVals[ri] = v
		}
	}

	var argAt func(int) table.Value
	if argVals != nil {
		argAt = func(pos int) table.Value { return argVals[pos] }
	}
	out := make([]table.Value, n)
	for _, part := range partitionPositions(keys, n) {
		sorted := append([]int(nil), part...)
		if len(spec.OrderBy) > 0 {
			// Identical comparator and algorithm to boxedSortPerm (and to
			// the vectorized fallback sorter): SliceStable, Desc-aware, no
			// position tie-break.
			sort.SliceStable(sorted, func(a, b int) bool {
				ra, rb := sorted[a], sorted[b]
				for k := range spec.OrderBy {
					c := table.Compare(ordVals[k][ra], ordVals[k][rb])
					if c == 0 {
						continue
					}
					if spec.OrderBy[k].Desc {
						return c > 0
					}
					return c < 0
				}
				return false
			})
		}
		peers := func(a, b int) bool {
			for k := range spec.OrderBy {
				if table.Compare(ordVals[k][a], ordVals[k][b]) != 0 {
					return false
				}
			}
			return true
		}
		set := func(pos int, v table.Value) { out[pos] = v }
		if err := computeWindowValues(context.Background(), fn, sorted, peerGroupEnds(sorted, peers), argAt, set); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partitionPositions groups positions 0..n-1 by key in first-appearance
// order; nil keys means a single whole-input partition.
func partitionPositions(keys []string, n int) [][]int {
	if keys == nil {
		if n == 0 {
			return nil
		}
		return [][]int{iotaInts(n)}
	}
	m := make(map[string]int, 16)
	var parts [][]int
	for i := 0; i < n; i++ {
		gi, ok := m[keys[i]]
		if !ok {
			gi = len(parts)
			m[keys[i]] = gi
			parts = append(parts, nil)
		}
		parts[gi] = append(parts[gi], i)
	}
	return parts
}
