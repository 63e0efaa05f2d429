package sqlengine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"datalab/internal/table"
)

// Scalar (row-at-a-time) reference executor. This is the seed engine's
// original execution strategy, kept intact behind Catalog.QueryScalar: it
// materializes row-major relations and walks the expression tree once per
// row. The vectorized executor in exec.go/vector.go is differentially
// tested against it (see vector_test.go); no request reaches it.

// srel is the scalar executor's working representation: shared column
// metadata plus row-major values. binds carries the execution's parameter
// bindings (nil without placeholders).
type srel struct {
	relSchema
	rows  [][]table.Value
	binds []table.Value
}

func srelFrom(t *table.Table, qual string) *srel {
	r := &srel{relSchema: schemaFrom(t, qual)}
	n := t.NumRows()
	r.rows = make([][]table.Value, n)
	for i := 0; i < n; i++ {
		r.rows[i] = t.Row(i)
	}
	return r
}

// rowEnv evaluates expressions against one relation row. pos/win are set
// only during projection of a statement with window functions: win maps
// each window call to its precomputed per-row values, indexed by pos (the
// row's position in rel.rows).
type rowEnv struct {
	rel *srel
	row []table.Value
	pos int
	win map[*FuncCall][]table.Value
}

func (e *rowEnv) resolveColumn(ref *ColumnRef) (table.Value, error) {
	i := e.rel.findColumn(ref)
	if i < 0 {
		return table.Null(), errUnknownColumn(ref)
	}
	return e.row[i], nil
}

func (e *rowEnv) resolveAggregate(fn *FuncCall) (table.Value, error) {
	return table.Null(), errAggInRowContext(fn)
}

func (e *rowEnv) resolveParam(p *Param) (table.Value, error) {
	return bindAt(e.rel.binds, p)
}

func (e *rowEnv) resolveWindow(fn *FuncCall) (table.Value, error) {
	if vals, ok := e.win[fn]; ok {
		return vals[e.pos], nil
	}
	return table.Null(), errWindowContext(fn)
}

// groupEnv evaluates expressions against one group: plain columns resolve
// from the group's first row, aggregates compute over all group rows.
type groupEnv struct {
	rel  *srel
	rows []int // indexes into rel.rows
}

func (e *groupEnv) resolveColumn(ref *ColumnRef) (table.Value, error) {
	i := e.rel.findColumn(ref)
	if i < 0 {
		return table.Null(), errUnknownColumn(ref)
	}
	if len(e.rows) == 0 {
		return table.Null(), nil
	}
	return e.rel.rows[e.rows[0]][i], nil
}

func (e *groupEnv) resolveParam(p *Param) (table.Value, error) {
	return bindAt(e.rel.binds, p)
}

func (e *groupEnv) resolveWindow(fn *FuncCall) (table.Value, error) {
	return table.Null(), errWindowContext(fn)
}

func (e *groupEnv) resolveAggregate(fn *FuncCall) (table.Value, error) {
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
// cache: repeated templates parse once and execute with their extracted
// literals bound, so differential runs alternating Query/QueryScalar no
// longer pay (or skew) a raw parse per scalar call.
func (c *Catalog) QueryScalar(sql string) (*table.Table, error) {
	stmt, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return c.ExecuteScalarBound(stmt, binds)
}

// ExecuteScalarBound runs a parsed statement with the row-at-a-time
// reference path and the execution's parameter bindings (nil for a
// statement without placeholders) — the scalar half of the bind-vs-inline
// differential harness.
func (c *Catalog) ExecuteScalarBound(stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	stmt, err := c.resolveInline(context.Background(), stmt, binds, true)
	if err != nil {
		return nil, err
	}
	return c.executeScalarStmt(stmt, binds)
}

// executeScalarStmt is the scalar execution body after bind resolution
// and subquery inlining — shared with subquery execution, which enters
// with resolveBindsLoose.
func (c *Catalog) executeScalarStmt(stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	// Same snapshot discipline as the vectorized path: one atomic load per
	// referenced table pins the rows this execution reads.
	base, ok := c.Snapshot(stmt.From)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", stmt.From)
	}
	qual := stmt.From
	if stmt.FromAs != "" {
		qual = stmt.FromAs
	}
	rel := srelFrom(base.Table(), qual)
	rel.binds = binds

	for _, j := range stmt.Joins {
		rt, ok := c.Snapshot(j.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", j.Table)
		}
		jq := j.Table
		if j.Alias != "" {
			jq = j.Alias
		}
		var err error
		rel, err = joinRelationsScalar(rel, srelFrom(rt.Table(), jq), j)
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

	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil || selectHasAggregate(stmt)
	var out *table.Table
	var err error
	if grouped {
		out, err = executeGroupedScalar(stmt, rel)
	} else {
		out, err = executePlainScalar(stmt, rel)
	}
	if err != nil {
		return nil, err
	}
	return applyDistinctOffsetLimit(stmt, out), nil
}

// joinRelationsScalar nested-loop joins left and right with the ON
// predicate, evaluated for every row pair. Output order follows the
// preserved side — left rows for INNER/LEFT/FULL, right rows for RIGHT —
// with FULL's unmatched right rows appended last in ascending order,
// matching the vectorized pipeline's probe order exactly (the differential
// harness compares results row for row).
func joinRelationsScalar(left, right *srel, j JoinClause) (*srel, error) {
	out := &srel{relSchema: concatSchemas(&left.relSchema, &right.relSchema), binds: left.binds}
	nullsLeft := make([]table.Value, len(left.names))
	nullsRight := make([]table.Value, len(right.names))
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

func buildOutput(name string, items []SelectItem, rows []projectedRow, order []OrderItem) *table.Table {
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
	names := outputNames(items)
	kinds := make([]table.Kind, len(items))
	for i := range kinds {
		kinds[i] = table.KindString
		for _, r := range rows {
			if !r.out[i].IsNull() {
				kinds[i] = r.out[i].Kind
				break
			}
		}
	}
	out := &table.Table{Name: name}
	for i := range items {
		col := table.NewColumn(names[i], kinds[i])
		col.Grow(len(rows))
		for _, r := range rows {
			col.Append(r.out[i])
		}
		out.Columns = append(out.Columns, col)
	}
	return out
}

// outputNames resolves display names for the select items, deduplicating
// case-insensitive collisions with _N suffixes.
func outputNames(items []SelectItem) []string {
	names := make([]string, len(items))
	used := map[string]int{}
	for i, it := range items {
		n := it.OutputName()
		key := strings.ToLower(n)
		if c, dup := used[key]; dup {
			used[key] = c + 1
			n = fmt.Sprintf("%s_%d", n, c+1)
		} else {
			used[key] = 0
		}
		names[i] = n
	}
	return names
}

func executePlainScalar(stmt *SelectStmt, rel *srel) (*table.Table, error) {
	items := expandItems(stmt, &rel.relSchema)
	order := orderExprs(stmt, items)
	win, err := computeWindowsScalar(rel, statementWindows(items, order))
	if err != nil {
		return nil, err
	}
	rows := make([]projectedRow, 0, len(rel.rows))
	for ri, row := range rel.rows {
		ev := &rowEnv{rel: rel, row: row, pos: ri, win: win}
		pr := projectedRow{out: make([]table.Value, len(items)), keys: make([]table.Value, len(order))}
		for i, it := range items {
			v, err := evalExpr(it.Expr, ev)
			if err != nil {
				return nil, err
			}
			pr.out[i] = v
		}
		for i, o := range order {
			v, err := evalExpr(o.Expr, ev)
			if err != nil {
				return nil, err
			}
			pr.keys[i] = v
		}
		rows = append(rows, pr)
	}
	return buildOutput(stmt.From, items, rows, order), nil
}

func executeGroupedScalar(stmt *SelectStmt, rel *srel) (*table.Table, error) {
	items := expandItems(stmt, &rel.relSchema)
	order := orderExprs(stmt, items)

	// Partition rows into groups by the GROUP BY key expressions.
	type grp struct{ rows []int }
	var keys []string
	groups := map[string]*grp{}
	for ri, row := range rel.rows {
		ev := &rowEnv{rel: rel, row: row}
		var kb strings.Builder
		for _, g := range stmt.GroupBy {
			v, err := evalExpr(g, ev)
			if err != nil {
				return nil, err
			}
			kb.WriteString(v.Key())
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &grp{}
			groups[k] = g
			keys = append(keys, k)
		}
		g.rows = append(g.rows, ri)
	}
	// Global aggregates over zero rows still produce one group.
	if len(stmt.GroupBy) == 0 && len(keys) == 0 {
		groups[""] = &grp{}
		keys = append(keys, "")
	}

	having := stmt.Having
	if having != nil {
		having = resolveHavingAliases(having, items, &rel.relSchema)
	}
	rows := make([]projectedRow, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		ev := &groupEnv{rel: rel, rows: g.rows}
		if having != nil {
			hv, err := evalExpr(having, ev)
			if err != nil {
				return nil, err
			}
			if b, ok := hv.AsBool(); !ok || !b {
				continue
			}
		}
		pr := projectedRow{out: make([]table.Value, len(items)), keys: make([]table.Value, len(order))}
		for i, it := range items {
			v, err := evalExpr(it.Expr, ev)
			if err != nil {
				return nil, err
			}
			pr.out[i] = v
		}
		for i, o := range order {
			v, err := evalExpr(o.Expr, ev)
			if err != nil {
				return nil, err
			}
			pr.keys[i] = v
		}
		rows = append(rows, pr)
	}
	return buildOutput(stmt.From, items, rows, order), nil
}
