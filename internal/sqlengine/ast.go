package sqlengine

import (
	"fmt"
	"strings"

	"datalab/internal/table"
)

// Expr is a SQL expression node.
type Expr interface {
	// SQL renders the expression back to SQL text.
	SQL() string
}

// ColumnRef references a column, optionally qualified by table or alias.
// idx is the column's index in the statement's joined relation (FROM's
// columns, then each JOIN's in order), written once when the statement is
// resolved into a plan; evaluation reads the index and never the names.
type ColumnRef struct {
	Table string // may be empty
	Name  string
	idx   int
}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Star is the bare `*` select item.
type Star struct{}

// SQL implements Expr.
func (Star) SQL() string { return "*" }

// Literal is a constant value.
type Literal struct {
	Value table.Value
}

// SQL implements Expr.
func (l *Literal) SQL() string {
	switch l.Value.Kind {
	case table.KindString:
		return "'" + strings.ReplaceAll(l.Value.S, "'", "''") + "'"
	case table.KindNull:
		return "NULL"
	default:
		return l.Value.AsString()
	}
}

// Param is a bind placeholder: `?` (positional) or `:name` (named). Index
// is the statement's 0-based binding slot; every occurrence of one :name
// shares a slot. A Param carries no value — executors resolve it through
// the per-execution binding slice, so one cached statement serves
// concurrent executions with different arguments and the AST is never
// mutated.
type Param struct {
	Index int
	Name  string // empty for positional ?
}

// SQL implements Expr.
func (p *Param) SQL() string {
	if p.Name != "" {
		return ":" + p.Name
	}
	return "?"
}

// Binary is a binary operation: arithmetic, comparison, AND/OR, LIKE.
type Binary struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "LIKE", "||"
	L, R Expr
}

// SQL implements Expr.
func (b *Binary) SQL() string {
	return fmt.Sprintf("(%s %s %s)", b.L.SQL(), b.Op, b.R.SQL())
}

// Unary is NOT or arithmetic negation.
type Unary struct {
	Op string // "NOT", "-"
	X  Expr
}

// SQL implements Expr.
func (u *Unary) SQL() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.SQL() + ")"
	}
	return "(" + u.Op + u.X.SQL() + ")"
}

// FuncCall is a function application; aggregates are recognized by name.
// When Over is non-nil the call is a window function computed per input
// row over its partition rather than a grouping aggregate; slot then numbers
// it among its plan's window calls.
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Distinct bool        // COUNT(DISTINCT x)
	IsStar   bool        // COUNT(*)
	Over     *WindowSpec // non-nil for window functions
	slot     int
}

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	var base string
	if f.IsStar {
		base = f.Name + "(*)"
	} else {
		args := make([]string, len(f.Args))
		for i, a := range f.Args {
			args[i] = a.SQL()
		}
		d := ""
		if f.Distinct {
			d = "DISTINCT "
		}
		base = fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(args, ", "))
	}
	if f.Over != nil {
		base += " OVER " + f.Over.SQL()
	}
	return base
}

// WindowSpec is the OVER (...) clause of a window function.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
	Frame       *WindowFrame // optional ROWS frame; requires OrderBy
}

// SQL renders the spec back to SQL text.
func (w *WindowSpec) SQL() string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		cols := make([]string, len(w.PartitionBy))
		for i, e := range w.PartitionBy {
			cols[i] = e.SQL()
		}
		parts = append(parts, "PARTITION BY "+strings.Join(cols, ", "))
	}
	if len(w.OrderBy) > 0 {
		items := make([]string, len(w.OrderBy))
		for i, o := range w.OrderBy {
			items[i] = o.Expr.SQL()
			if o.Desc {
				items[i] += " DESC"
			}
		}
		parts = append(parts, "ORDER BY "+strings.Join(items, ", "))
	}
	if w.Frame != nil {
		lo := "UNBOUNDED PRECEDING"
		if !w.Frame.Unbounded {
			lo = fmt.Sprintf("%d PRECEDING", w.Frame.Preceding)
		}
		parts = append(parts, "ROWS BETWEEN "+lo+" AND CURRENT ROW")
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// WindowFrame is a ROWS BETWEEN ... AND CURRENT ROW frame bound.
type WindowFrame struct {
	Preceding int64 // rows before the current row included in the frame
	Unbounded bool  // UNBOUNDED PRECEDING
}

// Subquery is a parenthesized scalar subquery used as an expression. It
// must produce exactly one column and at most one row at execution time.
// slot numbers it among its plan's subqueries: each execution runs them
// first and evaluation reads the value from that slot.
type Subquery struct {
	Stmt *SelectStmt
	slot int
}

// SQL implements Expr.
func (s *Subquery) SQL() string { return "(" + s.Stmt.SQL() + ")" }

// In is `x [NOT] IN (v1, v2, ...)` or `x [NOT] IN (SELECT ...)`. Exactly
// one of Values/Sub is set; Sub's rows are the list, read from the plan's
// subquery slot.
type In struct {
	X      Expr
	Values []Expr
	Sub    *SelectStmt // non-nil for IN (SELECT ...)
	Not    bool
	slot   int
}

// SQL implements Expr.
func (in *In) SQL() string {
	op := "IN"
	if in.Not {
		op = "NOT IN"
	}
	if in.Sub != nil {
		return fmt.Sprintf("(%s %s (%s))", in.X.SQL(), op, in.Sub.SQL())
	}
	vals := make([]string, len(in.Values))
	for i, v := range in.Values {
		vals[i] = v.SQL()
	}
	return fmt.Sprintf("(%s %s (%s))", in.X.SQL(), op, strings.Join(vals, ", "))
}

// Between is `x [NOT] BETWEEN lo AND hi`.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// SQL implements Expr.
func (b *Between) SQL() string {
	op := "BETWEEN"
	if b.Not {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", b.X.SQL(), op, b.Lo.SQL(), b.Hi.SQL())
}

// IsNull is `x IS [NOT] NULL`.
type IsNull struct {
	X   Expr
	Not bool
}

// SQL implements Expr.
func (n *IsNull) SQL() string {
	if n.Not {
		return "(" + n.X.SQL() + " IS NOT NULL)"
	}
	return "(" + n.X.SQL() + " IS NULL)"
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // may be nil
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond, Result Expr
}

// SQL implements Expr.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond.SQL(), w.Result.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS alias
}

// OutputName returns the column name of the item in the result.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(*ColumnRef); ok {
		return c.Name
	}
	return s.Expr.SQL()
}

// JoinClause is one JOIN ... ON step in the FROM clause.
type JoinClause struct {
	Kind  table.JoinKind
	Table string
	Alias string
	On    Expr // equality predicate; evaluated per joined row pair
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     string
	FromAs   string
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
	// LimitParam/OffsetParam are set when the LIMIT/OFFSET operand is a
	// placeholder; each execution reads their bound values into its execArgs.
	LimitParam  *Param
	OffsetParam *Param
	// Params names the statement's binding slots in slot order: "" for a
	// positional ?, the bare name for :name.
	Params []string
}

// NumParams reports how many binding slots (? or :name) the statement
// declares.
func (s *SelectStmt) NumParams() int { return len(s.Params) }

// OrderItem is one ORDER BY criterion.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the statement back to canonical SQL text.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.Expr.SQL()
		if it.Alias != "" {
			items[i] += " AS " + it.Alias
		}
	}
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM " + s.From)
	if s.FromAs != "" {
		sb.WriteString(" AS " + s.FromAs)
	}
	for _, j := range s.Joins {
		kw := "JOIN"
		switch j.Kind {
		case table.JoinLeft:
			kw = "LEFT JOIN"
		case table.JoinRight:
			kw = "RIGHT JOIN"
		case table.JoinFull:
			kw = "FULL OUTER JOIN"
		}
		sb.WriteString(" " + kw + " " + j.Table)
		if j.Alias != "" {
			sb.WriteString(" AS " + j.Alias)
		}
		sb.WriteString(" ON " + j.On.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.SQL()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.SQL()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	switch {
	case s.LimitParam != nil:
		sb.WriteString(" LIMIT " + s.LimitParam.SQL())
	case s.Limit >= 0:
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	switch {
	case s.OffsetParam != nil:
		sb.WriteString(" OFFSET " + s.OffsetParam.SQL())
	case s.Offset > 0:
		fmt.Fprintf(&sb, " OFFSET %d", s.Offset)
	}
	return sb.String()
}

// walkExpr is the engine's one read-only traversal: it calls visit on e
// and, when visit returns true, on every child expression in source
// order — including a window call's PARTITION BY and ORDER BY keys, so an
// analysis leaves a child out by returning false at its parent, never by
// omission. A nested SELECT (Subquery.Stmt, In.Sub) is a scope of its
// own — its columns, aggregates and windows resolve against its own FROM
// — so the node holding it is visited and the statement inside is not.
func walkExpr(e Expr, visit func(Expr) bool) {
	if !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case *Unary:
		walkExpr(x.X, visit)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
		if x.Over != nil {
			for _, p := range x.Over.PartitionBy {
				walkExpr(p, visit)
			}
			for _, o := range x.Over.OrderBy {
				walkExpr(o.Expr, visit)
			}
		}
	case *In:
		walkExpr(x.X, visit)
		for _, v := range x.Values {
			walkExpr(v, visit)
		}
	case *Between:
		walkExpr(x.X, visit)
		walkExpr(x.Lo, visit)
		walkExpr(x.Hi, visit)
	case *IsNull:
		walkExpr(x.X, visit)
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, visit)
			walkExpr(w.Result, visit)
		}
		if x.Else != nil {
			walkExpr(x.Else, visit)
		}
	}
}

// anyExpr reports whether match holds for any node of e, walking as
// walkExpr does and stopping at the first hit. match returns whether the
// node is a hit and, when it is not, whether to look under it. The answer
// latches: once true, no later sibling is consulted.
func anyExpr(e Expr, match func(Expr) (hit, descend bool)) bool {
	found := false
	walkExpr(e, func(e Expr) bool {
		if found {
			return false
		}
		var descend bool
		found, descend = match(e)
		return descend && !found
	})
	return found
}

// rewriteExpr is the engine's one rewriting traversal, over the same
// children as walkExpr. f sees each node before its children and returns
// the node to use in its place and whether to go on into that node's
// children. Nothing is mutated: a parent is copied only when a child
// under it changed, so an untouched subtree — and an untouched whole —
// comes back pointer-identical. The resolver relies on that: the nodes it
// numbered stay the nodes the plan evaluates.
func rewriteExpr(e Expr, f func(Expr) (Expr, bool)) Expr {
	e, descend := f(e)
	if !descend {
		return e
	}
	switch x := e.(type) {
	case *Binary:
		if l, r := rewriteExpr(x.L, f), rewriteExpr(x.R, f); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *Unary:
		if nx := rewriteExpr(x.X, f); nx != x.X {
			return &Unary{Op: x.Op, X: nx}
		}
	case *FuncCall:
		args, argsChanged := rewriteExprs(x.Args, f)
		over := x.Over
		if over != nil {
			part, partChanged := rewriteExprs(over.PartitionBy, f)
			order, orderChanged := over.OrderBy, false
			for i, o := range over.OrderBy {
				if ne := rewriteExpr(o.Expr, f); ne != o.Expr {
					if !orderChanged {
						order, orderChanged = append([]OrderItem(nil), over.OrderBy...), true
					}
					order[i].Expr = ne
				}
			}
			if partChanged || orderChanged {
				over = &WindowSpec{PartitionBy: part, OrderBy: order, Frame: over.Frame}
			}
		}
		if argsChanged || over != x.Over {
			return &FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct, IsStar: x.IsStar, Over: over, slot: x.slot}
		}
	case *In:
		nx := rewriteExpr(x.X, f)
		vals, valsChanged := rewriteExprs(x.Values, f)
		if nx != x.X || valsChanged {
			return &In{X: nx, Values: vals, Sub: x.Sub, Not: x.Not, slot: x.slot}
		}
	case *Between:
		nx, lo, hi := rewriteExpr(x.X, f), rewriteExpr(x.Lo, f), rewriteExpr(x.Hi, f)
		if nx != x.X || lo != x.Lo || hi != x.Hi {
			return &Between{X: nx, Lo: lo, Hi: hi, Not: x.Not}
		}
	case *IsNull:
		if nx := rewriteExpr(x.X, f); nx != x.X {
			return &IsNull{X: nx, Not: x.Not}
		}
	case *CaseExpr:
		whens, changed := x.Whens, false
		for i, w := range x.Whens {
			cond, res := rewriteExpr(w.Cond, f), rewriteExpr(w.Result, f)
			if cond != w.Cond || res != w.Result {
				if !changed {
					whens, changed = append([]WhenClause(nil), x.Whens...), true
				}
				whens[i] = WhenClause{Cond: cond, Result: res}
			}
		}
		els := x.Else
		if els != nil {
			els = rewriteExpr(els, f)
		}
		if changed || els != x.Else {
			return &CaseExpr{Whens: whens, Else: els}
		}
	}
	return e
}

// rewriteExprs applies rewriteExpr to each element, copying the slice on
// the first element that changes.
func rewriteExprs(list []Expr, f func(Expr) (Expr, bool)) ([]Expr, bool) {
	out, changed := list, false
	for i, e := range list {
		if ne := rewriteExpr(e, f); ne != e {
			if !changed {
				out, changed = append([]Expr(nil), list...), true
			}
			out[i] = ne
		}
	}
	return out, changed
}
