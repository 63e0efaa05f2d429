package sqlengine

import (
	"fmt"
	"strings"

	"datalab/internal/table"
)

// Name resolution. A parsed statement plus the schemas of its FROM/JOIN
// tables become one plan, once per template and schema: every column
// reference gets the index it means in the joined relation, `*` and `t.*`
// become items, aliases and positions in GROUP BY / HAVING / ORDER BY become
// the expressions they name, and window calls and subqueries are numbered
// into slots. Both executors interpret the plan and look no name up again,
// so whether a statement is valid is a property of the statement and the
// schema — an unknown column, in any clause, fails here on every data.
//
// The resolver writes its numbers into the tree it is given, which the
// caller must own: a fresh parse.
// After resolve returns, nothing writes the plan or its tree again: the plan
// cache and every Prepared share it across concurrent executions. What an
// execution adds — bindings, LIMIT/OFFSET values, subquery results — lives
// in its execArgs.

// plan is a resolved statement.
type plan struct {
	stmt *SelectStmt
	// apps are the write heads of the FROM table and of each JOIN's, in
	// clause order: the schemas the names were resolved against, and where
	// an execution takes its snapshots. A table's names and kinds are fixed
	// for its appender's life and Register installs a new one, so the plan
	// is current exactly while the catalog still maps the names to these.
	apps []*table.Appender

	items   []SelectItem // select list with * and t.* expanded
	names   []string     // output column names, de-duplicated
	groupBy []Expr       // aliases and positions resolved
	having  Expr         // aliases resolved; nil when absent
	order   []OrderItem  // aliases and positions resolved
	wins    []*FuncCall  // window calls by slot
	subs    []*plan      // subqueries by slot
	grouped bool         // GROUP BY, HAVING or an aggregate in the select list
	scalar  bool         // the plan of a scalar `(SELECT ...)`: at most one row

	// keep marks the joined relation's columns the statement observes once
	// its joins ran, so joins materialize no others; keepSansWhere leaves
	// WHERE's references out, for when its conjuncts ran ahead of the joins.
	// Neither marks a column only ON clauses read: onFrom[i] marks those the
	// ON clauses of the i-th join and every later one read, which the
	// relation entering the i-th join must hold (nil for none; the last
	// entry, after every join, is nil). late marks the columns the last join
	// hands on as its pairs rather than gathered (lateColumns). All are nil
	// without joins. earlyFilter reports that every join is INNER or LEFT on
	// pure column equality — the shape that lets them run ahead.
	keep, keepSansWhere []bool
	onFrom              [][]bool
	late                []bool
	earlyFilter         bool
	stages              []step // what an execution runs, in order (stageList)
}

// tableRef returns the name and qualifier of the statement's i-th table:
// FROM's for 0, the i-th JOIN's after.
func (s *SelectStmt) tableRef(i int) (name, qual string) {
	name, qual = s.From, s.FromAs
	if i > 0 {
		name, qual = s.Joins[i-1].Table, s.Joins[i-1].Alias
	}
	if qual == "" {
		qual = name
	}
	return name, qual
}

// current reports whether the catalog still maps the plan's table names,
// and its subqueries', to the appenders it was resolved against.
func (c *Catalog) current(p *plan) bool {
	for i, app := range p.apps {
		name, _ := p.stmt.tableRef(i)
		if cur, _ := c.Appender(name); cur != app {
			return false
		}
	}
	for _, sub := range p.subs {
		if !c.current(sub) {
			return false
		}
	}
	return true
}

// relSchema is the column metadata of a statement's joined relation:
// qualifier, lowercased name and display name per column.
type relSchema struct {
	quals []string // lowercased table alias/name per column
	names []string // lowercased column name per column
	disp  []string // display name per column (original case)
}

// schemaFrom builds the joined relation's schema — FROM's columns, then each
// JOIN's — and the relation's width after each table.
func schemaFrom(stmt *SelectStmt, apps []*table.Appender) (s relSchema, widths []int) {
	for i, app := range apps {
		_, qual := stmt.tableRef(i)
		qual = strings.ToLower(qual)
		cols := app.Snapshot().Table().Columns
		for ci := range cols {
			s.quals = append(s.quals, qual)
			s.names = append(s.names, strings.ToLower(cols[ci].Name))
			s.disp = append(s.disp, cols[ci].Name)
		}
		widths = append(widths, len(s.names))
	}
	return s, widths
}

// findColumn resolves a reference to a column index among the first width
// columns; -1 when absent. Ambiguous unqualified references resolve to the
// first match, matching the lenient behaviour benchmark queries rely on.
func (s *relSchema) findColumn(ref *ColumnRef, width int) int {
	name := strings.ToLower(ref.Name)
	qual := strings.ToLower(ref.Table)
	for i := 0; i < width; i++ {
		if s.names[i] == name && (qual == "" || s.quals[i] == qual) {
			return i
		}
	}
	return -1
}

func errUnknownColumn(ref *ColumnRef) error {
	return fmt.Errorf("sql: unknown column %q", ref.SQL())
}

// resolver carries one statement's resolution.
type resolver struct {
	c      *Catalog
	p      *plan
	schema relSchema
	used   []bool // columns referenced so far; nil without joins
	subs   []Expr // subquery nodes by slot: a node reached twice keeps its slot
	err    error  // first failure
}

func (r *resolver) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// resolve turns stmt, which the caller owns, into a plan against the tables
// registered now. An unknown table fails here too, but Prepare does not
// resolve eagerly on that account: names bind at execute.
func (c *Catalog) resolve(stmt *SelectStmt) (*plan, error) {
	p := &plan{stmt: stmt}
	for i := 0; i <= len(stmt.Joins); i++ {
		name, _ := stmt.tableRef(i)
		app, ok := c.Appender(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", name)
		}
		p.apps = append(p.apps, app)
	}
	schema, widths := schemaFrom(stmt, p.apps)
	r := &resolver{c: c, p: p, schema: schema}
	n := len(schema.names)

	// Joins concatenate left then right, so a column's index in the final
	// relation is its index in every prefix that has it: an ON clause sees
	// the columns up to its own join's width and no further.
	if len(stmt.Joins) > 0 {
		on := make([][]bool, len(stmt.Joins))
		for i := range stmt.Joins {
			r.used = make([]bool, n)
			r.expr(stmt.Joins[i].On, widths[i+1], nil)
			on[i] = r.used
		}
		p.onFrom = make([][]bool, len(stmt.Joins)+1)
		for i := len(on) - 1; i >= 0; i-- {
			p.onFrom[i] = orMasks(on[i], p.onFrom[i+1])
		}
		r.used = make([]bool, n)
	}
	p.earlyFilter = len(stmt.Joins) > 0 && joinsArePureEqui(stmt.Joins, widths)

	var err error
	if p.items, err = expandItems(stmt, &schema); err != nil {
		return nil, err
	}
	for _, it := range p.items {
		r.expr(it.Expr, n, nil)
	}
	p.names = outputNames(p.items)
	p.grouped = len(stmt.GroupBy) > 0 || stmt.Having != nil || selectHasAggregate(stmt)

	// GROUP BY keys and HAVING resolve a bare name to a relation column
	// first and to a select-list alias second; an integer GROUP BY key is a
	// 1-based select-list position.
	p.groupBy = make([]Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if lit, ok := g.(*Literal); ok && lit.Value.Kind == table.KindInt {
			pos := lit.Value.I
			if pos < 1 || pos > int64(len(p.items)) {
				return nil, fmt.Errorf("sql: GROUP BY position %d is not in the select list", pos)
			}
			g = p.items[pos-1].Expr
		}
		p.groupBy[i] = r.expr(g, n, p.items)
	}
	if stmt.Having != nil {
		p.having = r.expr(stmt.Having, n, p.items)
	}
	p.order = orderExprs(stmt, p.items)
	for _, o := range p.order {
		r.expr(o.Expr, n, nil)
	}

	// WHERE last, so what everything else observes is known apart from it.
	p.keepSansWhere = append([]bool(nil), r.used...)
	if stmt.Where != nil {
		r.expr(stmt.Where, n, nil)
	}
	p.keep = r.used
	if r.err != nil {
		return nil, r.err
	}
	p.late = lateColumns(p, widths)
	p.stages = p.stageList()
	return p, nil
}

// step is one entry of a plan's stage list: the trace stage it is charged
// to and what the layout decided for it; window reads plan.wins and sort
// plan.order. Like the plan, the list is shared by every execution.
type step struct {
	stage Stage
	// scan_filter: ahead marks the one before the joins, which runs the
	// WHERE conjuncts that can go first (plan.earlyFilter); the one after
	// them runs the rest, then the LIMIT pushdown where pushdown allows.
	ahead, pushdown bool
	lazy            bool   // finish with no project stage: the items are bare columns
	join            int    // join: the clause's index
	late            []bool // the last join: the columns it hands on as its pairs (plan.late)
	// group: the GROUP BY keys, the column of a sole key the last join
	// hands on as its pairs (the groupjoin; -1 for none) and HAVING.
	// project: the select list's expressions, then the ORDER BY keys.
	exprs   []Expr
	pairKey int
	having  Expr
}

// stageList lays out the plan's execution: the WHERE conjuncts that run
// ahead of the joins, each join, the WHERE, grouping or windows (never
// both: the parser rejects windows in a grouped statement), the
// projection, ORDER BY and finish. An ungrouped, unordered select list of
// bare columns has no project stage.
func (p *plan) stageList() []step {
	stmt := p.stmt
	list := make([]step, 0, len(stmt.Joins)+6)
	if p.earlyFilter && stmt.Where != nil {
		list = append(list, step{stage: StageScanFilter, ahead: true})
	}
	for i := range stmt.Joins {
		list = append(list, step{stage: StageJoin, join: i})
	}
	if len(stmt.Joins) > 0 {
		list[len(list)-1].late = p.late
	}
	list = append(list, step{stage: StageScanFilter,
		pushdown: !p.grouped && len(p.order) == 0 && !stmt.Distinct && len(p.wins) == 0})
	if p.grouped {
		st := step{stage: StageGroup, exprs: p.groupBy, having: p.having, pairKey: -1}
		if len(p.groupBy) == 1 && p.late != nil {
			if ref, ok := p.groupBy[0].(*ColumnRef); ok && p.late[ref.idx] {
				st.pairKey = ref.idx
			}
		}
		list = append(list, st)
	}
	if len(p.wins) > 0 {
		list = append(list, step{stage: StageWindow})
	}
	lazy := !p.grouped && len(p.order) == 0
	exprs := make([]Expr, 0, len(p.items)+len(p.order))
	for _, it := range p.items {
		_, bare := it.Expr.(*ColumnRef)
		lazy = lazy && bare
		exprs = append(exprs, it.Expr)
	}
	if !lazy {
		for _, o := range p.order {
			exprs = append(exprs, o.Expr)
		}
		list = append(list, step{stage: StageProject, exprs: exprs})
	}
	if len(p.order) > 0 {
		list = append(list, step{stage: StageSort})
	}
	return append(list, step{stage: StageFinish, lazy: lazy})
}

// orMasks returns a new mask marking what a or b marks; b may be nil.
func orMasks(a, b []bool) []bool {
	out := append([]bool(nil), a...)
	for i, m := range b {
		out[i] = out[i] || m
	}
	return out
}

// withOn returns keep plus the columns the ON clauses of the i-th join and
// later ones read: what the relation entering the i-th join must hold.
func (p *plan) withOn(keep []bool, i int) []bool {
	if p.onFrom[i] == nil {
		return keep
	}
	return orMasks(keep, p.onFrom[i])
}

// lateColumns marks the build-side columns of a grouped statement's last
// join that the statement reads only as its sole GROUP BY key, or at group
// level outside aggregate arguments (the select list, HAVING and ORDER BY
// read a group's first row there). The join leaves such a column as its
// pairs: the groupjoin groups the build rows once and numbers each pair's
// group through its build row (groupThrough), and a group's first row is
// read through the pairs too (vgroups.firstRows). The build side is the
// right one, or the left for a RIGHT join, which runs as the LEFT join of
// the swapped sides. A column WHERE, an aggregate's or a window call's
// arguments, or any other GROUP BY shape reads is gathered as before. The
// marks are fixed here, once per plan: executions share the plan across
// goroutines. nil when no column qualifies.
func lateColumns(p *plan, widths []int) []bool {
	joins := p.stmt.Joins
	if !p.grouped || len(joins) == 0 {
		return nil
	}
	lo, hi := widths[len(joins)-1], widths[len(joins)]
	if joins[len(joins)-1].Kind == table.JoinRight {
		lo, hi = 0, widths[len(joins)-1]
	}
	late := make([]bool, len(p.keep))
	copy(late[lo:hi], p.keep[lo:hi])
	gather := func(e Expr) {
		walkExpr(e, func(e Expr) bool {
			if ref, ok := e.(*ColumnRef); ok {
				late[ref.idx] = false
			}
			return true
		})
	}
	groupLevel := func(e Expr) {
		walkExpr(e, func(e Expr) bool {
			if fn, ok := e.(*FuncCall); ok && (fn.Over != nil || isAggregate(fn.Name)) {
				gather(fn)
				return false
			}
			return true
		})
	}
	if p.stmt.Where != nil {
		gather(p.stmt.Where)
	}
	for _, g := range p.groupBy {
		if _, ok := g.(*ColumnRef); !ok || len(p.groupBy) > 1 {
			gather(g)
		}
	}
	for _, it := range p.items {
		groupLevel(it.Expr)
	}
	if p.having != nil {
		groupLevel(p.having)
	}
	for _, o := range p.order {
		groupLevel(o.Expr)
	}
	for _, m := range late {
		if m {
			return late
		}
	}
	return nil
}

// expr resolves one expression against the first width columns of the
// relation: column references get their index, window calls and subqueries
// their slot. With aliases (GROUP BY, HAVING) a bare name that is no
// relation column but names a select item becomes that item's expression —
// except under an aggregate, whose arguments read the group's rows. Only
// such a substitution makes the result differ from e.
func (r *resolver) expr(e Expr, width int, aliases []SelectItem) Expr {
	return rewriteExpr(e, func(e Expr) (Expr, bool) {
		switch x := e.(type) {
		case *ColumnRef:
			if i := r.schema.findColumn(x, width); i >= 0 {
				x.idx = i
				if r.used != nil {
					r.used[i] = true
				}
				return x, false
			}
			if x.Table == "" {
				for _, it := range aliases {
					if strings.EqualFold(it.OutputName(), x.Name) {
						return it.Expr, false
					}
				}
			}
			r.fail(errUnknownColumn(x))
		case *FuncCall:
			if x.Over != nil {
				x.slot = r.windowSlot(x)
			} else if aliases != nil && isAggregate(x.Name) {
				for _, a := range x.Args {
					r.expr(a, width, nil)
				}
				return x, false
			}
		case *Subquery:
			x.slot = r.subquery(x, x.Stmt, true)
		case *In:
			if x.Sub != nil {
				x.slot = r.subquery(x, x.Sub, false)
			}
		}
		return e, true
	})
}

// windowSlot numbers a window call, by node: ORDER BY reaches a select
// item's call a second time through its alias or position.
func (r *resolver) windowSlot(fn *FuncCall) int {
	for i, w := range r.p.wins {
		if w == fn {
			return i
		}
	}
	r.p.wins = append(r.p.wins, fn)
	return len(r.p.wins) - 1
}

// subquery resolves a nested statement — a scope of its own, against its
// own FROM — and numbers it, by node like windowSlot.
func (r *resolver) subquery(node Expr, stmt *SelectStmt, scalar bool) int {
	for i, seen := range r.subs {
		if seen == node {
			return i
		}
	}
	sub, err := r.c.resolve(stmt)
	if err == nil && len(sub.items) != 1 {
		err = fmt.Errorf("sql: subquery must return exactly one column, got %d", len(sub.items))
	}
	if err != nil {
		r.fail(err)
		return 0
	}
	sub.scalar = scalar
	r.subs = append(r.subs, node)
	r.p.subs = append(r.p.subs, sub)
	return len(r.subs) - 1
}

// expandItems expands the select list's * and t.* to one item per column.
func expandItems(stmt *SelectStmt, s *relSchema) ([]SelectItem, error) {
	var items []SelectItem
	for _, it := range stmt.Items {
		ref, isRef := it.Expr.(*ColumnRef)
		_, isStar := it.Expr.(Star)
		if !isStar && !(isRef && ref.Name == "*") {
			items = append(items, it)
			continue
		}
		before := len(items)
		for i := range s.names {
			if isStar || s.quals[i] == strings.ToLower(ref.Table) {
				items = append(items, SelectItem{
					Expr:  &ColumnRef{Table: s.quals[i], Name: s.disp[i]},
					Alias: s.disp[i],
				})
			}
		}
		if isRef && len(items) == before {
			return nil, errUnknownColumn(ref)
		}
	}
	return items, nil
}

// orderExprs resolves ORDER BY items to evaluable expressions, honoring
// select-list aliases and 1-based positions.
func orderExprs(stmt *SelectStmt, items []SelectItem) []OrderItem {
	resolved := make([]OrderItem, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		resolved[i] = o
		if lit, ok := o.Expr.(*Literal); ok && lit.Value.Kind == table.KindInt {
			pos := int(lit.Value.I)
			if pos >= 1 && pos <= len(items) {
				resolved[i].Expr = items[pos-1].Expr
			}
			continue
		}
		if ref, ok := o.Expr.(*ColumnRef); ok && ref.Table == "" {
			for _, it := range items {
				if strings.EqualFold(it.OutputName(), ref.Name) {
					resolved[i].Expr = it.Expr
					break
				}
			}
		}
	}
	return resolved
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

// observedAfter returns the joined relation's columns the statement still
// observes once WHERE conjuncts ran ahead of the joins and only rest (nil
// for none) remains of it.
func (p *plan) observedAfter(rest Expr) []bool {
	keep := append([]bool(nil), p.keepSansWhere...)
	if rest != nil {
		walkExpr(rest, func(e Expr) bool {
			if ref, ok := e.(*ColumnRef); ok {
				keep[ref.idx] = true
			}
			return true
		})
	}
	return keep
}
