package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"datalab/internal/table"
)

// Catalog is a named collection of tables — the engine's database. Each
// table is held as a *table.Appender: an ingest write head publishing
// immutable snapshots. The catalog mutex guards only the name→appender map
// (Register/lookup); data access is lock-free — every query loads the
// snapshot current at plan time and keeps reading exactly those rows while
// ingest appends and publishes concurrently. Open Result cursors pin their
// snapshot the same way.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*table.Appender
	order  []string
	reg    RegisterHook

	plans *planCache
}

// RegisterHook observes table registrations for durability layers. The
// catalog calls it with the freshly built appender before the table
// becomes visible to queries; a non-nil error aborts the registration
// (the previous table, if any, stays in place). The hook is responsible
// for logging the registration and installing the appender's publish
// hook so subsequent chunk seals are durable too.
type RegisterHook func(app *table.Appender) error

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*table.Appender{}, plans: newPlanCache(DefaultPlanCacheSize)}
}

// Register adds (or replaces) a table under its own name, adopting its
// columns as the ingest arena (the caller must stop mutating t). Queries
// already holding the previous table's snapshot keep reading it
// unaffected. Every plan resolved against the previous table re-resolves
// on its next execution (Catalog.current); replacing a table with a
// different schema (column names or kinds) also clears the plan cache,
// observable via PlanCacheStats.
func (c *Catalog) Register(t *table.Table) {
	c.RegisterErr(t) //nolint:errcheck // memory-only catalogs never fail; durable callers use RegisterErr
}

// RegisterErr is Register with the durability error surfaced: when a
// register hook is installed (a durable catalog) and it fails to make the
// registration durable, the catalog is left unchanged and the error is
// reported. Memory-only catalogs never return an error.
func (c *Catalog) RegisterErr(t *table.Table) error {
	app := table.NewAppender(t)
	c.mu.RLock()
	hook := c.reg
	c.mu.RUnlock()
	if hook != nil {
		if err := hook(app); err != nil {
			return err
		}
	}
	c.RegisterAppender(app)
	return nil
}

// RegisterAppender adopts an existing write head under its own name —
// the recovery path: WAL replay rebuilds appenders at their recovered
// snapshot versions and hands them to the catalog without re-logging.
func (c *Catalog) RegisterAppender(app *table.Appender) {
	c.mu.Lock()
	key := strings.ToLower(app.Name())
	prev, exists := c.tables[key]
	if !exists {
		c.order = append(c.order, key)
	}
	c.tables[key] = app
	c.mu.Unlock()
	if exists && !sameSchema(prev.Snapshot(), app.Snapshot()) {
		c.plans.invalidate()
	}
}

// SetRegisterHook installs (or, with nil, removes) the durability hook
// called by every subsequent Register/RegisterErr.
func (c *Catalog) SetRegisterHook(h RegisterHook) {
	c.mu.Lock()
	c.reg = h
	c.mu.Unlock()
}

func sameSchema(a, b *table.Snapshot) bool {
	an, ak := a.Schema()
	bn, bk := b.Schema()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if !strings.EqualFold(an[i], bn[i]) || ak[i] != bk[i] {
			return false
		}
	}
	return true
}

// Appender returns the table's ingest write head, looked up
// case-insensitively, a trailing "db." qualifier accepted: Append batches
// rows into the pending chunk, Publish makes them visible to subsequent
// queries in one atomic snapshot swap.
func (c *Catalog) Appender(name string) (*table.Appender, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	key := strings.ToLower(name)
	if a, ok := c.tables[key]; ok {
		return a, true
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		if a, ok := c.tables[key[i+1:]]; ok {
			return a, true
		}
	}
	return nil, false
}

// Snapshot returns the table's current published snapshot. This is the
// read-side entry point both executors use: acquiring the snapshot is one
// atomic load, and everything derived from it (column views, selections,
// Result cursors) stays consistent with that snapshot regardless of
// concurrent ingest.
func (c *Catalog) Snapshot(name string) (*table.Snapshot, bool) {
	a, ok := c.Appender(name)
	if !ok {
		return nil, false
	}
	return a.Snapshot(), true
}

// Table returns the table's current snapshot as a flat read-only table —
// the compatibility view over Snapshot for callers that want a *Table.
func (c *Catalog) Table(name string) (*table.Table, bool) {
	s, ok := c.Snapshot(name)
	if !ok {
		return nil, false
	}
	return s.Table(), true
}

// TableNames returns registered table names in registration order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.order))
	for _, k := range c.order {
		names = append(names, c.tables[k].Name())
	}
	return names
}

// QueryCtx plans and executes a SELECT, honoring ctx cancellation, and
// returns its typed batch-iterable Result — the engine's query entry point.
// The text is fingerprinted to a parameter template first (see
// Fingerprint), so literal-varying traffic shares one plan-cache entry and
// repeated templates parse and resolve once. A trace on ctx (WithTrace)
// has the plan and every execution stage marked on it.
func (c *Catalog) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	t := traceFrom(ctx)
	p, binds, err := c.planQuery(sql)
	t.Mark(StagePlan, 0)
	if err != nil {
		return nil, err
	}
	return executeResultBound(ctx, p, binds, t)
}

func errAggInRowContext(fn *FuncCall) error {
	return fmt.Errorf("sql: aggregate %s in row context (missing GROUP BY?)", fn.Name)
}

// vrel is the vectorized executor's working representation: column vectors,
// addressed by the indexes the plan's column references carry. Base-table
// scans share storage with the catalog tables (zero copy); the columns must
// be treated as read-only. x is the execution's arguments, carried on the
// relation so cached plans stay shared across executions.
type vrel struct {
	cols  []table.Column
	nrows int
	x     *execArgs
	// win holds the precomputed window-function columns for the current
	// projection, by the call's slot and indexed by selection position. Set
	// by the window stage.
	win []table.Column
	// grp makes this a relation of groups, with no cols of its own: row g
	// is group g of grp.base. Set by the group stage.
	grp *vgroups
	// late holds, by column index, the columns a join left as its pairs
	// (plan.late); their cols entries are placeholders. nil when none.
	late []pairCol
}

// lateCol returns column ci's pairs when a join left it as them, else nil.
func (r *vrel) lateCol(ci int) *pairCol {
	if r.late == nil || r.late[ci].src == nil {
		return nil
	}
	return &r.late[ci]
}

// vrelFrom builds the scan relation over a table — a snapshot's flat view.
// The relation's columns are zero-copy views of the snapshot's storage, so
// the whole downstream pipeline — selections, joins, lazy Results — keeps
// reading this snapshot even as ingest publishes newer ones.
func vrelFrom(t *table.Table, x *execArgs) *vrel {
	return &vrel{cols: append([]table.Column(nil), t.Columns...), nrows: t.NumRows(), x: x}
}

// executeResultBound is the shared execution core behind QueryCtx and
// Prepared.Exec: it runs a plan with the execution's parameter bindings,
// marking its stages on t (nil: untraced). A cancelled ctx stops a large
// scan, sort or aggregation within one worker-pool chunk's work.
func executeResultBound(ctx context.Context, p *plan, binds []table.Value, t *Trace) (*Result, error) {
	x, err := start(ctx, p, binds, t, executePlan)
	if err != nil {
		return nil, err
	}
	return executePlan(ctx, p, x)
}

// executePlan is the vectorized executor, the engine's subqueries' too. It
// walks the plan's stage list, threading one execState through it, and
// marks each stage on the trace as it ends, here and nowhere else: with
// the rows the stage hands on, or with none when it fails. ctx is checked
// after every stage, so a cancellation fails the stage it ended, and a
// failed statement's time is charged to the stage it came from.
func executePlan(ctx context.Context, p *plan, x *execArgs) (*Result, error) {
	// Snapshot acquisition happens here, once per referenced table: a
	// single atomic load pins the rows this execution (and any Result
	// cursor it hands out) will ever see.
	s := execState{p: p, rel: vrelFrom(p.apps[0].Snapshot().Table(), x), where: p.stmt.Where, keep: p.keep}
	s.rights = make([]*vrel, 0, len(p.apps)-1)
	for _, app := range p.apps[1:] {
		s.rights = append(s.rights, vrelFrom(app.Snapshot().Table(), x))
	}
	for i := range p.stages {
		st := &p.stages[i]
		rows, err := s.run(ctx, st)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			rows = 0
		}
		x.trace.Mark(st.stage, rows)
		if err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// execState is what an execution's stages hand each other: the working
// relation and its selected rows (nil: all), of groups after the group
// stage; then cols, the select list's columns and the ORDER BY keys, one
// cell per output row, and the Result.
type execState struct {
	p      *plan
	rel    *vrel // its x is the execution's arguments
	sel    *table.Selection
	rights []*vrel // each JOIN's table
	where  Expr    // what of the WHERE is still to run
	keep   []bool  // the columns observed after the joins
	cols   []table.Column
	res    *Result
}

// run runs one stage and returns the rows it hands on.
func (s *execState) run(ctx context.Context, st *step) (int, error) {
	switch st.stage {
	case StageScanFilter:
		if !st.ahead {
			return s.filter(ctx, st)
		}
		// The WHERE's leading comparisons run ahead of the joins
		// (filterBeforeJoins). The rows they keep are the joins' input, not
		// the filtered relation's, so the stage hands on none.
		early, rest, err := filterBeforeJoins(ctx, s.rel, s.where)
		if early != nil {
			// Comparisons that already ran observe no column any more.
			s.where, s.keep = rest, s.p.observedAfter(rest)
			s.rel = restrictRel(s.rel, early, s.p.withOn(s.keep, 0))
		}
		return 0, err
	case StageJoin:
		rel, err := joinVRel(ctx, s.rel, s.rights[st.join], s.p.stmt.Joins[st.join], s.p.withOn(s.keep, st.join+1), st.late)
		if err != nil {
			return 0, err
		}
		s.rel = rel
		return rel.nrows, nil
	case StageGroup:
		return s.group(ctx, st)
	case StageWindow:
		// Item and ORDER BY expressions read the columns through rel.win.
		win, err := computeWindowsVec(ctx, s.p.wins, s.rel, s.sel)
		s.rel.win = win
		return selLen(s.rel, s.sel), err
	case StageProject:
		n := selLen(s.rel, s.sel)
		cols, err := evalVecs(st.exprs, s.rel, s.sel)
		s.cols, s.sel = cols, nil
		return n, err
	case StageSort:
		return s.sort(ctx)
	}
	return s.finish(ctx, st)
}

// filter runs what is left of the WHERE, then the LIMIT pushdown: without
// grouping, ordering, DISTINCT or windows (step.pushdown), only the first
// OFFSET+LIMIT selected rows can reach the output, so the selection is
// truncated, without a copy when in span form, and a computed column is
// evaluated on those rows only. Window frames span the full filtered set,
// so truncating first would change their values.
func (s *execState) filter(ctx context.Context, st *step) (int, error) {
	if s.where != nil {
		sel, err := filterWhere(ctx, s.rel, s.where)
		if err != nil {
			return 0, err
		}
		s.sel = sel
	}
	if keep, bounded := s.rel.x.limitReach(); bounded && st.pushdown {
		if s.sel == nil {
			s.sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: min(keep, s.rel.nrows)})
		} else {
			s.sel = s.sel.Truncate(keep)
		}
	}
	return selLen(s.rel, s.sel), nil
}

// group gives each selected row its group's id, through the build rows
// when the sole key is a column the join left as its pairs (groupThrough),
// and makes the working relation the relation of groups (vrel.grp) with
// the groups HAVING keeps selected. An aggregate folds when an expression
// over that relation reads it.
func (s *execState) group(ctx context.Context, st *step) (int, error) {
	var groups *vgroups
	var err error
	if st.pairKey >= 0 {
		groups, err = groupThrough(ctx, s.rel.lateCol(st.pairKey), s.rel, s.sel)
	} else {
		var keyCols []table.Column
		if keyCols, err = evalVecs(st.exprs, s.rel, s.sel); err == nil {
			groups, err = groupRows(ctx, keyCols, s.rel, s.sel)
		}
	}
	if err != nil {
		return 0, err
	}
	s.rel, s.sel = &vrel{nrows: len(groups.counts), x: s.rel.x, grp: groups}, nil
	if st.having != nil {
		hv, err := evalVec(st.having, s.rel, nil)
		if err != nil {
			return 0, err
		}
		s.sel = passSelection(&hv, nil)
	}
	return selLen(s.rel, s.sel), nil
}

// sort orders the output columns by the ORDER BY key columns after them,
// through rowOrder's comparator. Only the first LIMIT+OFFSET rows of the
// order can reach the output, so only those are ordered (the heap must
// retain the OFFSET rows too — finish drops them). DISTINCT disables the
// bound: deduplication runs after ordering, and dropped duplicates would
// pull rows from beyond it.
func (s *execState) sort(ctx context.Context) (int, error) {
	order := s.p.order
	out, keys := s.cols[:len(s.cols)-len(order)], s.cols[len(s.cols)-len(order):]
	n := keys[0].Len()
	keep, bounded := s.rel.x.limitReach()
	if !bounded || s.p.stmt.Distinct {
		keep = n
	}
	perm, err := topKPerm(ctx, keys, order, n, keep)
	if err != nil {
		return 0, err
	}
	for i := range out {
		out[i] = out[i].Gather(perm, nil)
	}
	s.cols = out
	return n, nil
}

// finish is every execution's one tail. The output rows are the rows sel
// selects of cols (every row when sel is nil): the projection's columns,
// or, with no project stage, the relation's own columns the bare items
// name under the WHERE selection, zero-copy. DISTINCT keeps the first row
// of each groupKeys group of the output rows — the groups come in
// first-appearance order, so those rows ascend — and OFFSET/LIMIT drop and
// truncate the selection. No output column is copied.
func (s *execState) finish(ctx context.Context, st *step) (int, error) {
	p, x, cols, sel := s.p, s.rel.x, s.cols, s.sel
	if st.lazy {
		cols = make([]table.Column, len(p.items))
		for i, it := range p.items {
			cols[i] = s.rel.cols[it.Expr.(*ColumnRef).idx]
		}
	}
	for i, name := range p.names {
		if cols[i].Kind == table.KindNull { // a column no operand typed is TEXT, its NULLs in string storage
			cols[i] = nullColumn(table.KindString, cols[i].Len())
		}
		cols[i].Name = name
	}
	n := sel.Len()
	if sel == nil && len(cols) > 0 {
		n = cols[0].Len()
	}
	if p.stmt.Distinct {
		keys := cols
		if sel != nil {
			keys = make([]table.Column, len(cols))
			for i := range cols {
				keys[i] = cols[i].GatherSel(sel)
			}
		}
		gr, err := groupKeys(ctx, keys, n)
		if err != nil {
			return 0, err
		}
		rowsOf(sel, gr.firsts)
		sel, n = table.NewIndexSelection(gr.firsts), len(gr.firsts)
	}
	if x.offset > 0 || x.limit >= 0 {
		if sel == nil {
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: n})
		}
		sel = sel.Drop(x.offset)
		if x.limit >= 0 {
			sel = sel.Truncate(x.limit)
		}
	}
	// The Result's name list is the caller's to keep; the plan's is shared.
	s.res = newResult(append([]string(nil), p.names...), cols, sel)
	return s.res.NumRows(), nil
}

func iotaInts(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func selectHasAggregate(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	return anyExpr(e, func(e Expr) (bool, bool) {
		fn, ok := e.(*FuncCall)
		if !ok {
			return false, true
		}
		// A window call is not a grouping aggregate, and its arguments
		// and spec cannot contain one (rejected at parse time).
		return fn.Over == nil && isAggregate(fn.Name), fn.Over == nil
	})
}

// evalVecs evaluates each of exprs over the selected rows of rel.
func evalVecs(exprs []Expr, rel *vrel, sel *table.Selection) ([]table.Column, error) {
	cols := make([]table.Column, len(exprs))
	for c, e := range exprs {
		col, err := evalVec(e, rel, sel)
		if err != nil {
			return nil, err
		}
		cols[c] = col
	}
	return cols, nil
}

// limitReach returns how many leading rows LIMIT k OFFSET m lets reach the
// output, k+m, and whether that bounds anything: it does not without a
// LIMIT, nor when the sum overflows (no relation holds that many rows).
func (x *execArgs) limitReach() (int, bool) {
	if x.limit < 0 {
		return 0, false
	}
	keep := x.limit + x.offset
	return keep, keep >= 0
}
