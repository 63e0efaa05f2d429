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
// unaffected. Replacing a table with a different schema (column names or
// kinds) clears the plan cache: cached statements are plain ASTs, but
// callers comparing Prepared results across a schema change deserve a
// clean slate, and the invalidation is observable via PlanCacheStats.
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
	return c.registerAppender(app)
}

// RegisterAppender adopts an existing write head under its own name —
// the recovery path: WAL replay rebuilds appenders at their recovered
// snapshot versions and hands them to the catalog without re-logging.
func (c *Catalog) RegisterAppender(app *table.Appender) {
	c.registerAppender(app) //nolint:errcheck // always nil today; signature shared with RegisterErr
}

// SetRegisterHook installs (or, with nil, removes) the durability hook
// called by every subsequent Register/RegisterErr.
func (c *Catalog) SetRegisterHook(h RegisterHook) {
	c.mu.Lock()
	c.reg = h
	c.mu.Unlock()
}

func (c *Catalog) registerAppender(app *table.Appender) error {
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
	return nil
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

// appender looks up a table's write head case-insensitively, also
// accepting a trailing "db." qualifier.
func (c *Catalog) appender(name string) (*table.Appender, bool) {
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

// Appender returns the table's ingest write head for streaming use:
// Append batches rows into the pending chunk, Publish makes them visible
// to subsequent queries in one atomic snapshot swap.
func (c *Catalog) Appender(name string) (*table.Appender, bool) {
	return c.appender(name)
}

// Snapshot returns the table's current published snapshot. This is the
// read-side entry point both executors use: acquiring the snapshot is one
// atomic load, and everything derived from it (column views, selections,
// Result cursors) stays consistent with that snapshot regardless of
// concurrent ingest.
func (c *Catalog) Snapshot(name string) (*table.Snapshot, bool) {
	a, ok := c.appender(name)
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

// Append appends rows to a registered table and publishes one new
// snapshot — the convenience path for small ingest batches. Streaming
// callers that want to batch across calls should use Appender directly
// and choose their own Publish points.
func (c *Catalog) Append(name string, rows ...[]table.Value) error {
	a, ok := c.appender(name)
	if !ok {
		return fmt.Errorf("sql: unknown table %q", name)
	}
	if err := a.Append(rows...); err != nil {
		return err
	}
	_, err := a.PublishErr()
	return err
}

// Freeze returns a new catalog pinned to the snapshot every table is
// currently publishing. Queries against the frozen catalog keep returning
// identical results no matter how much ingest lands on the original —
// the snapshot-immutability property the differential fuzz battery
// replays queries against.
func (c *Catalog) Freeze() *Catalog {
	nc := NewCatalog()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, k := range c.order {
		nc.Register(c.tables[k].Snapshot().Table())
	}
	return nc
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

// Query parses and executes a SELECT against the catalog using the
// vectorized executor, returning a fully materialized table. The text is
// fingerprinted to a parameter template first (see Fingerprint), so
// literal-varying traffic shares one plan-cache entry and repeated
// templates parse once.
func (c *Catalog) Query(sql string) (*table.Table, error) {
	stmt, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return c.executeCtxBound(context.Background(), stmt, binds)
}

// QueryCtx parses (through fingerprinting and the plan cache, like Query)
// and executes a SELECT, honoring ctx cancellation, and returns a typed
// batch-iterable Result instead of a materialized table — the primary
// query entry point.
func (c *Catalog) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	stmt, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return c.executeResultBound(ctx, stmt, binds)
}

// relSchema is the column metadata shared by the vectorized and scalar
// executors: qualifier, lowercased name, display name and kind per column.
type relSchema struct {
	quals []string // lowercased table alias/name per column
	names []string // lowercased column name per column
	disp  []string // display name per column (original case)
	kinds []table.Kind
}

func schemaFrom(t *table.Table, qual string) relSchema {
	var s relSchema
	q := strings.ToLower(qual)
	for i := range t.Columns {
		s.quals = append(s.quals, q)
		s.names = append(s.names, strings.ToLower(t.Columns[i].Name))
		s.disp = append(s.disp, t.Columns[i].Name)
		s.kinds = append(s.kinds, t.Columns[i].Kind)
	}
	return s
}

func concatSchemas(l, r *relSchema) relSchema {
	return relSchema{
		quals: append(append([]string{}, l.quals...), r.quals...),
		names: append(append([]string{}, l.names...), r.names...),
		disp:  append(append([]string{}, l.disp...), r.disp...),
		kinds: append(append([]table.Kind{}, l.kinds...), r.kinds...),
	}
}

// findColumn resolves a reference to a column index; -1 when absent.
// Ambiguous unqualified references resolve to the first match, matching
// the lenient behaviour benchmark queries rely on.
func (s *relSchema) findColumn(ref *ColumnRef) int {
	name := strings.ToLower(ref.Name)
	qual := strings.ToLower(ref.Table)
	for i := range s.names {
		if s.names[i] != name {
			continue
		}
		if qual == "" || s.quals[i] == qual {
			return i
		}
	}
	return -1
}

func errUnknownColumn(ref *ColumnRef) error {
	return fmt.Errorf("sql: unknown column %q", ref.SQL())
}

func errAggInRowContext(fn *FuncCall) error {
	return fmt.Errorf("sql: aggregate %s in row context (missing GROUP BY?)", fn.Name)
}

// vrel is the vectorized executor's working representation: shared schema
// plus column vectors. Base-table scans share storage with the catalog
// tables (zero copy); the columns must be treated as read-only. binds is
// the execution's parameter bindings (nil without placeholders), carried
// on the relation so cached statements stay shared across executions.
type vrel struct {
	relSchema
	cols  []table.Column
	nrows int
	binds []table.Value
	// win holds the precomputed window-function columns for the current
	// projection, keyed by AST node pointer and indexed by selection
	// position. Set by executePlainVec before item evaluation.
	win map[*FuncCall]table.Column
}

func vrelFrom(t *table.Table, qual string) *vrel {
	r := &vrel{relSchema: schemaFrom(t, qual), nrows: t.NumRows()}
	r.cols = append(r.cols, t.Columns...)
	return r
}

// vrelFromSnapshot builds the scan relation over a table snapshot. The
// relation's columns are zero-copy views of the snapshot's storage, so
// the whole downstream pipeline — selections, joins, lazy Results —
// keeps reading this snapshot even as ingest publishes newer ones.
func vrelFromSnapshot(s *table.Snapshot, qual string) *vrel {
	return vrelFrom(s.Table(), qual)
}

// Execute runs a parsed statement against the catalog with the vectorized
// engine: columnar scans, selection-vector filtering, hash joins for
// equi-join conditions and hash aggregation, parallelized over row and
// group partitions through the bounded worker pool. Statements with
// placeholders must execute through Prepared.Exec/Bind (or Query, which
// binds its own extracted literals); here they fail with an
// unbound-parameter error.
func (c *Catalog) Execute(stmt *SelectStmt) (*table.Table, error) {
	return c.executeCtxBound(context.Background(), stmt, nil)
}

// executeCtxBound is Execute with cancellation and the execution's
// parameter bindings: ctx is observed between pipeline stages and between
// worker-pool chunks, so a cancelled context stops a large scan, sort, or
// aggregation within one chunk's worth of work and returns ctx.Err().
func (c *Catalog) executeCtxBound(ctx context.Context, stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	stmt, err := c.resolveInline(ctx, stmt, binds, false)
	if err != nil {
		return nil, err
	}
	return c.executeVecStmt(ctx, stmt, binds)
}

// resolveInline is the prologue every top-level execution shares: check
// and resolve the bindings into the statement, then inline its subqueries
// with the engine (scalar or vectorized) that runs the outer statement.
func (c *Catalog) resolveInline(ctx context.Context, stmt *SelectStmt, binds []table.Value, scalar bool) (*SelectStmt, error) {
	stmt, err := resolveBinds(stmt, binds)
	if err != nil {
		return nil, err
	}
	return c.inlineSubqueries(ctx, stmt, binds, scalar)
}

// executeVecStmt is the vectorized execution body after bind resolution
// and subquery inlining — shared with subquery execution, like its scalar
// counterpart executeScalarStmt.
func (c *Catalog) executeVecStmt(ctx context.Context, stmt *SelectStmt, binds []table.Value) (*table.Table, error) {
	rel, sel, grouped, err := c.scanFilter(ctx, stmt, binds)
	if err != nil {
		return nil, err
	}
	return executeMaterialized(ctx, stmt, rel, sel, grouped)
}

// executeMaterialized is the shared execution tail after scanFilter: the
// grouped or plain projection, then DISTINCT/OFFSET/LIMIT.
func executeMaterialized(ctx context.Context, stmt *SelectStmt, rel *vrel, sel *table.Selection, grouped bool) (*table.Table, error) {
	var out *table.Table
	var err error
	if grouped {
		out, err = executeGroupedVec(ctx, stmt, rel, sel)
	} else {
		out, err = executePlainVec(ctx, stmt, rel, sel)
	}
	if err != nil {
		return nil, err
	}
	return applyDistinctOffsetLimit(stmt, out), nil
}

// executeResultBound is the shared execution core behind QueryCtx,
// Prepared.Exec and Bound.Exec: it runs a parsed statement with the
// execution's parameter bindings and returns a typed Result. Plain
// projections of bare columns (no grouping, ordering, or DISTINCT) stay
// lazy: the Result holds zero-copy references to the relation's columns
// plus the WHERE selection, with OFFSET/LIMIT applied as selection
// arithmetic — no output is materialized at all. Every other shape runs
// the materializing executor and wraps its output table.
func (c *Catalog) executeResultBound(ctx context.Context, stmt *SelectStmt, binds []table.Value) (*Result, error) {
	stmt, err := c.resolveInline(ctx, stmt, binds, false)
	if err != nil {
		return nil, err
	}
	rel, sel, grouped, err := c.scanFilter(ctx, stmt, binds)
	if err != nil {
		return nil, err
	}
	if !grouped {
		if res, ok := lazyResult(stmt, rel, sel); ok {
			return res, nil
		}
	}
	out, err := executeMaterialized(ctx, stmt, rel, sel, grouped)
	if err != nil {
		return nil, err
	}
	return newTableResult(out), nil
}

// scanFilter runs the shared pipeline prefix: scan, joins, WHERE filtering,
// and LIMIT pushdown. It returns the working relation, the selection of
// surviving rows (nil = all), and whether the query is grouped.
func (c *Catalog) scanFilter(ctx context.Context, stmt *SelectStmt, binds []table.Value) (*vrel, *table.Selection, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	// Snapshot acquisition happens here, once per referenced table: a
	// single atomic load pins the rows this execution (and any Result
	// cursor it hands out) will ever see.
	base, ok := c.Snapshot(stmt.From)
	if !ok {
		return nil, nil, false, fmt.Errorf("sql: unknown table %q", stmt.From)
	}
	qual := stmt.From
	if stmt.FromAs != "" {
		qual = stmt.FromAs
	}
	rel := vrelFromSnapshot(base, qual)
	rel.binds = binds

	where := stmt.Where
	if len(stmt.Joins) > 0 {
		rights := make([]*vrel, len(stmt.Joins))
		for i, j := range stmt.Joins {
			rt, ok := c.Snapshot(j.Table)
			if !ok {
				return nil, nil, false, fmt.Errorf("sql: unknown table %q", j.Table)
			}
			jq := j.Table
			if j.Alias != "" {
				jq = j.Alias
			}
			rights[i] = vrelFromSnapshot(rt, jq)
		}
		var early *table.Selection
		if where != nil {
			var err error
			early, where, err = filterBeforeJoins(ctx, rel, rights, stmt.Joins, where)
			if err != nil {
				return nil, nil, false, err
			}
		}
		// Comparisons that already ran observe no column any more.
		remaining := *stmt
		remaining.Where = where
		keep := referencedOutputColumns(&remaining)
		if early != nil {
			rel = restrictRel(rel, early, keep)
		}
		for i, j := range stmt.Joins {
			var err error
			rel, err = joinVRel(ctx, rel, rights[i], j, keep)
			if err != nil {
				return nil, nil, false, err
			}
		}
	}

	var sel *table.Selection // nil = all rows
	if where != nil {
		var err error
		sel, err = filterWhere(ctx, rel, where)
		if err != nil {
			return nil, nil, false, err
		}
	}

	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil || selectHasAggregate(stmt)
	// LIMIT pushdown: without grouping, ordering, or DISTINCT, only the
	// first OFFSET+LIMIT selected rows can reach the output, so truncate
	// the selection before projecting instead of materializing and then
	// slicing. Span-form selections truncate without copying. Window
	// functions disable the pushdown: their frames span the full filtered
	// set, so truncating first would change their values.
	if keep, bounded := limitReach(stmt); bounded && !grouped && len(stmt.OrderBy) == 0 && !stmt.Distinct && !selectHasWindow(stmt) {
		if sel == nil {
			if keep > rel.nrows {
				keep = rel.nrows
			}
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: keep})
		} else {
			sel = sel.Truncate(keep)
		}
	}
	return rel, sel, grouped, ctx.Err()
}

// lazyResult builds a zero-copy Result for a plain projection of bare
// columns: no DISTINCT, no ORDER BY, every select item a resolvable column
// reference of a typed kind. ok=false sends every other shape (including
// unknown-column errors, for exact error parity) to the materializing path.
func lazyResult(stmt *SelectStmt, rel *vrel, sel *table.Selection) (*Result, bool) {
	if stmt.Distinct || len(stmt.OrderBy) > 0 {
		return nil, false
	}
	items := expandItems(stmt, &rel.relSchema)
	names := outputNames(items)
	cols := make([]table.Column, len(items))
	for i, it := range items {
		ref, ok := it.Expr.(*ColumnRef)
		if !ok {
			return nil, false
		}
		ci := rel.findColumn(ref)
		if ci < 0 || rel.cols[ci].Kind == table.KindNull {
			// Unknown columns error on the materializing path; KindNull
			// columns are rebuilt as TEXT there (orderedOutput).
			return nil, false
		}
		cols[i] = rel.cols[ci]
		cols[i].Name = names[i]
	}
	// OFFSET drops leading selected rows; LIMIT was already pushed down
	// into the selection by scanFilter when set (keeping OFFSET+LIMIT rows).
	if stmt.Offset > 0 {
		if sel == nil {
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: rel.nrows})
		}
		sel = sel.Drop(stmt.Offset)
	}
	return newLazyResult(names, cols, sel), true
}

func applyDistinctOffsetLimit(stmt *SelectStmt, out *table.Table) *table.Table {
	if stmt.Distinct {
		out = out.Distinct()
	}
	if stmt.Offset > 0 {
		out = out.Slice(stmt.Offset, out.NumRows())
	}
	if stmt.Limit >= 0 {
		out = out.Limit(stmt.Limit)
	}
	return out
}

func iotaInts(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// --- projection ---

// projection expands select items (including * and t.*) to concrete exprs.
func expandItems(stmt *SelectStmt, s *relSchema) []SelectItem {
	var items []SelectItem
	for _, it := range stmt.Items {
		switch x := it.Expr.(type) {
		case Star:
			for i := range s.names {
				items = append(items, SelectItem{
					Expr:  &ColumnRef{Table: s.quals[i], Name: s.disp[i]},
					Alias: s.disp[i],
				})
			}
		case *ColumnRef:
			if x.Name == "*" {
				for i := range s.names {
					if s.quals[i] == strings.ToLower(x.Table) {
						items = append(items, SelectItem{
							Expr:  &ColumnRef{Table: s.quals[i], Name: s.disp[i]},
							Alias: s.disp[i],
						})
					}
				}
				continue
			}
			items = append(items, it)
		default:
			items = append(items, it)
		}
	}
	return items
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

// resolveHavingAliases rewrites bare column references in a HAVING clause
// that name a select-list alias (and no relation column) to that item's
// expression, copy-on-write. Relation columns take precedence over
// aliases, and references inside aggregate arguments are left alone —
// they resolve against the group's rows.
func resolveHavingAliases(e Expr, items []SelectItem, s *relSchema) Expr {
	return rewriteExpr(e, func(e Expr) (Expr, bool) {
		switch x := e.(type) {
		case *ColumnRef:
			if x.Table == "" && s.findColumn(x) < 0 {
				for _, it := range items {
					if strings.EqualFold(it.OutputName(), x.Name) {
						return it.Expr, false
					}
				}
			}
		case *FuncCall:
			return e, !isAgg2(x.Name)
		}
		return e, true
	})
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
		return fn.Over == nil && isAgg2(fn.Name), fn.Over == nil
	})
}

// executePlainVec projects the selected rows column-at-a-time.
func executePlainVec(ctx context.Context, stmt *SelectStmt, rel *vrel, sel *table.Selection) (*table.Table, error) {
	items := expandItems(stmt, &rel.relSchema)
	order := orderExprs(stmt, items)

	// Window columns are computed once over the full selection before any
	// item evaluation; item and ORDER BY expressions then read them via
	// rel.win (evalVec's FuncCall case and vecRowEnv.resolveWindow).
	if wins := statementWindows(items, order); len(wins) > 0 {
		win, err := computeWindowsVec(ctx, wins, rel, sel)
		if err != nil {
			return nil, err
		}
		rel.win = win
		defer func() { rel.win = nil }()
	}

	// A bare column evaluated with no selection or a single-range
	// selection is a zero-copy view of catalog storage; copy it so the
	// result table owns its data. With ORDER BY the Gather below already
	// produces fresh storage.
	sharesStorage := sel == nil
	if sel != nil {
		_, _, sharesStorage = sel.AsRange()
	}

	outCols := make([]table.Column, len(items))
	for i, it := range items {
		col, err := evalVec(it.Expr, rel, sel)
		if err != nil {
			return nil, err
		}
		if _, isRef := it.Expr.(*ColumnRef); isRef && sharesStorage && len(order) == 0 {
			col = col.CloneData()
		}
		outCols[i] = col
	}

	keyCols := make([]table.Column, len(order))
	for k, o := range order {
		col, err := evalVec(o.Expr, rel, sel)
		if err != nil {
			return nil, err
		}
		keyCols[k] = col
	}
	return orderedOutput(ctx, stmt, items, outCols, keyCols, order)
}

// orderedOutput is the vectorized executor's one output tail, shared by the
// plain and grouped projections: it orders the output columns by the ORDER
// BY key columns (one key per output row) and names the result. sortPerm
// and topKPerm choose between the memcmp kernel and the boxed fallback from
// what the key columns hold; DISTINCT/OFFSET/LIMIT follow in
// executeMaterialized.
func orderedOutput(ctx context.Context, stmt *SelectStmt, items []SelectItem, outCols, keyCols []table.Column, order []OrderItem) (*table.Table, error) {
	if len(order) > 0 {
		n := keyCols[0].Len()
		var perm []int
		var err error
		if keep, bounded := topKBound(stmt, n); bounded {
			perm, err = topKPerm(ctx, keyCols, order, n, keep)
		} else {
			perm, err = sortPerm(ctx, keyCols, order, n)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		for i := range outCols {
			outCols[i] = outCols[i].Gather(perm)
		}
	}
	names := outputNames(items)
	out := &table.Table{Name: stmt.From}
	for i := range outCols {
		outCols[i].Name = names[i]
		if outCols[i].Kind == table.KindNull {
			// All-NULL output columns default to TEXT, like the scalar path.
			// Rebuild rather than retag: a KindNull column has no typed
			// storage, so flipping Kind alone would break the storage
			// invariant and crash later slices.
			outCols[i] = table.ColumnOf(names[i], table.KindString, outCols[i].Values())
		}
		out.Columns = append(out.Columns, outCols[i])
	}
	return out, nil
}

// topKBound reports how many leading rows of the sorted order can reach
// the output: with ORDER BY ... LIMIT k OFFSET m, only the first k+m (the
// heap must retain the OFFSET rows too — they are discarded after the
// sort, not before). DISTINCT disables the bound, because deduplication
// runs after ordering and dropped duplicates would pull rows from beyond
// k+m into the window.
func topKBound(stmt *SelectStmt, n int) (int, bool) {
	keep, bounded := limitReach(stmt)
	if !bounded || stmt.Distinct || keep >= n { // no smaller than a full sort
		return 0, false
	}
	return keep, true
}

// limitReach returns how many leading rows LIMIT k OFFSET m lets reach the
// output, k+m, and whether that bounds anything: it does not without a
// LIMIT, nor when the sum overflows (no relation holds that many rows).
func limitReach(stmt *SelectStmt) (int, bool) {
	if stmt.Limit < 0 {
		return 0, false
	}
	keep := stmt.Limit + stmt.Offset
	return keep, keep >= 0
}

// --- grouping ---

// partitionRows is the vectorized engine's one row partitioner, behind
// both GROUP BY and PARTITION BY. keyCols hold one key per position
// 0..n-1; position i belongs to the i-th row of sel, or to row i when sel
// is nil. It returns the row lists of the distinct keys in first-appearance
// order, each ascending; NULL is a key like any other. A single typed
// int/string key hashes its raw values; every other shape (composite,
// float, boxed) hashes canonical Value.Key strings, built on the worker
// pool.
func partitionRows(ctx context.Context, keyCols []table.Column, sel *table.Selection, n int) ([][]int, error) {
	it := table.IterSelection(sel, n)
	if len(keyCols) == 1 {
		if is, nulls, ok := keyCols[0].Ints(); ok {
			return partitionByKey(is, nulls, &it), nil
		}
		if ss, nulls, ok := keyCols[0].Strings(); ok {
			return partitionByKey(ss, nulls, &it), nil
		}
	}
	keys := make([]string, n)
	err := parallelChunks(ctx, n, parallelMinRows, func(lo, hi int) error {
		var kb strings.Builder
		for i := lo; i < hi; i++ {
			kb.Reset()
			for k := range keyCols {
				kb.WriteString(keyCols[k].Value(i).Key())
				kb.WriteByte('\x1f')
			}
			keys[i] = kb.String()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return partitionByKey(keys, nil, &it), nil
}

// partitionByKey is partitionRows' hash loop: it assigns the rows it yields
// to their key's partition. nulls marks the positions whose key is NULL
// (nil = none); they form one partition of their own.
func partitionByKey[K comparable](keys []K, nulls []bool, it *table.SelectionIter) [][]int {
	m := make(map[K]int, 64)
	nullPart := -1
	var parts [][]int
	for i, k := range keys {
		r, _ := it.Next()
		var pi int
		if nulls != nil && nulls[i] {
			if nullPart < 0 {
				nullPart = len(parts)
				parts = append(parts, nil)
			}
			pi = nullPart
		} else {
			var ok bool
			if pi, ok = m[k]; !ok {
				pi = len(parts)
				m[k] = pi
				parts = append(parts, nil)
			}
		}
		parts[pi] = append(parts[pi], r)
	}
	return parts
}

// hashGroups partitions the selected rows by the GROUP BY key columns
// (indexed by selection position) into one selection of absolute rows per
// group, in first-appearance order. Keyed grouping scatters rows, so those
// groups are dense-form; with no key columns (global aggregates) the filter
// selection itself — or a single [0,n) span — is the one group, possibly
// empty, and nothing is materialized.
func hashGroups(ctx context.Context, keyCols []table.Column, rel *vrel, sel *table.Selection) ([]*table.Selection, error) {
	if len(keyCols) == 0 {
		if sel == nil {
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: rel.nrows})
		}
		return []*table.Selection{sel}, nil
	}
	parts, err := partitionRows(ctx, keyCols, sel, selLen(rel, sel))
	if err != nil {
		return nil, err
	}
	groups := make([]*table.Selection, len(parts))
	for i, rows := range parts {
		groups[i] = table.NewIndexSelection(rows)
	}
	return groups, ctx.Err()
}

// vGroupEnv evaluates expressions against one group of the columnar
// relation. Aggregates over bare columns run in typed loops over the
// group's selection (contiguous spans for the global group).
type vGroupEnv struct {
	rel  *vrel
	rows *table.Selection
}

func (e *vGroupEnv) resolveColumn(ref *ColumnRef) (table.Value, error) {
	i := e.rel.findColumn(ref)
	if i < 0 {
		return table.Null(), errUnknownColumn(ref)
	}
	if e.rows.Len() == 0 {
		return table.Null(), nil
	}
	return e.rel.cols[i].Value(e.rows.RowAt(0)), nil
}

func (e *vGroupEnv) resolveParam(p *Param) (table.Value, error) {
	return bindAt(e.rel.binds, p)
}

func (e *vGroupEnv) resolveWindow(fn *FuncCall) (table.Value, error) {
	return table.Null(), errWindowContext(fn)
}

func (e *vGroupEnv) resolveAggregate(fn *FuncCall) (table.Value, error) {
	if fn.IsStar {
		if fn.Name != "COUNT" {
			return table.Null(), fmt.Errorf("sql: %s(*) is not supported", fn.Name)
		}
		return table.Int(int64(e.rows.Len())), nil
	}
	if len(fn.Args) != 1 {
		return table.Null(), fmt.Errorf("sql: aggregate %s expects one argument", fn.Name)
	}
	if ref, ok := fn.Args[0].(*ColumnRef); ok && !fn.Distinct {
		i := e.rel.findColumn(ref)
		if i < 0 {
			return table.Null(), errUnknownColumn(ref)
		}
		return aggOverColumn(fn.Name, &e.rel.cols[i], e.rows)
	}
	// General case (expressions, DISTINCT): evaluate the argument per row.
	var vals []table.Value
	seen := map[string]bool{}
	env := &vecRowEnv{rel: e.rel}
	it := table.IterSelection(e.rows, 0)
	for {
		ri, ok := it.Next()
		if !ok {
			break
		}
		env.row = ri
		v, err := evalExpr(fn.Args[0], env)
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

// aggOverColumn computes an aggregate over a bare column in typed loops,
// without boxing each cell.
func aggOverColumn(name string, col *table.Column, rows *table.Selection) (table.Value, error) {
	switch name {
	case "COUNT":
		n := 0
		rows.ForEach(func(r int) {
			if !col.IsNullAt(r) {
				n++
			}
		})
		return table.Int(int64(n)), nil
	case "SUM", "AVG", "STDDEV", "MEDIAN":
		return finishNumericAggregate(name, gatherFloats(col, rows)), nil
	case "MIN", "MAX":
		return minMaxOverColumn(name, col, rows), nil
	}
	return table.Null(), fmt.Errorf("sql: unknown aggregate %s", name)
}

// gatherFloats extracts the float64 view of the non-NULL, numeric-
// convertible cells at the selected rows.
func gatherFloats(col *table.Column, rows *table.Selection) []float64 {
	out := make([]float64, 0, rows.Len())
	if fs, nulls, ok := col.Floats(); ok {
		rows.ForEach(func(r int) {
			if !nulls[r] {
				out = append(out, fs[r])
			}
		})
		return out
	}
	if is, nulls, ok := col.Ints(); ok {
		rows.ForEach(func(r int) {
			if !nulls[r] {
				out = append(out, float64(is[r]))
			}
		})
		return out
	}
	rows.ForEach(func(r int) {
		if f, ok := col.FloatAt(r); ok {
			out = append(out, f)
		}
	})
	return out
}

func minMaxOverColumn(name string, col *table.Column, rows *table.Selection) table.Value {
	want := -1 // MIN keeps values comparing below the best
	if name == "MAX" {
		want = 1
	}
	if fs, nulls, ok := col.Floats(); ok {
		best, found := 0.0, false
		rows.ForEach(func(r int) {
			if nulls[r] {
				return
			}
			if !found || (want < 0 && fs[r] < best) || (want > 0 && fs[r] > best) {
				best, found = fs[r], true
			}
		})
		if !found {
			return table.Null()
		}
		return table.Float(best)
	}
	if is, nulls, ok := col.Ints(); ok {
		var best int64
		found := false
		rows.ForEach(func(r int) {
			if nulls[r] {
				return
			}
			if !found || (want < 0 && is[r] < best) || (want > 0 && is[r] > best) {
				best, found = is[r], true
			}
		})
		if !found {
			return table.Null()
		}
		return table.Int(best)
	}
	best := table.Null()
	rows.ForEach(func(r int) {
		if col.IsNullAt(r) {
			return
		}
		v := col.Value(r)
		if best.IsNull() || table.Compare(v, best) == want {
			best = v
		}
	})
	return best
}

// executeGroupedVec groups the selected rows with a hash aggregator and
// evaluates HAVING, the select list and the ORDER BY keys per group, in
// parallel across group partitions for large inputs. The per-group values
// become columns, so ordering runs through the same tail as a plain
// projection.
func executeGroupedVec(ctx context.Context, stmt *SelectStmt, rel *vrel, sel *table.Selection) (*table.Table, error) {
	items := expandItems(stmt, &rel.relSchema)
	order := orderExprs(stmt, items)

	groupCols := make([]table.Column, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		col, err := evalVec(g, rel, sel)
		if err != nil {
			return nil, err
		}
		groupCols[i] = col
	}
	groups, err := hashGroups(ctx, groupCols, rel, sel)
	if err != nil {
		return nil, err
	}

	having := stmt.Having
	if having != nil {
		having = resolveHavingAliases(having, items, &rel.relSchema)
	}
	// One value vector per output column, then one per ORDER BY key, each
	// indexed by group: groups write disjoint cells, so the parallel
	// evaluation needs no synchronization.
	exprs := make([]Expr, 0, len(items)+len(order))
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range order {
		exprs = append(exprs, o.Expr)
	}
	vals := make([][]table.Value, len(exprs))
	for c := range vals {
		vals[c] = make([]table.Value, len(groups))
	}
	include := make([]bool, len(groups))
	evalGroup := func(gi int) error {
		ev := &vGroupEnv{rel: rel, rows: groups[gi]}
		if having != nil {
			hv, err := evalExpr(having, ev)
			if err != nil {
				return err
			}
			if b, ok := hv.AsBool(); !ok || !b {
				return nil
			}
		}
		for c, e := range exprs {
			v, err := evalExpr(e, ev)
			if err != nil {
				return err
			}
			vals[c][gi] = v
		}
		include[gi] = true
		return nil
	}

	if selLen(rel, sel) >= parallelMinRows && len(groups) > 1 {
		err = parallelChunks(ctx, len(groups), 1, func(lo, hi int) error {
			for gi := lo; gi < hi; gi++ {
				if err := evalGroup(gi); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		for gi := range groups {
			if err = evalGroup(gi); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}

	cols := make([]table.Column, len(exprs))
	for c, col := range vals {
		if having != nil {
			kept := col[:0]
			for gi, v := range col {
				if include[gi] {
					kept = append(kept, v)
				}
			}
			col = kept
		}
		cols[c] = columnOfValues(col)
	}
	return orderedOutput(ctx, stmt, items, cols[:len(items)], cols[len(items):], order)
}
