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
// templates parse and resolve once.
func (c *Catalog) Query(sql string) (*table.Table, error) {
	p, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return executeCtxBound(context.Background(), p, binds)
}

// QueryCtx plans (through fingerprinting and the plan cache, like Query)
// and executes a SELECT, honoring ctx cancellation, and returns a typed
// batch-iterable Result instead of a materialized table — the primary
// query entry point.
func (c *Catalog) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	p, binds, err := c.planQuery(sql)
	if err != nil {
		return nil, err
	}
	return executeResultBound(ctx, p, binds)
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
	// by executePlainVec before item evaluation.
	win []table.Column
}

// vrelFrom builds the scan relation over a table — a snapshot's flat view.
// The relation's columns are zero-copy views of the snapshot's storage, so
// the whole downstream pipeline — selections, joins, lazy Results — keeps
// reading this snapshot even as ingest publishes newer ones.
func vrelFrom(t *table.Table, x *execArgs) *vrel {
	return &vrel{cols: append([]table.Column(nil), t.Columns...), nrows: t.NumRows(), x: x}
}

// Execute runs a parsed statement against the catalog with the vectorized
// engine: columnar scans, selection-vector filtering, hash joins for
// equi-join conditions and hash aggregation, parallelized over row and
// group partitions through the bounded worker pool. The statement is
// resolved, uncached, on a copy; stmt itself is not touched. Statements
// with placeholders must execute through Prepared.Exec/Bind (or Query,
// which binds its own extracted literals); here they fail with an
// unbound-parameter error.
func (c *Catalog) Execute(stmt *SelectStmt) (*table.Table, error) {
	p, err := c.resolve(cloneStmt(stmt))
	if err != nil {
		return nil, err
	}
	return executeCtxBound(context.Background(), p, nil)
}

// executeCtxBound is Execute with cancellation and the execution's
// parameter bindings: ctx is observed between pipeline stages and between
// worker-pool chunks, so a cancelled context stops a large scan, sort, or
// aggregation within one chunk's worth of work and returns ctx.Err().
func executeCtxBound(ctx context.Context, p *plan, binds []table.Value) (*table.Table, error) {
	x, err := start(ctx, p, binds, false)
	if err != nil {
		return nil, err
	}
	return executeVecPlan(ctx, p, x)
}

// executeVecPlan is the vectorized execution body once the execution's
// arguments are known — shared with subquery execution, like its scalar
// counterpart executeScalarPlan.
func executeVecPlan(ctx context.Context, p *plan, x *execArgs) (*table.Table, error) {
	rel, sel, err := scanFilter(ctx, p, x)
	if err != nil {
		return nil, err
	}
	return executeMaterialized(ctx, p, rel, sel)
}

// executeMaterialized is the shared execution tail after scanFilter: the
// grouped or plain projection, then DISTINCT/OFFSET/LIMIT.
func executeMaterialized(ctx context.Context, p *plan, rel *vrel, sel *table.Selection) (*table.Table, error) {
	var out *table.Table
	var err error
	if p.grouped {
		out, err = executeGroupedVec(ctx, p, rel, sel)
	} else {
		out, err = executePlainVec(ctx, p, rel, sel)
	}
	if err != nil {
		return nil, err
	}
	return applyDistinctOffsetLimit(p.stmt.Distinct, rel.x, out), nil
}

// executeResultBound is the shared execution core behind QueryCtx,
// Prepared.Exec and Bound.Exec: it runs a plan with the execution's
// parameter bindings and returns a typed Result. Plain projections of bare
// columns (no grouping, ordering, or DISTINCT) stay lazy: the Result holds
// zero-copy references to the relation's columns plus the WHERE selection,
// with OFFSET/LIMIT applied as selection arithmetic — no output is
// materialized at all. Every other shape runs the materializing executor
// and wraps its output table.
func executeResultBound(ctx context.Context, p *plan, binds []table.Value) (*Result, error) {
	x, err := start(ctx, p, binds, false)
	if err != nil {
		return nil, err
	}
	rel, sel, err := scanFilter(ctx, p, x)
	if err != nil {
		return nil, err
	}
	if res, ok := lazyResult(p, rel, sel); ok {
		return res, nil
	}
	out, err := executeMaterialized(ctx, p, rel, sel)
	if err != nil {
		return nil, err
	}
	return newTableResult(out), nil
}

// scanFilter runs the shared pipeline prefix: scan, joins, WHERE filtering,
// and LIMIT pushdown. It returns the working relation and the selection of
// surviving rows (nil = all).
func scanFilter(ctx context.Context, p *plan, x *execArgs) (*vrel, *table.Selection, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Snapshot acquisition happens here, once per referenced table: a
	// single atomic load pins the rows this execution (and any Result
	// cursor it hands out) will ever see.
	stmt := p.stmt
	rel := vrelFrom(p.apps[0].Snapshot().Table(), x)

	where := stmt.Where
	if len(stmt.Joins) > 0 {
		rights := make([]*vrel, len(stmt.Joins))
		for i := range rights {
			rights[i] = vrelFrom(p.apps[i+1].Snapshot().Table(), x)
		}
		keep := p.keep
		if where != nil && p.earlyFilter {
			early, rest, err := filterBeforeJoins(ctx, rel, where)
			if err != nil {
				return nil, nil, err
			}
			if early != nil {
				// Comparisons that already ran observe no column any more.
				where, keep = rest, p.observedAfter(rest)
				rel = restrictRel(rel, early, keep)
			}
		}
		for i, j := range stmt.Joins {
			var err error
			rel, err = joinVRel(ctx, rel, rights[i], j, keep)
			if err != nil {
				return nil, nil, err
			}
		}
	}

	var sel *table.Selection // nil = all rows
	if where != nil {
		var err error
		sel, err = filterWhere(ctx, rel, where)
		if err != nil {
			return nil, nil, err
		}
	}

	// LIMIT pushdown: without grouping, ordering, or DISTINCT, only the
	// first OFFSET+LIMIT selected rows can reach the output, so truncate
	// the selection before projecting instead of materializing and then
	// slicing. Span-form selections truncate without copying. Window
	// functions disable the pushdown: their frames span the full filtered
	// set, so truncating first would change their values.
	if keep, bounded := x.limitReach(); bounded && !p.grouped && len(stmt.OrderBy) == 0 && !stmt.Distinct && len(p.wins) == 0 {
		if sel == nil {
			if keep > rel.nrows {
				keep = rel.nrows
			}
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: keep})
		} else {
			sel = sel.Truncate(keep)
		}
	}
	return rel, sel, ctx.Err()
}

// lazyResult builds a zero-copy Result for a plain projection of bare
// columns: no grouping, no DISTINCT, no ORDER BY, every select item a column
// reference of a typed kind. ok=false sends every other shape to the
// materializing path.
func lazyResult(p *plan, rel *vrel, sel *table.Selection) (*Result, bool) {
	if p.grouped || p.stmt.Distinct || len(p.order) > 0 {
		return nil, false
	}
	cols := make([]table.Column, len(p.items))
	for i, it := range p.items {
		ref, ok := it.Expr.(*ColumnRef)
		if !ok || rel.cols[ref.idx].Kind == table.KindNull {
			// KindNull columns are rebuilt as TEXT on the materializing
			// path (orderedOutput).
			return nil, false
		}
		cols[i] = rel.cols[ref.idx]
		cols[i].Name = p.names[i]
	}
	// OFFSET drops leading selected rows; LIMIT was already pushed down
	// into the selection by scanFilter when set (keeping OFFSET+LIMIT rows).
	if rel.x.offset > 0 {
		if sel == nil {
			sel = table.NewSpanSelection(table.Span{Lo: 0, Hi: rel.nrows})
		}
		sel = sel.Drop(rel.x.offset)
	}
	// The Result's name list is the caller's to keep; the plan's is shared.
	return newLazyResult(append([]string(nil), p.names...), cols, sel), true
}

func applyDistinctOffsetLimit(distinct bool, x *execArgs, out *table.Table) *table.Table {
	if distinct {
		out = out.Distinct()
	}
	if x.offset > 0 {
		out = out.Slice(x.offset, out.NumRows())
	}
	if x.limit >= 0 {
		out = out.Limit(x.limit)
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
func executePlainVec(ctx context.Context, p *plan, rel *vrel, sel *table.Selection) (*table.Table, error) {
	// Window columns are computed once over the full selection before any
	// item evaluation; item and ORDER BY expressions then read them via
	// rel.win (evalVec's FuncCall case and vecEnv.window).
	if len(p.wins) > 0 {
		win, err := computeWindowsVec(ctx, p.wins, rel, sel)
		if err != nil {
			return nil, err
		}
		rel.win = win
	}

	// A bare column evaluated with no selection or a single-range
	// selection is a zero-copy view of catalog storage; copy it so the
	// result table owns its data. With ORDER BY the Gather below already
	// produces fresh storage.
	sharesStorage := sel == nil
	if sel != nil {
		_, _, sharesStorage = sel.AsRange()
	}

	outCols := make([]table.Column, len(p.items))
	for i, it := range p.items {
		col, err := evalVec(it.Expr, rel, sel)
		if err != nil {
			return nil, err
		}
		if _, isRef := it.Expr.(*ColumnRef); isRef && sharesStorage && len(p.order) == 0 {
			col = col.CloneData()
		}
		outCols[i] = col
	}

	keyCols := make([]table.Column, len(p.order))
	for k, o := range p.order {
		col, err := evalVec(o.Expr, rel, sel)
		if err != nil {
			return nil, err
		}
		keyCols[k] = col
	}
	return orderedOutput(ctx, p, rel.x, outCols, keyCols)
}

// orderedOutput is the vectorized executor's one output tail, shared by the
// plain and grouped projections: it orders the output columns by the ORDER
// BY key columns (one key per output row) and names the result. sortPerm
// and topKPerm choose between the memcmp kernel and the boxed fallback from
// what the key columns hold; DISTINCT/OFFSET/LIMIT follow in
// executeMaterialized.
func orderedOutput(ctx context.Context, p *plan, x *execArgs, outCols, keyCols []table.Column) (*table.Table, error) {
	if len(p.order) > 0 {
		n := keyCols[0].Len()
		var perm []int
		var err error
		// Only the first LIMIT+OFFSET rows of the order can reach the output
		// (the heap must retain the OFFSET rows too — they are discarded
		// after the sort, not before). DISTINCT disables the bound:
		// deduplication runs after ordering, and dropped duplicates would
		// pull rows from beyond it into the window.
		if keep, bounded := x.limitReach(); bounded && !p.stmt.Distinct && keep < n {
			perm, err = topKPerm(ctx, keyCols, p.order, n, keep)
		} else {
			perm, err = sortPerm(ctx, keyCols, p.order, n)
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
	out := &table.Table{Name: p.stmt.From}
	for i, name := range p.names {
		outCols[i].Name = name
		if outCols[i].Kind == table.KindNull {
			// All-NULL output columns default to TEXT, like the scalar path.
			// Rebuild rather than retag: a KindNull column has no typed
			// storage, so flipping Kind alone would break the storage
			// invariant and crash later slices.
			outCols[i] = table.ColumnOf(name, table.KindString, outCols[i].Values())
		}
		out.Columns = append(out.Columns, outCols[i])
	}
	return out, nil
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
// relation: a plain column reads the group's first row (vecEnv.row; -1 for
// the empty global group), and aggregates over bare columns run in typed
// loops over the group's selection (contiguous spans for the global group).
type vGroupEnv struct {
	vecEnv
	rows *table.Selection
}

func (e *vGroupEnv) aggregate(fn *FuncCall) (table.Value, error) {
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
		return aggOverColumn(fn.Name, &e.rel.cols[ref.idx], e.rows)
	}
	// General case (expressions, DISTINCT): evaluate the argument per row.
	var vals []table.Value
	seen := map[string]bool{}
	env := &vecEnv{rel: e.rel}
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
func executeGroupedVec(ctx context.Context, p *plan, rel *vrel, sel *table.Selection) (*table.Table, error) {
	groupCols := make([]table.Column, len(p.groupBy))
	for i, g := range p.groupBy {
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

	items, order, having := p.items, p.order, p.having
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
		ev := &vGroupEnv{vecEnv: vecEnv{rel: rel, row: -1}, rows: groups[gi]}
		if ev.rows.Len() > 0 {
			ev.row = ev.rows.RowAt(0)
		}
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
	return orderedOutput(ctx, p, rel.x, cols[:len(items)], cols[len(items):])
}
