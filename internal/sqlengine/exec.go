package sqlengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
	// by executePlainVec before item evaluation.
	win []table.Column
	// grp makes this a relation of groups, with no cols of its own: row g
	// is group g of grp.base. Set by executeGroupedVec.
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
// marking its stages on t (nil: untraced). ctx is observed between
// pipeline stages and between worker-pool chunks, so a cancelled context
// stops a large scan, sort, or aggregation within one chunk's worth of
// work and returns ctx.Err().
func executeResultBound(ctx context.Context, p *plan, binds []table.Value, t *Trace) (*Result, error) {
	x, err := start(ctx, p, binds, t, executePlan)
	if err != nil {
		return nil, err
	}
	return executePlan(ctx, p, x)
}

// executePlan is the vectorized execution body once the execution's
// arguments are known — the executor the engine's subqueries run with.
// After scanFilter, a projection of bare columns stays lazy: its columns
// are the relation's own under the WHERE selection, zero-copy. Grouped and
// every other plain projection evaluate output columns of their own. Every
// execution then ends in finish.
//
// Each stage is marked on the execution's trace as it ends. A stage whose
// evaluation fails is marked with no rows, so a failed statement's time is
// charged to the stage it came from; a cancellation leaves the trace at its
// last mark. A lazy projection does no work of its own and is not marked.
func executePlan(ctx context.Context, p *plan, x *execArgs) (*Result, error) {
	rel, sel, err := scanFilter(ctx, p, x)
	if err != nil {
		return nil, err
	}
	var cols []table.Column
	if p.grouped {
		cols, err = executeGroupedVec(ctx, p, rel, sel)
		sel = nil
	} else if cols = bareColumns(p, rel); cols == nil {
		cols, err = executePlainVec(ctx, p, rel, sel)
		sel = nil
	}
	if err != nil {
		x.trace.Mark(StageProject, 0)
		return nil, err
	}
	return finish(ctx, p, x, cols, sel)
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
			x.trace.Mark(StageScanFilter, 0)
			if err != nil {
				return nil, nil, err
			}
			if early != nil {
				// Comparisons that already ran observe no column any more.
				where, keep = rest, p.observedAfter(rest)
				rel = restrictRel(rel, early, p.withOn(keep, 0))
			}
		}
		for i, j := range stmt.Joins {
			var late []bool
			if i == len(stmt.Joins)-1 {
				late = p.late
			}
			var err error
			rel, err = joinVRel(ctx, rel, rights[i], j, p.withOn(keep, i+1), late)
			if err != nil {
				x.trace.Mark(StageJoin, 0)
				return nil, nil, err
			}
		}
		// The join's output rows are the last join's pairs.
		x.trace.Mark(StageJoin, rel.nrows)
	}

	var sel *table.Selection // nil = all rows
	if where != nil {
		var err error
		sel, err = filterWhere(ctx, rel, where)
		if err != nil {
			x.trace.Mark(StageScanFilter, 0)
			return nil, nil, err
		}
	}

	// LIMIT pushdown: without grouping, ordering, or DISTINCT, only the
	// first OFFSET+LIMIT selected rows can reach the output, so truncate
	// the selection before projecting: a computed column is evaluated on
	// those rows only. Span-form selections truncate without copying. Window
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
	n := rel.nrows
	if sel != nil {
		n = sel.Len()
	}
	x.trace.Mark(StageScanFilter, n)
	return rel, sel, ctx.Err()
}

// bareColumns returns the relation's columns an ungrouped projection of
// bare column references reads, zero-copy, or nil when the plan orders its
// rows or selects anything else.
func bareColumns(p *plan, rel *vrel) []table.Column {
	if len(p.order) > 0 {
		return nil
	}
	cols := make([]table.Column, len(p.items))
	for i, it := range p.items {
		ref, ok := it.Expr.(*ColumnRef)
		if !ok {
			return nil
		}
		cols[i] = rel.cols[ref.idx]
	}
	return cols
}

// finish is every execution's one tail. sel selects the output rows of cols
// (every row when sel is nil): the relation's own columns under the WHERE
// selection for a lazy projection, output columns otherwise. DISTINCT keeps
// the first row of each groupKeys group of the output rows — the groups
// come in first-appearance order, so those rows ascend — and OFFSET/LIMIT
// drop and truncate the selection. No output column is copied.
func finish(ctx context.Context, p *plan, x *execArgs, cols []table.Column, sel *table.Selection) (*Result, error) {
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
			return nil, err
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
	res := newResult(append([]string(nil), p.names...), cols, sel)
	x.trace.Mark(StageFinish, res.NumRows())
	return res, nil
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
		return fn.Over == nil && isAggregate(fn.Name), fn.Over == nil
	})
}

// executePlainVec projects the selected rows column-at-a-time: one value
// per selected row in each output column, in ORDER BY order. A bare column
// over a single-range selection stays a view of the relation's storage.
func executePlainVec(ctx context.Context, p *plan, rel *vrel, sel *table.Selection) ([]table.Column, error) {
	// Window columns are computed once over the full selection before any
	// item evaluation; item and ORDER BY expressions then read them via
	// rel.win (evalVec's FuncCall case).
	if len(p.wins) > 0 {
		win, err := computeWindowsVec(ctx, p.wins, rel, sel)
		if err != nil {
			return nil, err
		}
		rel.win = win
	}
	exprs := make([]Expr, 0, len(p.items)+len(p.order))
	for _, it := range p.items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range p.order {
		exprs = append(exprs, o.Expr)
	}
	cols, err := evalVecs(exprs, rel, sel)
	if err != nil {
		return nil, err
	}
	return orderOutput(ctx, p, rel.x, cols[:len(p.items)], cols[len(p.items):])
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

// orderOutput orders the output columns by the ORDER BY key columns (one
// key per output row) — the plain and grouped projections' shared step
// before finish, where the projection's stage ends. sortPerm and topKPerm
// order positions by rowOrder's comparator over the key columns.
func orderOutput(ctx context.Context, p *plan, x *execArgs, outCols, keyCols []table.Column) ([]table.Column, error) {
	if len(outCols) > 0 {
		x.trace.Mark(StageProject, outCols[0].Len())
	}
	if len(p.order) == 0 {
		return outCols, nil
	}
	n := keyCols[0].Len()
	var perm []int
	var err error
	// Only the first LIMIT+OFFSET rows of the order can reach the output
	// (the heap must retain the OFFSET rows too — finish drops them after
	// the sort). DISTINCT disables the bound: deduplication runs after
	// ordering, and dropped duplicates would pull rows from beyond it into
	// the window.
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
		outCols[i] = outCols[i].Gather(perm, nil)
	}
	x.trace.Mark(StageSort, n)
	return outCols, nil
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

// grouping numbers positions 0..n-1 by key: ids[i] is position i's group,
// the groups numbered in first-appearance order; firsts[g] is group g's
// first position and counts[g] how many positions it holds. A coded
// grouping (groupCodes) has no ids: position i's group is remap[codes[i]],
// or remap's last entry when nulls (nil: none) marks i. With neither, every
// position is in group 0.
type grouping struct {
	ids    []int32
	firsts []int
	counts []int
	codes  []int32
	nulls  []bool
	remap  []int32
}

// idsAt writes the ids of a coded grouping's positions pos, pos+1, ...
// into gs and returns it.
func (gr *grouping) idsAt(pos int, gs []int32) []int32 {
	codes := gr.codes[pos : pos+len(gs)]
	if gr.nulls == nil {
		for j, c := range codes {
			gs[j] = gr.remap[c]
		}
		return gs
	}
	nulls := gr.nulls[pos : pos+len(gs)]
	null := gr.remap[len(gr.remap)-1]
	for j, c := range codes {
		id := gr.remap[c]
		if nulls[j] {
			id = null
		}
		gs[j] = id
	}
	return gs
}

// idList is every position's id, built from the codes of a coded grouping;
// nil when every position is in group 0.
func (gr *grouping) idList() []int32 {
	if gr.remap == nil {
		return gr.ids
	}
	return gr.idsAt(0, make([]int32, len(gr.codes)))
}

// groupKeys is the vectorized engine's one key grouper, behind GROUP BY,
// DISTINCT and PARTITION BY. keyCols hold one key per position 0..n-1; NULL
// is a key like any other. A single coded string key (table.Column.Codes)
// counts its codes, unless its dictionary outnumbers the positions; a
// single typed int/string key hashes its raw values; every other shape
// (composite, float, bool, time) hashes its key tuple's table.AppendKey bytes.
// Either way two positions share a group exactly when = holds on every
// key, NULL and NaN each being one group.
func groupKeys(ctx context.Context, keyCols []table.Column, n int) (grouping, error) {
	if len(keyCols) == 1 {
		if codes, dict, nulls, ok := keyCols[0].Codes(); ok && len(dict) <= n {
			return groupCodes(ctx, codes, len(dict), nulls, n)
		}
		if is, nulls, ok := keyCols[0].Ints(); ok {
			return groupByKey(ctx, n, func(d *groupDict[int64], ids []int32, lo, hi int) {
				hashValues(d, is, nulls, ids, lo, hi)
			})
		}
		if ss, nulls, ok := keyCols[0].Strings(); ok {
			return groupByKey(ctx, n, func(d *groupDict[string], ids []int32, lo, hi int) {
				hashValues(d, ss, nulls, ids, lo, hi)
			})
		}
	}
	return groupByKey(ctx, n, func(d *groupDict[string], ids []int32, lo, hi int) {
		hashEncoded(d, keyCols, ids, lo, hi)
	})
}

// groupCodes is groupKeys over the codes of a dictionary of size entries:
// each worker-pool chunk tallies its range in arrays of its own, and the
// tallies merge in chunk order, so the ids number the codes seen in
// first-appearance order, as groupByKey's do. No string is hashed and no
// id is written per position: the grouping keeps the codes and a code→id
// remap. A position nulls (nil: none) marks is code size, NULL's slot.
func groupCodes(ctx context.Context, codes []int32, size int, nulls []bool, n int) (grouping, error) {
	if n == 0 {
		return grouping{}, ctx.Err()
	}
	_, chunks := chunkLayout(n, parallelMinRows)
	tallies := make([]codeTally, chunks)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		tallies[ci] = tallyCodes(codes, nulls, size, lo, hi)
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	remap := make([]int32, size+1)
	for c := range remap {
		remap[c] = -1
	}
	var firsts, counts []int
	for t := range tallies {
		for j, c := range tallies[t].order {
			id := remap[c]
			if id < 0 {
				id = int32(len(firsts))
				remap[c] = id
				firsts = append(firsts, tallies[t].firsts[j])
				counts = append(counts, 0)
			}
			counts[id] += tallies[t].counts[c]
		}
	}
	gr := grouping{firsts: firsts, counts: counts, codes: codes[:n], remap: remap}
	if nulls != nil {
		gr.nulls = nulls[:n]
	}
	return gr, nil
}

// codeTally is one chunk's count of each code, NULL's in the last slot,
// and the slots it met in first-appearance order with their first positions.
type codeTally struct {
	counts []int
	order  []int32
	firsts []int
}

// tallyCodes tallies positions lo..hi-1 of a dictionary of size entries.
func tallyCodes(codes []int32, nulls []bool, size, lo, hi int) codeTally {
	t := codeTally{counts: make([]int, size+1)}
	if nulls == nil {
		for j, c := range codes[lo:hi] {
			if t.counts[c] == 0 {
				t.order = append(t.order, c)
				t.firsts = append(t.firsts, lo+j)
			}
			t.counts[c]++
		}
		return t
	}
	nulls = nulls[lo:hi]
	for j, c := range codes[lo:hi] {
		if nulls[j] {
			c = int32(size)
		}
		if t.counts[c] == 0 {
			t.order = append(t.order, c)
			t.firsts = append(t.firsts, lo+j)
		}
		t.counts[c]++
	}
	return t
}

// groupByKey is groupKeys over the worker pool's chunks: each chunk hashes
// its range into a dictionary of its own, and the dictionaries merge in
// chunk order — the first chunk's becomes the merged one, a later chunk's
// local ids map through a remap slice — so the ids number the groups in
// first-appearance order. The later chunks' ids are then remapped in place,
// each chunk on the pool.
func groupByKey[K comparable](ctx context.Context, n int, hash func(d *groupDict[K], ids []int32, lo, hi int)) (grouping, error) {
	if n == 0 {
		return grouping{}, ctx.Err()
	}
	_, chunks := chunkLayout(n, parallelMinRows)
	ids := make([]int32, n)
	dicts := make([]groupDict[K], chunks)
	err := parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		d := &dicts[ci]
		d.ids, d.null = make(map[K]int32, min(hi-lo, 64)), -1
		hash(d, ids, lo, hi)
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	g := &dicts[0]
	if chunks == 1 {
		return grouping{ids: ids, firsts: g.firsts, counts: g.counts}, nil
	}
	remaps := make([][]int32, chunks)
	for c := 1; c < chunks; c++ {
		d := &dicts[c]
		remaps[c] = make([]int32, len(d.keys))
		for l, k := range d.keys {
			id, ok := g.null, g.null >= 0
			if int32(l) != d.null {
				id, ok = g.ids[k]
			}
			if !ok {
				id = g.add(k, d.firsts[l])
				if int32(l) == d.null {
					g.null = id
				} else {
					g.ids[k] = id
				}
			}
			g.counts[id] += d.counts[l]
			remaps[c][l] = id
		}
	}
	err = parallelChunksIndexed(ctx, n, parallelMinRows, func(ci, lo, hi int) error {
		if remap := remaps[ci]; remap != nil {
			for i := lo; i < hi; i++ {
				ids[i] = remap[ids[i]]
			}
		}
		return nil
	})
	if err != nil {
		return grouping{}, err
	}
	return grouping{ids: ids, firsts: g.firsts, counts: g.counts}, nil
}

// groupDict is one chunk's dictionary: the id of each distinct non-NULL
// key, and by id in first-appearance order every group's key, first
// position and count.
type groupDict[K comparable] struct {
	ids    map[K]int32
	keys   []K // the NULL group's entry is the zero K
	firsts []int
	counts []int
	null   int32 // id of the NULL group, -1 while it has none
}

// add opens a group for k, first seen at position first, and returns its id.
func (d *groupDict[K]) add(k K, first int) int32 {
	id := int32(len(d.keys))
	d.keys = append(d.keys, k)
	d.firsts = append(d.firsts, first)
	d.counts = append(d.counts, 0)
	return id
}

// hashValues gives positions lo..hi-1 the ids of their typed keys; the
// positions nulls marks share the one NULL group.
func hashValues[K comparable](d *groupDict[K], keys []K, nulls []bool, ids []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		var id int32
		if nulls[i] {
			if d.null < 0 {
				var zero K
				d.null = d.add(zero, i)
			}
			id = d.null
		} else {
			var ok bool
			if id, ok = d.ids[keys[i]]; !ok {
				id = d.add(keys[i], i)
				d.ids[keys[i]] = id
			}
		}
		d.counts[id]++
		ids[i] = id
	}
}

// hashEncoded is hashValues over the table.AppendKey bytes of each
// position's key tuple (a NULL cell is a part like any other). The key is
// built in one reused buffer and copied into a string only when it opens
// a group.
func hashEncoded(d *groupDict[string], keyCols []table.Column, ids []int32, lo, hi int) {
	var kb []byte
	for i := lo; i < hi; i++ {
		kb = kb[:0]
		for k := range keyCols {
			kb = keyCols[k].AppendKey(kb, i)
		}
		id, ok := d.ids[string(kb)]
		if !ok {
			key := string(kb)
			id = d.add(key, i)
			d.ids[key] = id
		}
		d.counts[id]++
		ids[i] = id
	}
}

// partitionPerm orders the positions 0..n-1 by key group of groupKeys, in
// its group order: group g's positions are perm[ends[g-1]:ends[g]] (from 0
// for group 0), ascending — the segments window PARTITION BY sorts and
// frames in place. The scatter leaves each group's start at its end.
func partitionPerm(ctx context.Context, keyCols []table.Column, n int) (perm, ends []int, err error) {
	gr, err := groupKeys(ctx, keyCols, n)
	if err != nil {
		return nil, nil, err
	}
	perm, ends = make([]int, n), make([]int, len(gr.counts))
	at := 0
	for g, count := range gr.counts {
		ends[g] = at
		at += count
	}
	for i, g := range gr.idList() {
		perm[ends[g]] = i
		ends[g]++
	}
	return perm, ends, nil
}

// rowsOf replaces each of the ascending positions pos with the row of sel
// at it; with a nil sel, position i is row i already.
func rowsOf(sel *table.Selection, pos []int) {
	if sel == nil {
		return
	}
	spans, ok := sel.Spans()
	if !ok {
		idx := sel.Indices()
		for i, p := range pos {
			pos[i] = idx[p]
		}
		return
	}
	s, start := 0, 0 // spans[s] holds the positions from start on
	for i, p := range pos {
		for p-start >= spans[s].Hi-spans[s].Lo {
			start += spans[s].Hi - spans[s].Lo
			s++
		}
		pos[i] = spans[s].Lo + p - start
	}
}

// vgroups makes a relation of groups (vrel.grp): its row g is group g of
// the selected rows of base — position i of sel, its i-th row, belongs to
// group ids[i]. firsts holds each group's first row of base, and counts
// its size. evalVec reads a column at each group's first row — NULL for
// the empty global group — and folds an aggregate call by group id in one
// pass over the positions.
type vgroups struct {
	base *vrel
	sel  *table.Selection // nil = every row of base
	grouping
}

// groupRows groups the selected rows of rel by the GROUP BY key columns
// (one key per position). With no key columns (global aggregates) every
// position is the one group, possibly empty, and no id is written.
func groupRows(ctx context.Context, keyCols []table.Column, rel *vrel, sel *table.Selection) (*vgroups, error) {
	n := selLen(rel, sel)
	gr := grouping{firsts: []int{0}, counts: []int{n}}
	if len(keyCols) > 0 {
		var err error
		if gr, err = groupKeys(ctx, keyCols, n); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		rowsOf(sel, gr.firsts)
	}
	return &vgroups{base: rel, sel: sel, grouping: gr}, ctx.Err()
}

// groupThrough is groupRows over a single GROUP BY key the join left as
// its pairs — the groupjoin. groupKeys runs once over the build column's
// rows; each selected pair takes its build row's group as a code, a pad or
// a NULL cell NULL's slot; and groupCodes numbers the codes in
// first-appearance order. The groups, their order, firsts and counts are
// the ones grouping the gathered column gives, with no key gathered or
// hashed per pair.
func groupThrough(ctx context.Context, key *pairCol, rel *vrel, sel *table.Selection) (*vgroups, error) {
	n, m := selLen(rel, sel), key.src.Len()
	build, err := groupKeys(ctx, []table.Column{*key.src}, m)
	if err != nil {
		return nil, err
	}
	ids, size := build.idList(), int32(len(build.counts))
	nullID := int32(-1) // the build's NULL group, which takes NULL's slot
	for g, first := range build.firsts {
		if key.src.IsNullAt(first) {
			nullID = int32(g)
		}
	}
	// Position i is row base+i, or rows[i] unless sel is one range.
	base, _, isRange := sel.AsRange()
	var rows []int
	if !isRange {
		rows = sel.Indices()
	}
	codes := make([]int32, n)
	err = parallelChunks(ctx, n, parallelMinRows, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			r := base + i
			if rows != nil {
				r = rows[i]
			}
			codes[i] = size
			if key.pad == nil || !key.pad[r] {
				if id := ids[key.idx[r]]; id != nullID {
					codes[i] = id
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	gr, err := groupCodes(ctx, codes, int(size), nil, n)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		rowsOf(sel, gr.firsts)
	}
	return &vgroups{base: rel, sel: sel, grouping: gr}, ctx.Err()
}

// firstRows reads base column ci at the first row of each selected group.
func (g *vgroups) firstRows(ci int, sel *table.Selection, n int) table.Column {
	idx := make([]int, n)
	var pad []bool // set only for the empty global group, which has no first row
	it := table.IterSelection(sel, len(g.counts))
	for i := range idx {
		gi, _ := it.Next()
		if g.counts[gi] == 0 {
			if pad == nil {
				pad = make([]bool, n)
			}
			pad[i] = true
			continue
		}
		idx[i] = g.firsts[gi]
	}
	if late := g.base.lateCol(ci); late != nil {
		return late.gather(idx, pad)
	}
	return g.base.cols[ci].Gather(idx, pad)
}

// aggregate folds fn over the rows of each selected group.
func (g *vgroups) aggregate(fn *FuncCall, sel *table.Selection, n int) (table.Column, error) {
	if n == 0 {
		return nullColumn(kindOf(fn, g.base), 0), nil
	}
	col, err := g.fold(fn, sel)
	if err != nil || sel == nil {
		return col, err
	}
	return col.GatherSel(sel), nil
}

// fold computes fn for every group, in one pass over the positions, and
// returns one cell per group; only the groups sel selects (nil: all) are
// read. COUNT(*) and COUNT of a constant are the groups' counts. A bare
// column is folded over every selected row; any other argument is evaluated
// once, on the rows of the groups sel selects only, so it raises exactly
// when a per-group evaluation would. COUNT, SUM/AVG and MIN/MAX over a
// typed int or float column then fold in typed loops (foldTyped); every
// other pairing folds each group's cells through aggAcc.
func (g *vgroups) fold(fn *FuncCall, sel *table.Selection) (table.Column, error) {
	switch {
	case fn.IsStar && fn.Name != "COUNT":
		return table.Column{}, fmt.Errorf("sql: %s(*) is not supported", fn.Name)
	case fn.IsStar:
		return g.countColumn(true), nil
	case len(fn.Args) != 1:
		return table.Column{}, fmt.Errorf("sql: aggregate %s expects one argument", fn.Name)
	}
	op := aggOps[fn.Name] // evalVec folds only names isAggregate knows
	arg := fn.Args[0]
	if k, ok := constExprValue(arg, g.base); ok && op == aggCount && !fn.Distinct {
		// COUNT(1) counts the rows (none for NULL) without a column of ones.
		return g.countColumn(!k.IsNull()), nil
	}
	var col table.Column
	rows, gr := g.sel, &g.grouping
	if ref, ok := arg.(*ColumnRef); ok && !fn.Distinct {
		col = g.base.cols[ref.idx]
	} else {
		rows, gr = g.restrict(sel)
		var err error
		if col, err = evalVec(arg, g.base, rows); err != nil {
			return table.Column{}, err
		}
		rows = nil // col is positional now
	}
	if !fn.Distinct && op != aggStddev && op != aggMedian {
		if is, nulls, ok := col.Ints(); ok {
			return foldTyped(op, is, nulls, rows, gr, len(g.counts), table.ColumnFromInts), nil
		}
		if fs, nulls, ok := col.Floats(); ok {
			return foldTyped(op, fs, nulls, rows, gr, len(g.counts), table.ColumnFromFloats), nil
		}
	}
	return foldCells(fn, op, &col, rows, gr, len(g.counts)), nil
}

// countColumn is every group's count, or zeros when counted is false.
func (g *vgroups) countColumn(counted bool) table.Column {
	out := make([]int64, len(g.counts))
	if counted {
		for i, c := range g.counts {
			out[i] = int64(c)
		}
	}
	return table.ColumnFromInts("", out, nil)
}

// restrict returns the selected rows of base that belong to the groups sel
// selects, with their group ids: g.sel and g's own grouping when sel
// selects every group.
func (g *vgroups) restrict(sel *table.Selection) (*table.Selection, *grouping) {
	if sel == nil || sel.Len() == len(g.counts) {
		return g.sel, &g.grouping
	}
	all := g.idList()
	if all == nil {
		return g.sel, &g.grouping
	}
	want := make([]bool, len(g.counts))
	sel.ForEach(func(gi int) { want[gi] = true })
	keep := make([]bool, len(all))
	var ids []int32
	for i, id := range all {
		if want[id] {
			keep[i] = true
			ids = append(ids, id)
		}
	}
	return g.sel.Pick(keep, nil), &grouping{ids: ids}
}

// foldBlock is how many positions foldBlocks hands its fold at once.
const foldBlock = 1024

// zeroIDs are the group ids of a block when every position is group 0.
var zeroIDs [foldBlock]int32

// foldBlocks hands fold the cells of vals and nulls at the rows sel selects
// (nil: every row), in position order, in blocks beside the group ids of
// their positions in gr. A span's cells are handed in place; a dense
// selection's are gathered into one reused block first. A coded
// grouping's ids are mapped from its codes a block at a time, into a
// buffer only that grouping allocates.
func foldBlocks[T any](vals []T, nulls []bool, sel *table.Selection, gr *grouping, fold func(vs []T, ns []bool, gs []int32)) {
	pos := 0
	var buf []int32
	if gr.remap != nil {
		buf = make([]int32, foldBlock)
	}
	run := func(vs []T, ns []bool) {
		for len(vs) > 0 {
			m := min(len(vs), foldBlock)
			gs := zeroIDs[:m]
			switch {
			case buf != nil:
				gs = gr.idsAt(pos, buf[:m])
			case gr.ids != nil:
				gs = gr.ids[pos : pos+m]
			}
			fold(vs[:m], ns[:m], gs)
			vs, ns, pos = vs[m:], ns[m:], pos+m
		}
	}
	spans, ok := sel.Spans()
	switch {
	case sel == nil:
		run(vals, nulls)
	case ok:
		for _, sp := range spans {
			run(vals[sp.Lo:sp.Hi], nulls[sp.Lo:sp.Hi])
		}
	default:
		idx := sel.Indices()
		bv, bn := make([]T, min(len(idx), foldBlock)), make([]bool, min(len(idx), foldBlock))
		for len(idx) > 0 {
			m := min(len(idx), foldBlock)
			for j, r := range idx[:m] {
				bv[j], bn[j] = vals[r], nulls[r]
			}
			run(bv[:m], bn[:m])
			idx = idx[m:]
		}
	}
}

// foldTyped computes COUNT, SUM, AVG, MIN or MAX of each of the groups
// over a typed int or float column's cells, in typed per-group arrays that
// become the output column. Each group's cells are added in row order, and
// only a strictly smaller (larger) cell replaces a MIN (MAX) — the
// additions and the earliest-of-equals aggAcc makes, with NaN equal to
// every number as table.Compare has it — so every cell is bit-identical to
// aggAcc's.
func foldTyped[T int64 | float64](op aggOp, vals []T, nulls []bool, sel *table.Selection, gr *grouping, groups int,
	column func(string, []T, []bool) table.Column) table.Column {
	count := make([]int64, groups)
	switch op {
	case aggCount:
		foldBlocks(vals, nulls, sel, gr, func(_ []T, ns []bool, gs []int32) {
			gs = gs[:len(ns)]
			for j, null := range ns {
				if !null {
					count[gs[j]]++
				}
			}
		})
		return table.ColumnFromInts("", count, nil)
	case aggSum, aggAvg:
		total := make([]float64, groups)
		foldBlocks(vals, nulls, sel, gr, func(vs []T, ns []bool, gs []int32) {
			ns, gs = ns[:len(vs)], gs[:len(vs)]
			for j, v := range vs {
				if !ns[j] {
					total[gs[j]] += float64(v)
					count[gs[j]]++
				}
			}
		})
		empty := make([]bool, groups)
		for g, c := range count {
			empty[g] = c == 0
			if op == aggAvg && c > 0 {
				total[g] /= float64(c)
			}
		}
		return table.ColumnFromFloats("", total, empty)
	}
	best := make([]T, groups) // MIN, MAX
	foldBlocks(vals, nulls, sel, gr, func(vs []T, ns []bool, gs []int32) {
		ns, gs = ns[:len(vs)], gs[:len(vs)]
		for j, v := range vs {
			if g := gs[j]; !ns[j] && (count[g] == 0 || (op == aggMin && v < best[g]) || (op == aggMax && v > best[g])) {
				best[g] = v
				count[g] = 1
			}
		}
	})
	empty := make([]bool, groups)
	for g, c := range count {
		empty[g] = c == 0
	}
	return column("", best, empty)
}

// foldCells folds the cells of col, fn's argument, at the rows sel selects
// (nil: every row) into their groups' aggAcc, in position order; DISTINCT
// folds only the first of each distinct non-NULL value of a group.
func foldCells(fn *FuncCall, op aggOp, col *table.Column, sel *table.Selection, gr *grouping, groups int) table.Column {
	distinct := fn.Distinct
	ids := gr.idList()
	accs := make([]aggAcc, groups)
	for g := range accs {
		accs[g].op = op
	}
	var seen map[string]bool // a group id, then the cell's table.AppendKey
	var kb []byte
	if distinct {
		seen = map[string]bool{}
	}
	at := col.Value
	it := table.IterSelection(sel, col.Len())
	for pos := 0; ; pos++ {
		r, ok := it.Next()
		if !ok {
			break
		}
		var g int32
		if ids != nil {
			g = ids[pos]
		}
		if distinct {
			if col.IsNullAt(r) {
				continue
			}
			kb = col.AppendKey(binary.LittleEndian.AppendUint32(kb[:0], uint32(g)), r)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		accs[g].add(r, at)
	}
	b := newColBuilder(fn, aggKind(op, col.Kind), groups)
	for g := range accs {
		b.add(accs[g].value())
	}
	return b.col
}

// aggOp is what an aggregate does with each value it folds.
type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggStddev
	aggMedian
	aggMin
	aggMax
)

var aggOps = map[string]aggOp{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "STDDEV": aggStddev,
	"MEDIAN": aggMedian, "MIN": aggMin, "MAX": aggMax,
}

// aggAcc is the engine's one aggregate fold: grouped, DISTINCT and window
// aggregates, and the test oracle's, all reduce through it. COUNT counts the
// non-NULL values of any kind (every row, for COUNT(*)); SUM, AVG, STDDEV
// and MEDIAN fold the AsFloat-convertible values left to right and are NULL
// over none, SUM always KindFloat and STDDEV the sample deviation (0 for one
// value); MIN and MAX order by table.Compare and keep the earliest value on
// ties. The typed per-group loops of foldTyped make the same additions and
// keep the same value on ties, which TestTypedAggregatesMatchFold pins.
type aggAcc struct {
	op    aggOp
	star  bool      // COUNT(*): every row counts, its value unread
	count int       // non-NULL values seen (rows, for COUNT(*))
	n     int       // values folded into total
	total float64   // their left-to-right sum
	nums  []float64 // the values themselves, for STDDEV and MEDIAN
	best  table.Value
}

func newAggAcc(name string, star bool) (aggAcc, error) {
	op, ok := aggOps[name]
	if !ok {
		return aggAcc{}, fmt.Errorf("sql: unknown aggregate %s", name)
	}
	return aggAcc{op: op, star: star}, nil
}

// add folds the value at pos. It takes the position and the column's reader
// rather than the value, which keeps a window frame's per-row fold as fast
// as a typed loop's call.
func (a *aggAcc) add(pos int, at func(int) table.Value) {
	if a.star {
		a.count++
		return
	}
	v := at(pos)
	if v.IsNull() {
		return
	}
	a.count++
	switch a.op {
	case aggSum, aggAvg, aggStddev, aggMedian:
		if f, ok := v.AsFloat(); ok {
			a.total += f
			a.n++
			if a.op == aggStddev || a.op == aggMedian {
				a.nums = append(a.nums, f)
			}
		}
	case aggMin:
		if a.best.IsNull() || table.Compare(v, a.best) < 0 {
			a.best = v
		}
	case aggMax:
		if a.best.IsNull() || table.Compare(v, a.best) > 0 {
			a.best = v
		}
	}
}

func (a *aggAcc) value() table.Value {
	switch a.op {
	case aggCount:
		return table.Int(int64(a.count))
	case aggMin, aggMax:
		return a.best
	}
	if a.n == 0 {
		return table.Null()
	}
	mean := a.total / float64(a.n)
	switch a.op {
	case aggSum:
		return table.Float(a.total)
	case aggAvg:
		return table.Float(mean)
	case aggStddev:
		if a.n < 2 {
			return table.Float(0)
		}
		var ss float64
		for _, f := range a.nums {
			d := f - mean
			ss += d * d
		}
		return table.Float(math.Sqrt(ss / float64(a.n-1)))
	}
	sort.Float64s(a.nums) // MEDIAN
	m := a.n / 2
	if a.n%2 == 1 {
		return table.Float(a.nums[m])
	}
	return table.Float((a.nums[m-1] + a.nums[m]) / 2)
}

// executeGroupedVec gives each selected row its group's id, then evaluates
// HAVING over the relation of groups and the select list and ORDER BY keys
// over the groups it kept, and ordering runs through orderOutput like a
// plain projection's.
func executeGroupedVec(ctx context.Context, p *plan, rel *vrel, sel *table.Selection) ([]table.Column, error) {
	var groups *vgroups
	if key := lateKey(p, rel); key != nil {
		var err error
		if groups, err = groupThrough(ctx, key, rel, sel); err != nil {
			return nil, err
		}
	} else {
		groupCols, err := evalVecs(p.groupBy, rel, sel)
		if err != nil {
			return nil, err
		}
		if groups, err = groupRows(ctx, groupCols, rel, sel); err != nil {
			return nil, err
		}
	}
	grel := &vrel{nrows: len(groups.counts), x: rel.x, grp: groups}
	var kept *table.Selection // nil: every group
	if p.having != nil {
		hv, err := evalVec(p.having, grel, nil)
		if err != nil {
			return nil, err
		}
		kept = passSelection(&hv, nil)
	}
	exprs := make([]Expr, 0, len(p.items)+len(p.order))
	for _, it := range p.items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range p.order {
		exprs = append(exprs, o.Expr)
	}
	cols, err := evalVecs(exprs, grel, kept)
	if err != nil {
		return nil, err
	}
	return orderOutput(ctx, p, rel.x, cols[:len(p.items)], cols[len(p.items):])
}

// lateKey returns the pairs of the statement's GROUP BY key when it is one
// column the join left as them, else nil.
func lateKey(p *plan, rel *vrel) *pairCol {
	if len(p.groupBy) == 0 {
		return nil
	}
	if ref, ok := p.groupBy[0].(*ColumnRef); ok {
		return rel.lateCol(ref.idx)
	}
	return nil
}
