package sqlengine

import (
	"errors"

	"datalab/internal/table"
)

// ErrResultClosed is returned by Result.Err (and Result.Rewind) after
// Close: the cursor's storage references have been released and no further
// iteration is possible. Next on a closed Result returns nil.
var ErrResultClosed = errors.New("sqlengine: result is closed")

// BatchRows is the batch granularity for Result iteration: large enough
// that per-batch overhead vanishes against cell access, small enough that
// a batch's working set stays cache-resident. Exported so wire protocols
// can advertise the batch ceiling to clients.
const BatchRows = 1024

// defaultBatchRows is the internal alias iteration uses.
const defaultBatchRows = BatchRows

// Result is the typed, batch-iterable handle over a query's columnar
// result set — the replacement for materializing [][]string. A Result is
// produced in one of two modes, invisible to the caller:
//
//   - lazy view mode (plain SELECT of bare columns, no ORDER BY/DISTINCT):
//     the Result holds zero-copy references to the catalog table's columns
//     plus the WHERE selection, and batches are zero-copy views over
//     contiguous selection spans. Nothing row-sized is ever allocated.
//   - materialized mode (grouping, ordering, computed expressions,
//     DISTINCT): the Result owns freshly built output columns and batches
//     are zero-copy views over those.
//
// Iterate with Next until it returns nil:
//
//	res, _ := cat.QueryCtx(ctx, sql)
//	for b := res.Next(); b != nil; b = res.Next() {
//		for i := 0; i < b.NumRows(); i++ { ... b.Float64(1, i) ... }
//	}
//
// A Result is a single-consumer cursor: Next is not safe for concurrent
// use (execute the query once per consumer instead). The accessor methods
// (Columns, NumRows, Strings) are read-only and do not move the cursor.
// All columns reachable through a Result are strictly read-only — lazy
// results share storage with the catalog.
//
// The cursor lifecycle is fully defined — long-lived holders like the
// server's cursor registry depend on every state being pinned:
//
//   - exhausted: Next returns nil and keeps returning nil; iterating a
//     second time requires an explicit Rewind.
//   - Rewind: rewinds to the first batch. A Result is always rewindable —
//     lazy results view an immutable pinned snapshot and materialized
//     results own their storage — so no spill is ever needed.
//   - Close: releases the column and selection references (un-pinning the
//     snapshot they held). Next returns nil, Err and Rewind return
//     ErrResultClosed, Strings returns nil. Close is idempotent.
type Result struct {
	names []string
	cols  []table.Column   // one per output column; lazy mode shares base storage
	sel   *table.Selection // lazy row selection; nil = all rows [0, total)
	total int              // result row count

	cur     Batch
	emitted int
	spanIdx int // cursor within span-form selections
	spanOff int
	closed  bool
}

// newTableResult wraps a fully materialized output table.
func newTableResult(t *table.Table) *Result {
	return &Result{
		names: t.ColumnNames(),
		cols:  t.Columns,
		total: t.NumRows(),
	}
}

// newLazyResult wraps base-table columns plus a selection, without
// materializing anything. cols must already carry their output names;
// sel == nil selects all rows of the base columns.
func newLazyResult(names []string, cols []table.Column, sel *table.Selection) *Result {
	total := 0
	if sel != nil {
		total = sel.Len()
	} else if len(cols) > 0 {
		total = cols[0].Len()
	}
	return &Result{names: names, cols: cols, sel: sel, total: total}
}

// Columns returns the output column names in order.
func (r *Result) Columns() []string { return r.names }

// NumCols returns the number of output columns.
func (r *Result) NumCols() int { return len(r.cols) }

// NumRows returns the total number of result rows, independent of how far
// iteration has advanced.
func (r *Result) NumRows() int { return r.total }

// Next returns the next batch of up to 1024 rows, or nil when the result
// is exhausted. The returned batch (and the storage behind its typed
// accessors) is only valid until the following Next call.
func (r *Result) Next() *Batch {
	if r.closed || r.emitted >= r.total {
		return nil
	}
	n := defaultBatchRows
	if rem := r.total - r.emitted; n > rem {
		n = rem
	}
	if r.sel == nil {
		lo := r.emitted
		r.fillView(lo, lo+n)
	} else if spans, ok := r.sel.Spans(); ok {
		sp := spans[r.spanIdx]
		lo := sp.Lo + r.spanOff
		if m := sp.Hi - lo; n > m {
			n = m
		}
		r.fillView(lo, lo+n)
		r.spanOff += n
		if lo+n == sp.Hi {
			r.spanIdx++
			r.spanOff = 0
		}
	} else {
		idx := r.sel.Indices() // dense form: the internal ascending slice
		r.fillGather(idx[r.emitted : r.emitted+n])
	}
	r.emitted += n
	return &r.cur
}

// Rewind moves the cursor back to the first batch so the result can be
// iterated again. It returns ErrResultClosed after Close and nil
// otherwise (including mid-iteration and after exhaustion).
func (r *Result) Rewind() error {
	if r.closed {
		return ErrResultClosed
	}
	r.emitted, r.spanIdx, r.spanOff = 0, 0, 0
	return nil
}

// Close releases the cursor's references to its column storage and
// selection — for lazy results, the pin on the catalog snapshot they were
// executed against. After Close, Next returns nil, Err and Rewind return
// ErrResultClosed, and Strings returns nil; Columns and NumRows stay
// valid. Close is idempotent and always returns nil.
func (r *Result) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cols, r.sel, r.cur = nil, nil, Batch{}
	return nil
}

// Err reports the cursor's terminal condition: ErrResultClosed after
// Close, nil otherwise. An exhausted-but-open Result is not an error —
// Next returning nil with Err() == nil means the rows simply ran out.
func (r *Result) Err() error {
	if r.closed {
		return ErrResultClosed
	}
	return nil
}

// fillView points the cursor batch at zero-copy views of rows [lo, hi).
func (r *Result) fillView(lo, hi int) {
	if r.cur.cols == nil {
		r.cur.cols = make([]table.Column, len(r.cols))
	}
	for i := range r.cols {
		r.cur.cols[i] = r.cols[i].View(lo, hi)
	}
	r.cur.n = hi - lo
}

// fillGather materializes the cursor batch for scattered rows (dense-form
// selections): one bounded gather per column per batch.
func (r *Result) fillGather(idx []int) {
	if r.cur.cols == nil {
		r.cur.cols = make([]table.Column, len(r.cols))
	}
	for i := range r.cols {
		r.cur.cols[i] = r.cols[i].Gather(idx)
	}
	r.cur.n = len(idx)
}

// Strings materializes the entire result as display strings, for callers
// that want a quick [][]string dump. NULL cells render as "". It does not
// move the batch cursor.
func (r *Result) Strings() [][]string {
	if r.closed {
		return nil
	}
	rows := make([][]string, 0, r.total)
	it := table.IterSelection(r.sel, r.total)
	for {
		ri, ok := it.Next()
		if !ok {
			break
		}
		row := make([]string, len(r.cols))
		for j := range r.cols {
			row[j] = r.cols[j].Value(ri).AsString()
		}
		rows = append(rows, row)
	}
	return rows
}

// Table materializes the result as a table that owns its storage. On a
// closed Result it returns nil (the storage is gone).
func (r *Result) Table(name string) *table.Table {
	if r.closed {
		return nil
	}
	out := &table.Table{Name: name, Columns: make([]table.Column, len(r.cols))}
	for i := range r.cols {
		if r.sel == nil {
			out.Columns[i] = r.cols[i].CloneData()
		} else {
			out.Columns[i] = r.cols[i].GatherSel(r.sel)
		}
		out.Columns[i].Name = r.names[i]
	}
	return out
}

// Batch is one window of result rows: zero-copy column views with typed,
// null-aware accessors. Row indices are batch-local (0 <= row < NumRows).
type Batch struct {
	cols []table.Column
	n    int
}

// NumRows returns the number of rows in the batch.
func (b *Batch) NumRows() int { return b.n }

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.cols) }

// IsNull reports whether the cell at (col, row) is NULL.
func (b *Batch) IsNull(col, row int) bool { return b.cols[col].IsNullAt(row) }

// Int64 returns the cell as an int64 straight from typed storage.
// ok is false for NULLs and non-integer cells.
func (b *Batch) Int64(col, row int) (int64, bool) {
	c := &b.cols[col]
	if is, nulls, typed := c.Ints(); typed {
		if nulls[row] {
			return 0, false
		}
		return is[row], true
	}
	v := c.Value(row)
	if v.IsNull() || v.Kind != table.KindInt {
		return 0, false
	}
	return v.AsInt()
}

// Float64 returns the cell as a float64 (int cells promote). ok is false
// for NULLs and non-numeric cells.
func (b *Batch) Float64(col, row int) (float64, bool) {
	return b.cols[col].FloatAt(row)
}

// String returns the cell rendered as a string; NULL renders as "".
func (b *Batch) String(col, row int) string {
	return b.cols[col].Value(row).AsString()
}

// Value returns the cell as a boxed table.Value — the kind-preserving
// accessor for generic consumers (wire encoders, differential harnesses)
// that must distinguish ints, floats, bools, strings, and NULL without
// probing each typed accessor in turn.
func (b *Batch) Value(col, row int) table.Value {
	return b.cols[col].Value(row)
}

// Int64s returns the batch's int64 slab for one column: values, null
// bitmap, ok. ok is false when the column is not typed int64 storage.
// The slices are zero-copy views and must not be mutated.
func (b *Batch) Int64s(col int) ([]int64, []bool, bool) { return b.cols[col].Ints() }

// Float64s returns the batch's float64 slab for one column (see Int64s).
func (b *Batch) Float64s(col int) ([]float64, []bool, bool) { return b.cols[col].Floats() }

// StringsCol returns the batch's string slab for one column (see Int64s).
func (b *Batch) StringsCol(col int) ([]string, []bool, bool) { return b.cols[col].Strings() }
