package datalab

import "datalab/internal/sqlengine"

// The typed result API. A query executed through Platform.QueryCtx (or a
// prepared Stmt) hands back a *Result: a cursor over the columnar result
// set that iterates zero-copy batches instead of materializing rows.
//
//	res, err := p.QueryCtx(ctx, "SELECT region, amount FROM sales WHERE amount > 100")
//	if err != nil { ... }
//	total := 0.0
//	for b := res.Next(); b != nil; b = res.Next() {
//		for i := 0; i < b.NumRows(); i++ {
//			if v, ok := b.Float64(1, i); ok {
//				total += v
//			}
//		}
//	}
//
// Every Result is output columns plus a selection of their rows. A plain
// projection of bare columns copies nothing: its columns are the
// catalog's own storage, read-only, under the WHERE selection. Aggregated,
// ordered, or computed results build their output columns once. DISTINCT,
// OFFSET and LIMIT only narrow the selection, and batches are views over
// the selected rows. Result.Strings() materializes the old [][]string
// shape for callers migrating incrementally.
//
// The types are defined in internal/sqlengine (the executor produces them
// directly); the aliases below are the public names.

// Result is a typed, batch-iterable handle over a query's columnar result
// set. See the package documentation above for the iteration pattern.
type Result = sqlengine.Result

// Batch is one window (up to 1024 rows) of a Result: zero-copy column
// views with typed, null-aware accessors (Int64, Float64, String, IsNull)
// and whole-column slab accessors (Int64s, Float64s, StringsCol).
type Batch = sqlengine.Batch

// Stmt is a prepared statement: parsed and planned once by
// Platform.Prepare, executed many times with Exec. Exec never re-parses,
// so repeated execution amortizes parse/plan cost to zero.
//
// Statements may declare placeholders — positional `?` or named `:name` —
// anywhere a literal is legal (WHERE, join ON residuals, HAVING, IN lists,
// LIMIT/OFFSET), resolved per execution by Exec(ctx, args...):
//
//	stmt, _ := p.Prepare("SELECT region, SUM(amount) FROM sales WHERE amount > ? GROUP BY region")
//	for _, threshold := range thresholds {
//		res, _ := stmt.Exec(ctx, threshold)
//		...
//	}
//
// Hot loops that fmt.Sprintf literals into the SQL text instead should
// migrate to placeholders: the inlined form re-lexes every iteration (the
// fingerprint cache saves the parse, not the scan of the text), while a
// bound execution touches the cached plan directly.
type Stmt = sqlengine.Prepared

// PlanCacheStats is a snapshot of the catalog's plan-cache counters:
// hits, misses, evictions, fingerprinted lookups, and current size/cap.
// Obtain one with Platform.PlanCacheStats.
type PlanCacheStats = sqlengine.PlanCacheStats
