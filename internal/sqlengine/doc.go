// Package sqlengine implements the in-memory SQL engine DataLab executes
// SQL cells and generated queries against. It supports the dialect the
// paper's workloads need: single/multi-table SELECT with JOIN ... ON
// (INNER, LEFT, RIGHT, and FULL OUTER), WHERE, GROUP BY, HAVING, ORDER
// BY, LIMIT/OFFSET, DISTINCT, scalar expressions, and the standard
// aggregate functions. Execution Accuracy (EX) compares result multisets
// produced by this engine.
//
// # Entry points
//
// A [Catalog] is the database: a registry of tables plus an LRU plan
// cache. The primary query path is [Catalog.QueryCtx], which plans
// through the plan cache — a statement is parsed and its names resolved
// once per template and schema (plan.go), so an unknown column is an
// error of the statement, on any data — executes with the vectorized
// engine honoring context cancellation, and returns a typed
// batch-iterable [Result]. [Catalog.Prepare] returns a reusable
// [Prepared] statement whose Exec never re-enters the parser. [Catalog.Query] materializes a full
// table.Table; [Catalog.QueryScalar] runs the row-at-a-time reference
// executor the vectorized paths are differentially tested against.
//
// # Execution model
//
// The vectorized executor works on vrel relations — zero-copy references
// to catalog column storage, addressed by the column indexes the plan's
// references carry. WHERE produces a
// table.Selection (range spans or dense indices) instead of copying rows;
// joins run the parallel selection-aware pair pipeline in join.go;
// grouping hashes rows into per-group selections; ORDER BY runs the typed
// memcmp sort kernel in sort.go. Large inputs partition across a
// process-wide bounded worker pool (parallel.go) shared by every
// concurrent query. Any expression shape the vectorized code does not
// special-case falls back to a per-row loop around the scalar evaluator,
// which keeps the two executors in agreement by construction.
//
// See docs/ENGINE.md at the repository root for the full query lifecycle
// with diagrams, and docs/ARCHITECTURE.md for design rationale.
package sqlengine
