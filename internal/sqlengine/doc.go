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
// cache. The query path is [Catalog.QueryCtx], which plans through the
// plan cache — a statement is parsed and its names resolved once per
// template and schema (plan.go), so an unknown column is an error of the
// statement, on any data — executes with the vectorized engine honoring
// context cancellation, and returns a typed batch-iterable [Result].
// [Catalog.Prepare] returns a reusable [Prepared] statement whose Exec
// never re-enters the parser and returns the same Result.
//
// # Execution model
//
// One loop walks the plan's stage list (plan.stages: scan_filter, joins,
// group or window, project, sort, finish), marking each stage on the
// trace. The stages work on vrel relations — zero-copy references to
// catalog column storage, addressed by the column indexes the plan's
// references carry. WHERE produces a table.Selection (range spans or
// dense indices) instead of copying rows;
// joins run the parallel selection-aware pair pipeline in join.go;
// grouping gives every selected row its group's id and folds each
// aggregate by id (vgroups), and a join grouped by a dimension column
// groups that column's build rows once, not its pairs (groupThrough); ORDER BY sorts positions by one comparator
// over the typed key columns (rowOrder in sort.go). Every execution ends
// as one Result over output columns and a selection of their rows:
// DISTINCT keeps the first row of each groupKeys group, and OFFSET/LIMIT
// drop and truncate the selection.
// Large inputs partition across a
// process-wide bounded worker pool (parallel.go) shared by every
// concurrent query. Expressions have one evaluator, evalVec (vector.go):
// every node's kind decided from its operands' kinds (kind.go), then typed
// loops where those kinds allow, otherwise one per-row loop over the child
// columns that calls the value-level library in eval.go, with every child evaluated only on the rows a row-at-a-time
// walk would reach it on. That row-at-a-time walk — the seed's scalar
// executor — lives in the package's test files as the oracle the
// differential tests check the engine against.
//
// See docs/ENGINE.md at the repository root for the full query lifecycle
// with diagrams, and docs/ARCHITECTURE.md for design rationale.
package sqlengine
