// Package datalab is the public facade of the DataLab reproduction: a
// unified, LLM-powered business-intelligence platform combining a
// multi-agent framework (SQL, analysis, visualization, insight agents
// coordinated by a proxy over an FSM plan) with a computational-notebook
// backend, per "DataLab: A Unified Platform for LLM-Powered Business
// Intelligence" (ICDE 2025).
//
// A [Platform] owns a warehouse catalog, an optional enterprise knowledge
// graph, and the simulated LLM client. Typical use:
//
//	p := datalab.MustNew(datalab.WithSeed("demo"))
//	p.LoadCSV("sales", file)
//	ans, err := p.Ask("total revenue by region as a bar chart", "sales")
//	fmt.Println(ans.SQL, ans.ChartJSON)
//
// # Querying
//
// Raw SQL goes straight at the vectorized columnar engine through
// [Platform.QueryCtx], which returns a typed, batch-iterable [Result]:
//
//	res, err := p.QueryCtx(ctx, "SELECT region, revenue FROM sales WHERE revenue > 100")
//	for b := res.Next(); b != nil; b = res.Next() {
//		for i := 0; i < b.NumRows(); i++ {
//			if v, ok := b.Float64(1, i); ok { ... }
//		}
//	}
//
// Hot queries prepare once with [Platform.Prepare] and re-execute the
// returned [Stmt] without ever re-parsing. The engine supports multi-table
// queries with INNER, LEFT, RIGHT, and FULL OUTER joins, grouping, typed
// multi-key ordering with top-K pushdown, and chunk-granular context
// cancellation; see docs/ENGINE.md for the execution lifecycle.
//
// A Platform is safe for concurrent use: Ask, QueryCtx, and Stmt.Exec may
// run from many goroutines at once, and knowledge updates are
// copy-on-write snapshots that never race in-flight readers.
package datalab
