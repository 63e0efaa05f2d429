package datalab

// Benchmark harness: one testing.B target per table/figure in the paper's
// evaluation (see DESIGN.md's per-experiment index), plus micro-benchmarks
// of the hot substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches print the regenerated table/figure once per run
// (on the first iteration) and report ns/op for the full experiment.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"datalab/internal/benchgen"
	"datalab/internal/experiments"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// benchScale keeps experiment benches fast while exercising the full code
// path; cmd/datalab-bench runs full workloads.
const benchScale = 0.2

var printOnce sync.Map

func printHeader(b *testing.B, name, body string) {
	if _, done := printOnce.LoadOrStore(name, true); !done {
		b.Logf("\n== %s ==\n%s", name, body)
	}
}

func BenchmarkTable1NL2SQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1("bench", benchScale)
		var sb strings.Builder
		for _, r := range rows {
			if r.Task == "NL2SQL" {
				sb.WriteString(r.Format() + "\n")
			}
		}
		printHeader(b, "Table I (NL2SQL rows)", sb.String())
	}
}

func BenchmarkTable1NL2DSCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1("bench", benchScale)
		var sb strings.Builder
		for _, r := range rows {
			if r.Task == "NL2DSCode" {
				sb.WriteString(r.Format() + "\n")
			}
		}
		printHeader(b, "Table I (NL2DSCode rows)", sb.String())
	}
}

func BenchmarkTable1NL2Insight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1("bench", benchScale)
		var sb strings.Builder
		for _, r := range rows {
			if r.Task == "NL2Insight" {
				sb.WriteString(r.Format() + "\n")
			}
		}
		printHeader(b, "Table I (NL2Insight rows)", sb.String())
	}
}

func BenchmarkTable1NL2VIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1("bench", benchScale)
		var sb strings.Builder
		for _, r := range rows {
			if r.Task == "NL2VIS" {
				sb.WriteString(r.Format() + "\n")
			}
		}
		printHeader(b, "Table I (NL2VIS rows)", sb.String())
	}
}

func BenchmarkFigure6LLMSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure6("bench", benchScale)
		var sb strings.Builder
		for _, r := range rows {
			sb.WriteString(r.Format() + "\n")
		}
		printHeader(b, "Figure 6", sb.String())
	}
}

func BenchmarkKnowledgeGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := experiments.KnowledgeGeneration("bench", 10)
		printHeader(b, "Knowledge generation (§VII-C.1)", stats.Format())
	}
}

func BenchmarkTable2KnowledgeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2("bench", 6, 90, 66)
		printHeader(b, "Table II", res.Format())
	}
}

func BenchmarkTable3CommunicationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3("bench", 4, 20)
		printHeader(b, "Table III", res.Format())
	}
}

func BenchmarkFigure7DAGConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7("bench", 49)
		if err != nil {
			b.Fatal(err)
		}
		printHeader(b, "Figure 7", experiments.FormatFigure7(points))
	}
}

func BenchmarkTable4ContextAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4("bench", 12)
		if err != nil {
			b.Fatal(err)
		}
		printHeader(b, "Table IV", res.Format())
	}
}

// --- micro-benchmarks of the substrates ---

func benchCatalog() *sqlengine.Catalog {
	t := table.MustNew("sales",
		[]string{"region", "product", "amount", "when"},
		[]table.Kind{table.KindString, table.KindString, table.KindFloat, table.KindTime})
	regions := []string{"east", "west", "north", "south"}
	products := []string{"widget", "gadget", "sprocket"}
	for i := 0; i < 5000; i++ {
		t.MustAppendRow(
			table.Str(regions[i%len(regions)]),
			table.Str(products[i%len(products)]),
			table.Float(float64(i%977)),
			table.Str(fmt.Sprintf("2024-%02d-%02d", i%12+1, i%28+1)),
		)
	}
	cat := sqlengine.NewCatalog()
	cat.Register(t)
	return cat
}

func BenchmarkSQLAggregationQuery(b *testing.B) {
	cat := benchCatalog()
	const q = "SELECT region, SUM(amount) AS total FROM sales WHERE product <> 'sprocket' GROUP BY region ORDER BY total DESC"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT a, SUM(b) AS s FROM t JOIN u ON t.k = u.k WHERE c BETWEEN 1 AND 9 AND d IN ('x','y') GROUP BY a HAVING SUM(b) > 10 ORDER BY s DESC LIMIT 5"
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnowledgeRetrieval(b *testing.B) {
	client := llm.NewClient(llm.GPT4, "bench-retrieval")
	gen := knowledge.NewGenerator(client)
	graph := knowledge.NewGraph()
	for _, et := range benchgen.GenerateEnterprise("bench-retrieval", 8) {
		bundle, err := gen.Generate(et.Schema, et.Scripts, et.Lineage)
		if err != nil {
			b.Fatal(err)
		}
		graph.AddBundle(bundle, knowledge.LevelFull)
	}
	r := knowledge.NewRetriever(graph, client)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RetrieveColumns("total income after tax by business group", 10)
	}
}

func BenchmarkNotebookDAGConstruction(b *testing.B) {
	g, err := benchgen.GenerateNotebook("bench-dag", 40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Notebook.ConstructDAG()
	}
}

// --- vectorized vs scalar execution benchmarks ---
//
// These pit the columnar vectorized engine (Catalog.Query) against the
// row-at-a-time scalar reference path (Catalog.QueryScalar) on a 100k-row
// table; the vectorized path is the one the platform uses. Run with:
//
//	go test -bench='Vectorized|Scalar' -benchmem

// benchBigTable builds the canonical 5-column sales table used across the
// micro-benchmarks (and rebuilt by the ingest benches to bound growth).
func benchBigTable(rows int) *table.Table {
	t := table.MustNew("big",
		[]string{"id", "region", "product_id", "amount", "qty"},
		[]table.Kind{table.KindInt, table.KindString, table.KindInt, table.KindFloat, table.KindInt})
	regions := []string{"east", "west", "north", "south", "emea", "apac"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			table.Int(int64(i)),
			table.Str(regions[i%len(regions)]),
			table.Int(int64(i%64)),
			table.Float(float64((i*7919)%100000)/100),
			table.Int(int64(i%13)),
		)
	}
	return t
}

// benchBigCatalog builds a 100k-row sales table plus a small dimension
// table for join benchmarks.
func benchBigCatalog(rows int) *sqlengine.Catalog {
	t := benchBigTable(rows)
	dim := table.MustNew("product",
		[]string{"pid", "category", "price"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for k := 0; k < 64; k++ {
		dim.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("cat%d", k%5)), table.Float(float64(k)*3.5))
	}
	// promo fans out: three rows per product_id, so every big row
	// multi-matches (100k probe rows -> 300k join output rows).
	promo := table.MustNew("promo",
		[]string{"pid", "deal", "discount"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for k := 0; k < 64; k++ {
		for d := 0; d < 3; d++ {
			promo.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("deal%d_%d", k, d)), table.Float(float64((k*3+d)%13)))
		}
	}
	// sparsedim covers only half the product_ids (plus orphans no big row
	// carries), so outer joins pad half the probe side and FULL OUTER has
	// build rows to sweep.
	sparsedim := table.MustNew("sparsedim",
		[]string{"pid", "label"},
		[]table.Kind{table.KindInt, table.KindString})
	for k := 0; k < 32; k++ {
		sparsedim.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("lab%d", k)))
	}
	for k := 100; k < 110; k++ {
		sparsedim.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("orphan%d", k)))
	}
	cat := sqlengine.NewCatalog()
	cat.Register(t)
	cat.Register(dim)
	cat.Register(promo)
	cat.Register(sparsedim)
	return cat
}

const (
	benchRows        = 100_000
	benchFilterQuery = "SELECT id, amount FROM big WHERE amount > 400 AND qty < 10 AND region <> 'apac'"
	benchGroupQuery  = "SELECT region, SUM(amount), COUNT(*), AVG(qty) FROM big WHERE amount > 100 GROUP BY region"
	benchJoinQuery   = "SELECT big.region, product.category, SUM(big.amount) FROM big JOIN product ON big.product_id = product.pid GROUP BY big.region, product.category"
)

func benchQuery(b *testing.B, q string, scalar bool) {
	b.Helper()
	cat := benchBigCatalog(benchRows)
	run := cat.Query
	if scalar {
		run = cat.QueryScalar
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter100kVectorized(b *testing.B) { benchQuery(b, benchFilterQuery, false) }
func BenchmarkFilter100kScalar(b *testing.B)     { benchQuery(b, benchFilterQuery, true) }

func BenchmarkGroupBy100kVectorized(b *testing.B) { benchQuery(b, benchGroupQuery, false) }
func BenchmarkGroupBy100kScalar(b *testing.B)     { benchQuery(b, benchGroupQuery, true) }

func BenchmarkJoin100kVectorized(b *testing.B) { benchQuery(b, benchJoinQuery, false) }

// BenchmarkJoin10kScalar uses 10k rows: the scalar nested-loop join over
// 100k x 64 pairs is too slow to benchmark comfortably.
func BenchmarkJoin10kScalar(b *testing.B) {
	cat := benchBigCatalog(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.QueryScalar(benchJoinQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoin10kVectorized(b *testing.B) {
	cat := benchBigCatalog(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Query(benchJoinQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// --- join pipeline sweep ---
//
// One benchmark per join shape over the 100k-row probe table, each paired
// with a Serial twin that pins the single-goroutine probe baseline via the
// sqlengine.SerialJoinProbe hook — the delta is the parallel pipeline's
// win. MultiMatch measures dense-pair fan-out (300k output rows), Residual
// adds a cross-side ON conjunct (batched candidate-pair evaluation),
// LeftOuter/FullOuter measure null-mask padding and the unmatched-build
// sweep, RightOuter the probe-side flip. Run:
//
//	go test -run xxx -bench=Join -benchmem

const (
	benchJoinMultiQuery    = "SELECT big.id, promo.discount FROM big JOIN promo ON big.product_id = promo.pid"
	benchJoinResidualQuery = "SELECT big.id, promo.deal FROM big JOIN promo ON big.product_id = promo.pid AND promo.discount > big.qty"
	benchJoinLeftQuery     = "SELECT big.id, sparsedim.label FROM big LEFT JOIN sparsedim ON big.product_id = sparsedim.pid"
	benchJoinFullQuery     = "SELECT big.id, sparsedim.label FROM big FULL OUTER JOIN sparsedim ON big.product_id = sparsedim.pid"
	benchJoinRightQuery    = "SELECT big.id, promo.deal FROM promo RIGHT JOIN big ON promo.pid = big.product_id"
)

func benchJoin(b *testing.B, q string, serial bool) {
	b.Helper()
	cat := benchBigCatalog(benchRows)
	if serial {
		sqlengine.SerialJoinProbe.Store(true)
		defer sqlengine.SerialJoinProbe.Store(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinMultiMatch100k(b *testing.B)       { benchJoin(b, benchJoinMultiQuery, false) }
func BenchmarkJoinMultiMatch100kSerial(b *testing.B) { benchJoin(b, benchJoinMultiQuery, true) }
func BenchmarkJoinResidual100k(b *testing.B)         { benchJoin(b, benchJoinResidualQuery, false) }
func BenchmarkJoinResidual100kSerial(b *testing.B)   { benchJoin(b, benchJoinResidualQuery, true) }
func BenchmarkJoinLeftOuter100k(b *testing.B)        { benchJoin(b, benchJoinLeftQuery, false) }
func BenchmarkJoinLeftOuter100kSerial(b *testing.B)  { benchJoin(b, benchJoinLeftQuery, true) }
func BenchmarkJoinFullOuter100k(b *testing.B)        { benchJoin(b, benchJoinFullQuery, false) }
func BenchmarkJoinFullOuter100kSerial(b *testing.B)  { benchJoin(b, benchJoinFullQuery, true) }
func BenchmarkJoinRightOuter100k(b *testing.B)       { benchJoin(b, benchJoinRightQuery, false) }
func BenchmarkJoinRightOuter100kSerial(b *testing.B) { benchJoin(b, benchJoinRightQuery, true) }

// --- selectivity sweep ---
//
// One benchmark per WHERE selectivity over the 100k-row table, in two
// layouts: clustered (passing rows form one contiguous run, the best case
// for span-form selections) and scattered (passing rows alternate, forcing
// dense indices). allocs/op is the zero-copy signal: an all-passing or
// clustered predicate must not allocate a per-row selection vector. Run:
//
//	go test -run xxx -bench=Selectivity -benchmem

func benchSelectivity(b *testing.B, where string) {
	b.Helper()
	cat := benchBigCatalog(benchRows)
	q := "SELECT id, amount FROM big WHERE " + where
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectivity0(b *testing.B)   { benchSelectivity(b, "id < 0") }
func BenchmarkSelectivity1(b *testing.B)   { benchSelectivity(b, "id < 1000") }
func BenchmarkSelectivity50(b *testing.B)  { benchSelectivity(b, "id < 50000") }
func BenchmarkSelectivity99(b *testing.B)  { benchSelectivity(b, "id < 99000") }
func BenchmarkSelectivity100(b *testing.B) { benchSelectivity(b, "id >= 0") }

// Scattered variants: the same pass rates but spread periodically through
// the table, so passing rows never form long runs.
func BenchmarkSelectivity1Scattered(b *testing.B)  { benchSelectivity(b, "id % 100 = 0") }
func BenchmarkSelectivity50Scattered(b *testing.B) { benchSelectivity(b, "id % 2 = 0") }

// --- ORDER BY sweep ---
//
// One benchmark per ORDER BY shape over the 100k-row table. allocs/op is
// the boxing signal: the typed sort kernel must not box a Value per
// comparison, and ORDER BY + LIMIT k must keep a bounded heap instead of
// sorting all 100k rows. Scalar variants pin the row-at-a-time reference
// for the speedup tables. Run:
//
//	go test -run xxx -bench=OrderBy -benchmem

func benchOrderBy(b *testing.B, q string, scalar bool) {
	b.Helper()
	cat := benchBigCatalog(benchRows)
	run := cat.Query
	if scalar {
		run = cat.QueryScalar
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(q); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	benchOrderByQuery         = "SELECT id, amount FROM big ORDER BY amount"
	benchOrderByLimitQuery    = "SELECT id, amount FROM big ORDER BY amount DESC LIMIT 10"
	benchOrderByMultiKeyQuery = "SELECT region, qty, amount FROM big ORDER BY region, qty DESC, amount"
	benchOrderByOffsetQuery   = "SELECT id, amount FROM big ORDER BY amount LIMIT 10 OFFSET 1000"
)

func BenchmarkOrderBy100k(b *testing.B)        { benchOrderBy(b, benchOrderByQuery, false) }
func BenchmarkOrderBy100kScalar(b *testing.B)  { benchOrderBy(b, benchOrderByQuery, true) }
func BenchmarkOrderByLimit(b *testing.B)       { benchOrderBy(b, benchOrderByLimitQuery, false) }
func BenchmarkOrderByLimitScalar(b *testing.B) { benchOrderBy(b, benchOrderByLimitQuery, true) }
func BenchmarkOrderByMultiKey(b *testing.B)    { benchOrderBy(b, benchOrderByMultiKeyQuery, false) }
func BenchmarkOrderByLimitOffset(b *testing.B) { benchOrderBy(b, benchOrderByOffsetQuery, false) }
func BenchmarkOrderByFiltered(b *testing.B) {
	benchOrderBy(b, "SELECT id, amount FROM big WHERE qty < 7 ORDER BY amount DESC LIMIT 25", false)
}

// --- result consumption: typed batches vs stringly materialization ---
//
// The headline pair for the typed Result API on the same 100k-row filtered
// scan: BenchmarkResultBatches100k consumes the result through zero-copy
// batch views and typed slab accessors (what QueryCtx callers do), while
// BenchmarkResultStrings100k runs the [][]string pipeline (materialize
// the output table, then box and stringify every cell). bytes/op and
// allocs/op are the signal: the batch path must not allocate per row or
// per cell. The Scattered pair repeats the comparison with a dense-form
// selection, where batches gather instead of viewing. Run:
//
//	go test -run xxx -bench='Result|Prepared' -benchmem

// benchConsumeBatches drains a Result through typed slab accessors,
// summing the float column — the intended consumption pattern.
func benchConsumeBatches(b *testing.B, res *Result) {
	b.Helper()
	var total float64
	for batch := res.Next(); batch != nil; batch = res.Next() {
		if fs, nulls, ok := batch.Float64s(1); ok {
			for j, f := range fs {
				if !nulls[j] {
					total += f
				}
			}
			continue
		}
		for j := 0; j < batch.NumRows(); j++ {
			if f, ok := batch.Float64(1, j); ok {
				total += f
			}
		}
	}
	if total == 0 {
		b.Fatal("empty scan")
	}
}

// benchLegacyStrings reproduces the pre-redesign tableToStrings path bit
// for bit: a materialized result table, then one []string per row and one
// boxed stringification per cell.
func benchLegacyStrings(b *testing.B, cat *sqlengine.Catalog, q string) {
	b.Helper()
	tbl, err := cat.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	cols := tbl.ColumnNames()
	rows := make([][]string, tbl.NumRows())
	for i := range rows {
		row := make([]string, len(cols))
		for j, v := range tbl.Row(i) {
			row[j] = v.AsString()
		}
		rows[i] = row
	}
	if len(rows) == 0 {
		b.Fatal("empty scan")
	}
}

const (
	benchResultClusteredQuery = "SELECT id, amount FROM big WHERE id < 90000"   // one span: zero-copy batches
	benchResultScatteredQuery = "SELECT id, amount FROM big WHERE amount > 100" // short runs: span/gather mix
)

func BenchmarkResultBatches100k(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cat.QueryCtx(ctx, benchResultClusteredQuery)
		if err != nil {
			b.Fatal(err)
		}
		benchConsumeBatches(b, res)
	}
}

func BenchmarkResultStrings100k(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLegacyStrings(b, cat, benchResultClusteredQuery)
	}
}

func BenchmarkResultBatchesScattered(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cat.QueryCtx(ctx, benchResultScatteredQuery)
		if err != nil {
			b.Fatal(err)
		}
		benchConsumeBatches(b, res)
	}
}

func BenchmarkResultStringsScattered(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLegacyStrings(b, cat, benchResultScatteredQuery)
	}
}

// --- prepared statements: parse amortization ---
//
// The same small aggregation, re-executed: BenchmarkPreparedExec runs a
// Prepared handle (no parsing ever), BenchmarkPreparedExecReparse re-parses
// the text each iteration (the pre-plan-cache cost a fresh SQL string still
// pays). The delta is the amortized parse/plan cost.

const benchPreparedQuery = "SELECT region, SUM(amount) AS total, COUNT(*) FROM big WHERE qty < 9 GROUP BY region ORDER BY total DESC LIMIT 3"

func BenchmarkPreparedExec(b *testing.B) {
	cat := benchBigCatalog(64)
	stmt, err := cat.Prepare(benchPreparedQuery)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreparedExecReparse(b *testing.B) {
	cat := benchBigCatalog(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlengine.Parse(benchPreparedQuery)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cat.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedBind100k is the steady-state hot loop the placeholder
// API exists for: one prepared template over the 100k-row catalog, a fresh
// argument bound every execution. Binding is a slice write per slot; against
// BenchmarkPreparedExecReparse the delta is the parse/plan cost avoided.
func BenchmarkPreparedBind100k(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	stmt, err := cat.Prepare("SELECT region, SUM(amount) AS total, COUNT(*) FROM big WHERE qty < ? GROUP BY region ORDER BY total DESC LIMIT ?")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(ctx, 1+i%12, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFingerprintHit: Query text changes every iteration but all
// texts normalize to one template, so steady state is fingerprint + plan
// cache hit + execute — no parsing. This is the agent-traffic shape the
// fingerprint normalizer was built for.
func BenchmarkQueryFingerprintHit(b *testing.B) {
	cat := benchBigCatalog(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT region, SUM(amount) FROM big WHERE qty < %d AND region <> '%s' GROUP BY region", 1+i%12, "apac")
		if _, err := cat.QueryCtx(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFingerprintMiss: every text is a structurally distinct
// template (the alias defeats normalization), so each iteration pays
// fingerprint + full parse + cache insert — the worst case, bounding the
// normalizer's overhead on top of a guaranteed miss.
func BenchmarkQueryFingerprintMiss(b *testing.B) {
	cat := benchBigCatalog(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT id AS c%d FROM big WHERE id < %d", i, i%64)
		if _, err := cat.QueryCtx(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintOnly isolates the normalizer itself: lex + splice,
// no cache, no execution.
func BenchmarkFingerprintOnly(b *testing.B) {
	const q = "SELECT region, SUM(amount) FROM big WHERE qty < 7 AND region <> 'apac' AND id IN (1, 2, 3) GROUP BY region HAVING COUNT(*) > 2 LIMIT 5"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := sqlengine.Fingerprint(q); !ok {
			b.Fatal("fingerprint failed")
		}
	}
}

// BenchmarkConcurrentQuery measures throughput with many goroutines sharing
// the catalog and the engine's bounded worker pool.
func BenchmarkConcurrentQuery(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cat.Query(benchGroupQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- streaming ingest benchmarks ---
//
// BenchmarkAppend measures the writer hot path (stage a row into the
// pending chunk; publish a snapshot every 1024 rows), and
// BenchmarkQueryDuringIngest measures reader throughput while a background
// ingester publishes snapshots continuously — the delta against
// BenchmarkGroupBy100kVectorized is the cost readers pay for live ingest,
// which the lock-free snapshot design keeps near zero. Run:
//
//	go test -run xxx -bench='Append|Ingest' -benchmem

func BenchmarkAppend(b *testing.B) {
	cat := sqlengine.NewCatalog()
	fresh := func() *table.Appender {
		cat.Register(table.MustNew("stream",
			[]string{"v", "p"}, []table.Kind{table.KindInt, table.KindInt}))
		app, _ := cat.Appender("stream")
		return app
	}
	app := fresh()
	row := []table.Value{table.Int(0), table.Int(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0], row[1] = table.Int(int64(i)), table.Int(int64(i&1))
		if err := app.Append(row); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if _, err := app.PublishErr(); err != nil {
				b.Fatal(err)
			}
		}
		// Bound arena growth on long runs by starting a fresh table.
		if i%(1<<21) == (1<<21)-1 {
			b.StopTimer()
			app = fresh()
			b.StartTimer()
		}
	}
	if _, err := app.PublishErr(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueryDuringIngest(b *testing.B) {
	cat := benchBigCatalog(benchRows)
	app, _ := cat.Appender("big")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		regions := []string{"east", "west", "north", "south", "emea", "apac"}
		i := benchRows
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 512; k++ {
				_ = app.Append([]table.Value{
					table.Int(int64(i)),
					table.Str(regions[i%len(regions)]),
					table.Int(int64(i % 64)),
					table.Float(float64((i*7919)%100000) / 100),
					table.Int(int64(i % 13)),
				})
				i++
			}
			if snap, _ := app.PublishErr(); snap.NumRows() >= 2*benchRows { // memory-only: cannot fail
				// Re-register at seed size so long runs stay bounded; the
				// schema is unchanged, so the plan cache survives the swap.
				cat.Register(benchBigTable(benchRows))
				app, _ = cat.Appender("big")
				i = benchRows
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Query(benchGroupQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func BenchmarkPlatformAsk(b *testing.B) {
	p := MustNew(WithSeed("bench-ask"))
	if err := p.LoadRecords("sales",
		[]string{"region", "revenue"},
		[][]string{{"east", "100"}, {"west", "250"}, {"north", "90"}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Ask("total revenue by region", "sales"); err != nil {
			b.Fatal(err)
		}
	}
}
