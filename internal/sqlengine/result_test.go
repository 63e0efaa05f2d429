package sqlengine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datalab/internal/table"
)

// resultCatalog builds a small catalog with every typed kind, NULLs, and a
// dimension table for joins.
func resultCatalog(rows int) *Catalog {
	t := table.MustNew("facts",
		[]string{"id", "region", "amount", "qty", "flag"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat, table.KindInt, table.KindBool})
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < rows; i++ {
		amount := table.Float(float64(i%97) * 1.5)
		if i%11 == 0 {
			amount = table.Null()
		}
		t.MustAppendRow(
			table.Int(int64(i)),
			table.Str(regions[i%len(regions)]),
			amount,
			table.Int(int64(i%13)),
			table.Bool(i%2 == 0),
		)
	}
	dim := table.MustNew("dim",
		[]string{"k", "label"},
		[]table.Kind{table.KindInt, table.KindString})
	for k := 0; k < 13; k++ {
		dim.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("L%d", k)))
	}
	c := NewCatalog()
	c.Register(t)
	c.Register(dim)
	return c
}

// dumpResult renders a Result through its batch iterator in dumpTable's
// format, so the two paths can be compared strictly.
func dumpResult(r *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns(), "|"))
	sb.WriteByte('\n')
	for b := r.Next(); b != nil; b = r.Next() {
		for i := 0; i < b.NumRows(); i++ {
			for j := 0; j < b.NumCols(); j++ {
				sb.WriteString(b.cols[j].Value(i).Key())
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestResultMatchesTableExecutor runs a corpus of query shapes — lazy-
// eligible plain scans, scattered and clustered WHERE, OFFSET/LIMIT
// windows, grouping, ordering, DISTINCT, joins, computed projections —
// through both ExecuteResult and the materializing executor and requires
// identical output, via both the batch iterator and Strings().
func TestResultMatchesTableExecutor(t *testing.T) {
	for _, rows := range []int{0, 1, 100, 3000, 2*parallelMinRows + 100} {
		c := resultCatalog(rows)
		queries := []string{
			"SELECT id, amount FROM facts",                                                    // lazy, nil selection
			"SELECT * FROM facts",                                                             // lazy star expansion
			"SELECT amount, id FROM facts WHERE qty < 6",                                      // lazy, scattered selection
			"SELECT id FROM facts WHERE id < 50",                                              // lazy, one span
			"SELECT id, region FROM facts WHERE id >= 10 LIMIT 25",                            // lazy + LIMIT pushdown
			"SELECT id FROM facts LIMIT 10 OFFSET 7",                                          // lazy + OFFSET drop
			"SELECT id FROM facts OFFSET 4",                                                   // lazy OFFSET without LIMIT
			"SELECT id, amount FROM facts WHERE flag LIMIT 9999999",                           // LIMIT beyond table
			"SELECT id AS key, amount total FROM facts WHERE qty=3",                           // lazy with aliases
			"SELECT id+1 AS next, amount FROM facts WHERE qty < 4",                            // computed → materialized
			"SELECT DISTINCT region FROM facts",                                               // DISTINCT → materialized
			"SELECT id, amount FROM facts ORDER BY amount DESC, id",                           // ORDER BY → materialized
			"SELECT id FROM facts ORDER BY amount LIMIT 5 OFFSET 3",                           // top-K window
			"SELECT region, SUM(amount), COUNT(*) FROM facts GROUP BY region ORDER BY 2 DESC", // grouped
			"SELECT COUNT(*), AVG(amount) FROM facts WHERE qty > 2",                           // global aggregate
			"SELECT f.id, d.label FROM facts f JOIN dim d ON f.qty = d.k WHERE f.id < 40",     // join (lazy-shaped tail)
		}
		for _, q := range queries {
			tbl, terr := c.Query(q)
			res, rerr := c.QueryCtx(context.Background(), q)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("rows=%d query %q: error mismatch: table=%v result=%v", rows, q, terr, rerr)
			}
			if terr != nil {
				continue
			}
			want := dumpTable(tbl)
			if got := dumpResult(res); got != want {
				t.Errorf("rows=%d query %q: batch iteration mismatch\n-- result --\n%s\n-- table --\n%s", rows, q, got, want)
			}
			if err := res.Rewind(); err != nil {
				t.Fatalf("rows=%d query %q: Rewind: %v", rows, q, err)
			}
			if got := dumpResult(res); got != want {
				t.Errorf("rows=%d query %q: mismatch after Rewind", rows, q)
			}
			strs := res.Strings()
			if len(strs) != tbl.NumRows() {
				t.Fatalf("rows=%d query %q: Strings() rows = %d, want %d", rows, q, len(strs), tbl.NumRows())
			}
			for i := range strs {
				for j := range strs[i] {
					if want := tbl.Columns[j].Value(i).AsString(); strs[i][j] != want {
						t.Fatalf("rows=%d query %q: Strings()[%d][%d] = %q, want %q", rows, q, i, j, strs[i][j], want)
					}
				}
			}
		}
	}
}

// TestResultRandomizedAgainstTable drives the Result path through the same
// randomized query generator the differential fuzz harness uses.
func TestResultRandomizedAgainstTable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		c := randCatalog(rng, rng.Intn(500)+1)
		for i := 0; i < 20; i++ {
			q := randQuery(rng)
			tbl, terr := c.Query(q)
			res, rerr := c.QueryCtx(context.Background(), q)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("query %q: error mismatch: table=%v result=%v", q, terr, rerr)
			}
			if terr != nil {
				continue
			}
			if got, want := dumpResult(res), dumpTable(tbl); got != want {
				t.Fatalf("query %q: mismatch\n-- result --\n%s\n-- table --\n%s", q, got, want)
			}
		}
	}
}

// TestLazyResultSharesStorage pins the zero-copy property: a plain
// filtered projection's batches must alias the catalog column's typed
// storage, not a copy.
func TestLazyResultSharesStorage(t *testing.T) {
	c := resultCatalog(10_000)
	base, _ := c.Table("facts")
	baseInts, _, ok := base.Columns[0].Ints()
	if !ok {
		t.Fatal("id column not typed")
	}
	res, err := c.QueryCtx(context.Background(), "SELECT id FROM facts WHERE id >= 100")
	if err != nil {
		t.Fatal(err)
	}
	b := res.Next()
	if b == nil {
		t.Fatal("no batch")
	}
	is, _, ok := b.Int64s(0)
	if !ok {
		t.Fatal("batch not typed")
	}
	if &is[0] != &baseInts[100] {
		t.Error("lazy batch does not alias base storage (copied)")
	}
	// Materialized results must NOT alias base storage.
	res2, err := c.QueryCtx(context.Background(), "SELECT id FROM facts ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	b2 := res2.Next()
	is2, _, ok := b2.Int64s(0)
	if !ok || len(is2) == 0 {
		t.Fatal("ordered batch not typed")
	}
	if &is2[0] == &baseInts[0] {
		t.Error("materialized batch aliases base storage")
	}
}

// TestBatchAccessors covers the typed cell accessors, null handling, and
// type mismatches.
func TestBatchAccessors(t *testing.T) {
	c := resultCatalog(50)
	res, err := c.QueryCtx(context.Background(), "SELECT id, region, amount, flag FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	b := res.Next()
	if b.NumCols() != 4 || b.NumRows() != 50 {
		t.Fatalf("batch shape = %dx%d", b.NumCols(), b.NumRows())
	}
	if v, ok := b.Int64(0, 7); !ok || v != 7 {
		t.Errorf("Int64(0,7) = %d,%v", v, ok)
	}
	if _, ok := b.Int64(1, 0); ok {
		t.Error("Int64 over string column should fail")
	}
	if s := b.String(1, 2); s != "north" {
		t.Errorf("String(1,2) = %q", s)
	}
	if !b.IsNull(2, 0) { // amount is NULL every 11th row, starting at 0
		t.Error("IsNull(2,0) = false, want true")
	}
	if _, ok := b.Float64(2, 0); ok {
		t.Error("Float64 of NULL should fail")
	}
	if v, ok := b.Float64(2, 1); !ok || v != 1.5 {
		t.Errorf("Float64(2,1) = %v,%v", v, ok)
	}
	if v, ok := b.Float64(0, 3); !ok || v != 3 { // int promotes
		t.Errorf("Float64(0,3) = %v,%v", v, ok)
	}
	ss, nulls, ok := b.StringsCol(1)
	if !ok || len(ss) != 50 || nulls[0] {
		t.Error("StringsCol failed")
	}
	fs, _, ok := b.Float64s(2)
	if !ok || len(fs) != 50 {
		t.Error("Float64s failed")
	}
}

// TestPlanCacheLRU checks hit/miss accounting, fingerprint collapsing,
// and capacity eviction.
func TestPlanCacheLRU(t *testing.T) {
	c := resultCatalog(10)
	q := "SELECT id FROM facts"
	for i := 0; i < 5; i++ {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := c.PlanCacheStats()
	if st.Hits != 4 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats after 5 repeats = %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Size)
	}
	// Literal-varying texts fingerprint to one template: a single new
	// entry no matter how many distinct texts arrive.
	for i := 0; i < 50; i++ {
		if _, err := c.Query(fmt.Sprintf("SELECT id FROM facts WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = c.PlanCacheStats()
	if st.Size != 2 {
		t.Fatalf("50 literal variants grew the cache to %d entries, want 2", st.Size)
	}
	if st.Hits != 4+49 || st.Misses != 2 {
		t.Fatalf("stats after literal variants = %d hits, %d misses", st.Hits, st.Misses)
	}
	if st.Fingerprints != 50 {
		t.Fatalf("fingerprinted lookups = %d, want 50", st.Fingerprints)
	}
	// Structurally distinct texts beyond capacity evict the oldest.
	// Distinct column aliases defeat fingerprint collapsing (the select
	// list is never rewritten), so each text is its own template.
	for i := 0; i < DefaultPlanCacheSize+10; i++ {
		if _, err := c.Query(fmt.Sprintf("SELECT id AS c%d FROM facts", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = c.PlanCacheStats()
	if st.Size != DefaultPlanCacheSize {
		t.Fatalf("cache size = %d, want cap %d", st.Size, DefaultPlanCacheSize)
	}
	if st.Cap != DefaultPlanCacheSize {
		t.Fatalf("cache cap = %d, want %d", st.Cap, DefaultPlanCacheSize)
	}
	if st.Evictions < 10 {
		t.Fatalf("evictions = %d, want >= 10", st.Evictions)
	}
	// Parse errors are not cached.
	if _, err := c.Query("SELECT FROM"); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if st := c.PlanCacheStats(); st.Size != DefaultPlanCacheSize {
		t.Fatal("parse error was cached")
	}
}

// TestPreparedAmortizesParse is the acceptance check for prepared
// statements: 100 re-executions must not re-enter the parser.
func TestPreparedAmortizesParse(t *testing.T) {
	c := resultCatalog(100)
	stmt, err := c.Prepare("SELECT region, SUM(amount) FROM facts GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(stmt.SQL())
	if err != nil {
		t.Fatal(err)
	}
	before := ParseCalls()
	for i := 0; i < 100; i++ {
		res, err := stmt.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := dumpResult(res); got != dumpTable(want) {
			t.Fatalf("exec %d diverged", i)
		}
	}
	if after := ParseCalls(); after != before {
		t.Fatalf("100 prepared executions parsed %d times", after-before)
	}
}

// TestPreparedBindsAtExecute: a prepared statement observes table
// re-registration (names bind at execute, not prepare).
func TestPreparedBindsAtExecute(t *testing.T) {
	c := NewCatalog()
	stmt, err := c.Prepare("SELECT v FROM live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(context.Background()); err == nil {
		t.Fatal("exec against unregistered table should fail")
	}
	tb := table.MustNew("live", []string{"v"}, []table.Kind{table.KindInt})
	tb.MustAppendRow(table.Int(42))
	c.Register(tb)
	res, err := stmt.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

// TestQueryCtxCancelled: an already-cancelled context fails fast with
// ctx.Err() before any scan work.
func TestQueryCtxCancelled(t *testing.T) {
	c := resultCatalog(100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryCtx(ctx, "SELECT id FROM facts"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	stmt, err := c.Prepare("SELECT id FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(ctx); err != context.Canceled {
		t.Fatalf("prepared exec err = %v, want context.Canceled", err)
	}
}

// TestCancellationMidScan cancels contexts racing against 100k-row queries
// (parallel WHERE, parallel sort, grouped aggregation). Every outcome must
// be either a clean result or ctx.Err() — never a partial result or a
// panic — at least one cancellation must actually land mid-flight, and no
// worker goroutine may leak.
func TestCancellationMidScan(t *testing.T) {
	c := resultCatalog(100_000)
	queries := []string{
		"SELECT id, amount FROM facts WHERE qty < 9 AND amount > 10",
		"SELECT id, amount FROM facts ORDER BY amount DESC, id",
		"SELECT region, SUM(amount), COUNT(*) FROM facts WHERE qty < 11 GROUP BY region",
	}
	wantRows := make([]int, len(queries))
	for i, q := range queries {
		tbl, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		wantRows[i] = tbl.NumRows()
	}

	before := runtime.NumGoroutine()
	cancelled := 0
	for trial := 0; trial < 120; trial++ {
		qi := trial % len(queries)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		var res *Result
		var err error
		go func() {
			defer wg.Done()
			res, err = c.QueryCtx(ctx, queries[qi])
		}()
		// Stagger the cancel across the query's lifetime.
		time.Sleep(time.Duration(trial%8) * 50 * time.Microsecond)
		cancel()
		wg.Wait()
		switch {
		case err == nil:
			if res.NumRows() != wantRows[qi] {
				t.Fatalf("trial %d: successful query returned %d rows, want %d (partial result leaked through)",
					trial, res.NumRows(), wantRows[qi])
			}
		case err == context.Canceled:
			cancelled++
		default:
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
	if cancelled == 0 {
		t.Error("no trial observed a mid-flight cancellation; staggering too coarse?")
	}
	// Worker goroutines are transient: after all queries end, the count
	// must return to the baseline (allowing scheduler lag).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResultLifecycle pins the cursor state machine the server's cursor
// registry depends on: exhaustion is sticky until an explicit Rewind,
// Rewind replays identical batches in both lazy and materialized modes,
// and Close is terminal — Next yields nothing, Err/Rewind report
// ErrResultClosed, Strings/Table degrade to nil, and a second Close is a
// no-op.
func TestResultLifecycle(t *testing.T) {
	c := resultCatalog(3000)
	for _, q := range []string{
		"SELECT id, amount FROM facts WHERE qty < 9",       // lazy view mode
		"SELECT id, amount FROM facts ORDER BY amount, id", // materialized mode
	} {
		res, err := c.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		first := dumpResult(res)
		// Exhausted, not closed: Next stays nil, Err stays nil.
		for i := 0; i < 3; i++ {
			if b := res.Next(); b != nil {
				t.Fatalf("query %q: Next after exhaustion returned a batch", q)
			}
		}
		if err := res.Err(); err != nil {
			t.Fatalf("query %q: Err after exhaustion = %v, want nil", q, err)
		}
		// Rewind replays the identical result.
		if err := res.Rewind(); err != nil {
			t.Fatalf("query %q: Rewind = %v", q, err)
		}
		if got := dumpResult(res); got != first {
			t.Fatalf("query %q: second iteration after Rewind diverged", q)
		}
		// Close is terminal and idempotent.
		if err := res.Close(); err != nil {
			t.Fatalf("query %q: Close = %v", q, err)
		}
		if err := res.Close(); err != nil {
			t.Fatalf("query %q: second Close = %v", q, err)
		}
		if b := res.Next(); b != nil {
			t.Fatalf("query %q: Next after Close returned a batch", q)
		}
		if err := res.Err(); err != ErrResultClosed {
			t.Fatalf("query %q: Err after Close = %v, want ErrResultClosed", q, err)
		}
		if err := res.Rewind(); err != ErrResultClosed {
			t.Fatalf("query %q: Rewind after Close = %v, want ErrResultClosed", q, err)
		}
		if rows := res.Strings(); rows != nil {
			t.Fatalf("query %q: Strings after Close = %d rows, want nil", q, len(rows))
		}
		if tbl := res.Table("x"); tbl != nil {
			t.Fatalf("query %q: Table after Close != nil", q)
		}
		// Metadata survives Close.
		if res.NumRows() == 0 || len(res.Columns()) != 2 {
			t.Fatalf("query %q: metadata lost after Close", q)
		}
	}
}

// TestBatchValueAccessor pins the kind-preserving cell accessor wire
// encoders use: each Kind round-trips, NULL reports as such.
func TestBatchValueAccessor(t *testing.T) {
	c := resultCatalog(12)
	res, err := c.QueryCtx(context.Background(), "SELECT id, region, amount, flag FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	b := res.Next()
	if v := b.Value(0, 5); v.Kind != table.KindInt {
		t.Fatalf("Value(0,5).Kind = %v, want int", v.Kind)
	}
	if v := b.Value(1, 2); v.Kind != table.KindString || v.AsString() != "north" {
		t.Fatalf("Value(1,2) = %v %q", v.Kind, v.AsString())
	}
	if v := b.Value(2, 0); !v.IsNull() { // amount NULL every 11th row
		t.Fatal("Value(2,0) should be NULL")
	}
	if v := b.Value(3, 4); v.Kind != table.KindBool {
		t.Fatalf("Value(3,4).Kind = %v, want bool", v.Kind)
	}
}
