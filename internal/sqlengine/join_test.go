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

// joinTestCatalog builds a probe table of n rows plus two join targets:
// fanout (three rows per key 0..7, so every probe row multi-matches) and
// sparse (keys 0..3 only, so half the probe rows take outer padding, plus
// keys 100..101 no probe row carries).
func joinTestCatalog(n int) *Catalog {
	probe := table.MustNew("probe",
		[]string{"id", "k", "v"},
		[]table.Kind{table.KindInt, table.KindInt, table.KindFloat})
	for i := 0; i < n; i++ {
		probe.MustAppendRow(table.Int(int64(i)), table.Int(int64(i%8)), table.Float(float64(i%97)))
	}
	fanout := table.MustNew("fanout",
		[]string{"fk", "tag", "w"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for k := 0; k < 8; k++ {
		for d := 0; d < 3; d++ {
			fanout.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("t%d_%d", k, d)), table.Float(float64(k*3+d)))
		}
	}
	sparse := table.MustNew("sparse",
		[]string{"sk", "label"},
		[]table.Kind{table.KindInt, table.KindString})
	for k := 0; k < 4; k++ {
		sparse.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("s%d", k)))
	}
	sparse.MustAppendRow(table.Int(100), table.Str("orphan0"))
	sparse.MustAppendRow(table.Int(101), table.Str("orphan1"))
	c := NewCatalog()
	c.Register(probe)
	c.Register(fanout)
	c.Register(sparse)
	return c
}

func TestJoinRightOuterSQL(t *testing.T) {
	c := joinTestCatalog(16)
	// Every sparse row is preserved: keys 0..3 match probe rows (two each
	// at n=16), keys 100/101 pad the probe side with NULLs.
	res := mustQuery(t, c, "SELECT probe.id, sparse.label FROM probe RIGHT JOIN sparse ON probe.k = sparse.sk")
	if res.NumRows() != 4*2+2 {
		t.Fatalf("rows = %d, want 10", res.NumRows())
	}
	// Output follows right-row order; the two orphans come last, padded.
	for i := res.NumRows() - 2; i < res.NumRows(); i++ {
		if !res.Get(i, "id").IsNull() {
			t.Errorf("row %d id = %v, want NULL padding", i, res.Get(i, "id"))
		}
	}
	if res.Get(res.NumRows()-2, "label").S != "orphan0" {
		t.Errorf("orphan label = %v", res.Get(res.NumRows()-2, "label"))
	}
}

func TestJoinFullOuterSQL(t *testing.T) {
	c := joinTestCatalog(16)
	// 16 probe rows: k 0..3 match (8 rows), k 4..7 pad right (8 rows),
	// then the two unmatched sparse orphans pad left, appended last.
	res := mustQuery(t, c, "SELECT probe.id, sparse.label FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk")
	if res.NumRows() != 16+2 {
		t.Fatalf("rows = %d, want 18", res.NumRows())
	}
	padded := 0
	for i := 0; i < 16; i++ {
		if res.Get(i, "id").IsNull() {
			t.Errorf("row %d: probe side padded before the sweep", i)
		}
		if res.Get(i, "label").IsNull() {
			padded++
		}
	}
	if padded != 8 {
		t.Errorf("right-padded rows = %d, want 8", padded)
	}
	for i := 16; i < 18; i++ {
		if !res.Get(i, "id").IsNull() || res.Get(i, "label").IsNull() {
			t.Errorf("sweep row %d = (%v, %v), want (NULL, label)", i, res.Get(i, "id"), res.Get(i, "label"))
		}
	}
}

// TestJoinNullKeysNeverMatchSQL pins NULL = NULL as not-a-match on both
// typed hash paths (string keys, int keys) and in the scalar reference: a
// NULL-keyed row never pairs with the other side's NULL-keyed row, and
// only outer padding carries it through.
func TestJoinNullKeysNeverMatchSQL(t *testing.T) {
	c := NewCatalog()
	for _, name := range []string{"l", "r"} {
		tb := table.MustNew(name, []string{"s", "n", "tag"}, []table.Kind{table.KindString, table.KindInt, table.KindString})
		tb.MustAppendRow(table.Null(), table.Null(), table.Str(name+"_nullkey"))
		tb.MustAppendRow(table.Str("a"), table.Int(1), table.Str(name+"_a"))
		c.Register(tb)
	}
	for _, key := range []string{"s", "n"} {
		for _, tc := range []struct {
			join string
			rows int
		}{{"JOIN", 1}, {"LEFT JOIN", 2}, {"RIGHT JOIN", 2}, {"FULL OUTER JOIN", 3}} {
			q := fmt.Sprintf("SELECT l.tag, r.tag FROM l %s r ON l.%s = r.%s", tc.join, key, key)
			res := queryBoth(t, c, q)
			if res.NumRows() != tc.rows {
				t.Errorf("%s: rows = %d, want %d\n%s", q, res.NumRows(), tc.rows, dumpTable(res))
			}
			for i := 0; i < res.NumRows(); i++ {
				if row := res.Row(i); row[0].S == "l_nullkey" && row[1].S == "r_nullkey" {
					t.Errorf("%s: NULL keys matched each other", q)
				}
			}
		}
	}
}

func TestJoinMultiMatchResidual(t *testing.T) {
	c := joinTestCatalog(8)
	// Each probe row has 3 fanout candidates; the residual keeps those
	// with w > probe.v — a cross-side conjunct, so it runs through the
	// batched candidate-pair evaluation, not the hash key.
	res := mustQuery(t, c, "SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v ORDER BY probe.id, fanout.tag")
	// probe row i has k=i, v=i; fanout rows for key i carry w = 3i..3i+2,
	// so candidates with w > i are max(0, min(3, 3i+3-i-1))... spot-check
	// against the scalar reference instead of closed form:
	sca, err := c.QueryScalar("SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v ORDER BY probe.id, fanout.tag")
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualData(res, sca) {
		t.Errorf("vectorized multi-match residual differs from scalar reference")
	}
	if res.NumRows() == 0 || res.NumRows() == 8*3 {
		t.Errorf("rows = %d: residual filtered nothing or everything, test is vacuous", res.NumRows())
	}
}

// TestJoinLargeParallelDifferential crosses the probe-chunking threshold
// so the parallel pair emission, cross-chunk merge order, span vs dense
// gathering, and the serial fallback are all differentially pinned to the
// scalar reference (and to each other).
func TestJoinLargeParallelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("large join")
	}
	c := joinTestCatalog(3 * parallelMinRows)
	queries := []string{
		"SELECT probe.id, sparse.label FROM probe JOIN sparse ON probe.k = sparse.sk",
		"SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k = sparse.sk",
		"SELECT probe.id, sparse.label FROM probe RIGHT JOIN sparse ON probe.k = sparse.sk",
		"SELECT probe.id, sparse.label FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk",
		"SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > 10",
		"SELECT probe.id, fanout.tag FROM probe LEFT JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v",
		"SELECT sparse.label, COUNT(*) FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk GROUP BY sparse.label ORDER BY 1",
	}
	for _, q := range queries {
		vec, vecErr := c.Query(q)

		serialJoinProbe.Store(true)
		serial, serialErr := c.Query(q)
		serialJoinProbe.Store(false)

		forceDenseSelection.Store(true)
		dense, denseErr := c.Query(q)
		forceDenseSelection.Store(false)

		if vecErr != nil || serialErr != nil || denseErr != nil {
			t.Fatalf("query %q: %v / %v / %v", q, vecErr, serialErr, denseErr)
		}
		dv := dumpTable(vec)
		if ds := dumpTable(serial); dv != ds {
			t.Errorf("query %q: parallel vs serial probe mismatch", q)
		}
		if dd := dumpTable(dense); dv != dd {
			t.Errorf("query %q: range vs dense mismatch", q)
		}
	}
	// The scalar nested loop at 12k×24 pairs is slow but tractable; pin
	// one shape of each padding direction end to end.
	for _, q := range []string{
		"SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k = sparse.sk",
		"SELECT probe.id, sparse.label FROM probe RIGHT JOIN sparse ON probe.k = sparse.sk",
	} {
		vec, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		if dumpTable(vec) != dumpTable(sca) {
			t.Errorf("query %q: vectorized vs scalar mismatch", q)
		}
	}
}

// TestJoinResidualShortCircuit pins the per-pair AND short-circuit of
// batched residual evaluation: a conjunct that would error (ABS of a
// string) must never evaluate on a candidate pair an earlier conjunct
// already rejected. Regression: the first batched implementation
// evaluated every conjunct over all candidates, so this query errored on
// the vectorized path while the scalar reference (which short-circuits
// AND per pair) succeeded.
func TestJoinResidualShortCircuit(t *testing.T) {
	a := table.MustNew("a",
		[]string{"k", "flag", "s"},
		[]table.Kind{table.KindInt, table.KindBool, table.KindString})
	a.MustAppendRow(table.Int(1), table.Bool(false), table.Str("x"))
	a.MustAppendRow(table.Int(1), table.Bool(true), table.Str("7"))
	b := table.MustNew("b", []string{"k"}, []table.Kind{table.KindInt})
	b.MustAppendRow(table.Int(1))
	c := NewCatalog()
	c.Register(a)
	c.Register(b)

	// Row (1,false,'x'): flag gates ABS(s) — never evaluated. Row
	// (1,true,'7'): ABS('7') coerces and passes. Both executors must
	// agree on success and on the single surviving row.
	q := "SELECT a.k, a.s FROM a JOIN b ON a.k = b.k AND a.flag AND ABS(a.s) > 0"
	checkDifferential(t, c, q)
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("vectorized: %v (short-circuit lost: erroring conjunct ran on a rejected pair)", err)
	}
	if res.NumRows() != 1 || res.Get(0, "s").S != "7" {
		t.Errorf("rows = %d, want exactly the flag=true row", res.NumRows())
	}
	// The error must still surface when a surviving pair reaches the
	// erroring conjunct.
	if _, err := c.Query("SELECT a.k FROM a JOIN b ON a.k = b.k AND NOT a.flag AND ABS(a.s) > 0"); err == nil {
		t.Error("expected ABS('x') error for the pair that passes NOT a.flag")
	}
}

// TestJoinNestedLoopKinds covers the no-equi-conjunct nested-loop path for
// every join kind (theta joins), differentially against the scalar
// reference.
func TestJoinNestedLoopKinds(t *testing.T) {
	c := joinTestCatalog(40)
	for _, q := range []string{
		"SELECT probe.id, sparse.label FROM probe JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe RIGHT JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe FULL OUTER JOIN sparse ON probe.k > sparse.sk",
	} {
		checkDifferential(t, c, q)
	}
}

// TestParallelJoinProbeRace mirrors TestCancellationMidScan for the join
// pipeline: 100k-row probes (multi-match fan-out, LEFT padding, FULL
// sweep) race against staggered cancellations under -race. Every outcome
// must be a complete result or ctx.Err() — never a partial result or a
// panic — and no worker goroutine may leak.
func TestParallelJoinProbeRace(t *testing.T) {
	if testing.Short() {
		t.Skip("large join stress")
	}
	c := joinTestCatalog(100_000)
	queries := []string{
		"SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v",
		"SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k = sparse.sk",
		"SELECT sparse.label, COUNT(*) FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk GROUP BY sparse.label",
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
	for trial := 0; trial < 90; trial++ {
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
		time.Sleep(time.Duration(trial%8) * 50 * time.Microsecond)
		cancel()
		wg.Wait()
		switch {
		case err == nil:
			if res.NumRows() != wantRows[qi] {
				t.Fatalf("trial %d: successful join returned %d rows, want %d (partial result leaked through)",
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

// TestJoinRandomKindsDifferential drives randomized join queries (all four
// kinds over both N:1 and 1:N targets with residuals) through the
// vectorized-vs-scalar check — always-on coverage beyond the fuzz corpus.
func TestJoinRandomKindsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randCatalog(rng, 300)
	seen := 0
	for i := 0; i < 400; i++ {
		q := randQuery(rng)
		if !containsJoin(q) {
			continue
		}
		seen++
		checkDifferential(t, c, q)
		if t.Failed() {
			t.Fatalf("first failure at query %d: %s", i, q)
		}
	}
	if seen < 40 {
		t.Errorf("only %d join queries generated; generator regressed?", seen)
	}
}

func containsJoin(q string) bool { return strings.Contains(q, " JOIN ") }
