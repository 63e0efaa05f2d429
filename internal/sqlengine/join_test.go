package sqlengine

import (
	"context"
	"fmt"
	"math"
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
		if !cellAt(res, i, "id").IsNull() {
			t.Errorf("row %d id = %v, want NULL padding", i, cellAt(res, i, "id"))
		}
	}
	if cellAt(res, res.NumRows()-2, "label").S != "orphan0" {
		t.Errorf("orphan label = %v", cellAt(res, res.NumRows()-2, "label"))
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
		if cellAt(res, i, "id").IsNull() {
			t.Errorf("row %d: probe side padded before the sweep", i)
		}
		if cellAt(res, i, "label").IsNull() {
			padded++
		}
	}
	if padded != 8 {
		t.Errorf("right-padded rows = %d, want 8", padded)
	}
	for i := 16; i < 18; i++ {
		if !cellAt(res, i, "id").IsNull() || cellAt(res, i, "label").IsNull() {
			t.Errorf("sweep row %d = (%v, %v), want (NULL, label)", i, cellAt(res, i, "id"), cellAt(res, i, "label"))
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
				if row := rowAt(res, i); row[0].S == "l_nullkey" && row[1].S == "r_nullkey" {
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
		vec, vecErr := queryTable(c, q)

		serialJoinProbe.Store(true)
		serial, serialErr := queryTable(c, q)
		serialJoinProbe.Store(false)

		forceDenseSelection.Store(true)
		dense, denseErr := queryTable(c, q)
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
		vec, err := queryTable(c, q)
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

// windowMergeCatalog builds a probe table big of n rows and a build table
// dim, shaped so each join key of big drives one path of the pair list's
// merge: u matches at most one dim row (1:1, every chunk stays in its
// window; u = 10, 11 match nothing), ff fans out to two dim rows only on
// big's first five rows, fl only on its last five, and none matches
// nothing. dim's keys 500 and 501 match no probe row, so a FULL join
// sweeps them. empty has big's columns and no rows.
func windowMergeCatalog(n int) *Catalog {
	cols := []string{"id", "u", "ff", "fl", "none"}
	kinds := []table.Kind{table.KindInt, table.KindInt, table.KindInt, table.KindInt, table.KindInt}
	big := table.MustNew("big", cols, kinds)
	for i := 0; i < n; i++ {
		u, ff, fl := i%12, i%12, i%12
		if i < 5 {
			ff = 1000
		}
		if i >= n-5 {
			fl = 2000
		}
		big.MustAppendRow(table.Int(int64(i)), table.Int(int64(u)), table.Int(int64(ff)), table.Int(int64(fl)), table.Int(-1))
	}
	dim := table.MustNew("dim", []string{"k", "w"}, []table.Kind{table.KindInt, table.KindInt})
	for i, k := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 1000, 2000, 2000, 500, 501} {
		dim.MustAppendRow(table.Int(k), table.Int(int64(i)))
	}
	c := NewCatalog()
	c.Register(big)
	c.Register(dim)
	c.Register(table.MustNew("empty", cols, kinds))
	return c
}

// TestJoinWindowMerge runs each way the probe chunks' pair windows can
// merge — all in place, a fan-out chunk forcing the fresh-buffer fallback
// at either end, the FULL sweep after an in-place merge, RIGHT's swap, no
// probe rows and no matches — and pins the parallel probe to the serial
// probe and to the row oracle, row for row. How many chunks the probe
// splits into depends on GOMAXPROCS, so CI runs it at 1 and 8 too.
func TestJoinWindowMerge(t *testing.T) {
	c := windowMergeCatalog(3 * parallelMinRows)
	sel := "SELECT big.id, big.u, dim.k, dim.w FROM "
	queries := []string{
		sel + "big JOIN dim ON big.u = dim.k",
		sel + "big LEFT JOIN dim ON big.u = dim.k",
		sel + "big JOIN dim ON big.ff = dim.k",
		sel + "big LEFT JOIN dim ON big.ff = dim.k",
		sel + "big JOIN dim ON big.fl = dim.k",
		sel + "big LEFT JOIN dim ON big.fl = dim.k AND dim.w > 0",
		sel + "big FULL OUTER JOIN dim ON big.u = dim.k",
		sel + "big FULL OUTER JOIN dim ON big.fl = dim.k",
		sel + "dim RIGHT JOIN big ON dim.k = big.u",
		sel + "dim RIGHT JOIN big ON dim.k = big.ff",
		sel + "big RIGHT JOIN dim ON big.u = dim.k",
		sel + "big JOIN dim ON big.u = dim.k WHERE big.id < 0",
		sel + "big LEFT JOIN dim ON big.u = dim.k WHERE big.id < 0",
		"SELECT empty.id, dim.k FROM empty JOIN dim ON empty.u = dim.k",
		"SELECT empty.id, dim.k FROM empty FULL OUTER JOIN dim ON empty.u = dim.k",
		sel + "big JOIN dim ON big.none = dim.k",
		sel + "big LEFT JOIN dim ON big.none = dim.k",
		sel + "big FULL OUTER JOIN dim ON big.none = dim.k",
	}
	for _, q := range queries {
		par, err := queryTable(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		serialJoinProbe.Store(true)
		serial, err := queryTable(c, q)
		serialJoinProbe.Store(false)
		if err != nil {
			t.Fatalf("%s (serial): %v", q, err)
		}
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatalf("%s (oracle): %v", q, err)
		}
		dp := dumpTable(par)
		if ds := dumpTable(serial); dp != ds {
			t.Errorf("%s: parallel vs serial probe mismatch", q)
		}
		if do := dumpTable(sca); dp != do {
			t.Errorf("%s: parallel probe vs row oracle mismatch", q)
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
	res, err := queryTable(c, q)
	if err != nil {
		t.Fatalf("vectorized: %v (short-circuit lost: erroring conjunct ran on a rejected pair)", err)
	}
	if res.NumRows() != 1 || cellAt(res, 0, "s").S != "7" {
		t.Errorf("rows = %d, want exactly the flag=true row", res.NumRows())
	}
	// The error must still surface when a surviving pair reaches the
	// erroring conjunct.
	if _, err := queryTable(c, "SELECT a.k FROM a JOIN b ON a.k = b.k AND NOT a.flag AND ABS(a.s) > 0"); err == nil {
		t.Error("expected ABS('x') error for the pair that passes NOT a.flag")
	}
}

// TestJoinNestedLoopKinds covers the no-equi-conjunct nested-loop path for
// every join kind (theta joins), differentially against the scalar
// reference. At 3000 probe rows INNER, LEFT and FULL evaluate ON over
// about five batches of parallelMinRows candidate pairs, and RIGHT (6
// probe rows × 3000 candidates) over two probe rows per batch. A conjunct
// that errors only on the last 100 probe rows' pairs (the last batch of a
// left-probing join) must still raise, and one an OR short-circuits on
// every pair must never run: batching neither skips nor adds a residual
// evaluation.
func TestJoinNestedLoopKinds(t *testing.T) {
	c := joinTestCatalog(3000)
	for _, q := range []string{
		"SELECT probe.id, sparse.label FROM probe JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe LEFT JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe RIGHT JOIN sparse ON probe.k > sparse.sk",
		"SELECT probe.id, sparse.label FROM probe FULL OUTER JOIN sparse ON probe.k > sparse.sk",
	} {
		checkDifferential(t, c, q)
	}
	for _, kind := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"} {
		late := "SELECT probe.id, sparse.label FROM probe " + kind +
			" sparse ON probe.k > sparse.sk AND (probe.id < 2900 OR ABS(sparse.label) > 0)"
		checkDifferential(t, c, late)
		if _, err := queryTable(c, late); err == nil {
			t.Errorf("%s: expected the ABS error reached only by probe.id >= 2900", kind)
		}
		never := "SELECT probe.id, sparse.label FROM probe " + kind +
			" sparse ON probe.k > sparse.sk AND (probe.id >= 0 OR ABS(sparse.label) > 0)"
		checkDifferential(t, c, never)
		if _, err := queryTable(c, never); err != nil {
			t.Errorf("%s: the short-circuited ABS ran: %v", kind, err)
		}
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
		tbl, err := queryTable(c, q)
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

// TestHashJoinMatchesEquals pins the hash join to what = means, for keys
// off the typed int and string maps: sub-second times, floats that differ
// past the ninth decimal, a NaN key (= makes NaN equal to every number),
// and an int beyond 2^53 against the float it converts to. Every join kind
// must agree with the row-at-a-time oracle, row for row.
func TestHashJoinMatchesEquals(t *testing.T) {
	at := func(ms int) table.Value {
		return table.Time(time.Date(2024, 1, 1, 0, 0, 0, ms*int(time.Millisecond), time.UTC))
	}
	cases := []struct {
		name      string
		kl, kr    table.Kind
		lk, rk    []table.Value
		wantInner int
	}{
		{"subsecond time", table.KindTime, table.KindTime,
			[]table.Value{at(250), at(750)}, []table.Value{at(250)}, 1},
		{"float past nine decimals", table.KindFloat, table.KindFloat,
			[]table.Value{table.Float(2.5000000001)}, []table.Value{table.Float(2.5)}, 0},
		{"NaN", table.KindFloat, table.KindFloat,
			[]table.Value{table.Infer("NaN")}, []table.Value{table.Float(1.5), table.Float(2.5), table.Infer("NaN")}, 3},
		{"int against float", table.KindInt, table.KindFloat,
			[]table.Value{table.Int(9007199254740993)}, []table.Value{table.Float(9007199254740992.0)}, 1},
	}
	for _, tc := range cases {
		l := table.MustNew("l", []string{"id", "lk"}, []table.Kind{table.KindInt, tc.kl})
		for i, v := range tc.lk {
			l.MustAppendRow(table.Int(int64(i)), v)
		}
		r := table.MustNew("r", []string{"rid", "rk"}, []table.Kind{table.KindInt, tc.kr})
		for i, v := range tc.rk {
			r.MustAppendRow(table.Int(int64(i)), v)
		}
		c := NewCatalog()
		c.Register(l)
		c.Register(r)
		for _, kind := range []string{"INNER", "LEFT", "RIGHT", "FULL"} {
			q := "SELECT l.id, r.rid FROM l " + kind + " JOIN r ON l.lk = r.rk"
			got, err := queryTable(c, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, q, err)
			}
			want, err := c.QueryScalar(q)
			if err != nil {
				t.Fatalf("%s: oracle: %s: %v", tc.name, q, err)
			}
			if dg, dw := dumpTable(got), dumpTable(want); dg != dw {
				t.Errorf("%s: %s\n-- engine --\n%s-- oracle --\n%s", tc.name, q, dg, dw)
			}
			if kind == "INNER" && want.NumRows() != tc.wantInner {
				t.Errorf("%s: oracle joins %d rows, want %d", tc.name, want.NumRows(), tc.wantInner)
			}
		}
	}
}

// groupJoinCatalog builds a fact table gf of n rows and a dimension gd of
// m rows for the groupjoin tests. gd's keys repeat (a key joins several
// dimension rows), one in 11 is NULL and some no fact carries; gf's keys
// reach below and past gd's and one in 13 is NULL, so every outer kind
// pads. gd's s, i and x are string, int and float group keys with NULL
// cells; x holds -0 beside 0, and a NaN.
func groupJoinCatalog(n, m int) *Catalog {
	rng := rand.New(rand.NewSource(46))
	gd := table.MustNew("gd", []string{"k", "s", "i", "x"},
		[]table.Kind{table.KindInt, table.KindString, table.KindInt, table.KindFloat})
	xs := []table.Value{table.Float(1.5), table.Float(0), table.Float(math.Copysign(0, -1)), table.Float(2.25), table.Infer("NaN")}
	for r := 0; r < m; r++ {
		k, s, i, x := table.Int(int64(rng.Intn(m*2/3))), table.Str([]string{"north", "south", "east", "west"}[rng.Intn(4)]),
			table.Int(int64(rng.Intn(5)-2)), xs[rng.Intn(len(xs))]
		if r%11 == 5 {
			k = table.Null()
		}
		if r%7 == 3 {
			s = table.Null()
		}
		if r%9 == 4 {
			i = table.Null()
		}
		if r%8 == 6 {
			x = table.Null()
		}
		gd.MustAppendRow(k, s, i, x)
	}
	gf := table.MustNew("gf", []string{"id", "k", "v"}, []table.Kind{table.KindInt, table.KindInt, table.KindFloat})
	for r := 0; r < n; r++ {
		k := table.Int(int64(rng.Intn(m) - 3))
		if r%13 == 0 {
			k = table.Null()
		}
		gf.MustAppendRow(table.Int(int64(r)), k, table.Float(float64(rng.Intn(1000))/8))
	}
	c := NewCatalog()
	c.Register(gf)
	c.Register(gd)
	return c
}

// groupJoinQueries are the groupjoin contract's statements: each groups a
// join of gf and gd by one of gd's columns, which gd is the build side of
// for every kind (a RIGHT join builds its left side). The second reads
// the key in HAVING and ORDER BY too, the third's WHERE leaves fewer pairs
// than gd has rows.
func groupJoinQueries() []string {
	shapes := []string{
		"SELECT gd.%[1]s, COUNT(*), SUM(gf.v), MAX(gd.k) FROM %[2]s GROUP BY gd.%[1]s",
		"SELECT gd.%[1]s AS g, COUNT(gf.id) AS n FROM %[2]s WHERE gf.v < 100 GROUP BY g HAVING gd.%[1]s IS NOT NULL OR COUNT(*) > 1 ORDER BY gd.%[1]s DESC",
		"SELECT gd.%[1]s, AVG(gf.v) FROM %[2]s WHERE gf.id < 200 GROUP BY 1",
	}
	var qs []string
	for _, kind := range []string{"INNER", "LEFT", "RIGHT", "FULL"} {
		from := "gf " + kind + " JOIN gd ON gf.k = gd.k"
		if kind == "RIGHT" {
			from = "gd RIGHT JOIN gf ON gd.k = gf.k"
		}
		for _, key := range []string{"s", "i", "x"} {
			for _, shape := range shapes {
				qs = append(qs, fmt.Sprintf(shape, key, from))
			}
		}
	}
	return qs
}

// TestGroupJoinMatchesGathered: grouping a join by a build-side column
// through the build rows (groupThrough) gives the groups, group order and
// aggregates that grouping the gathered column gives — for every join
// kind, duplicate and NULL build keys, NULL and unmatched probe keys
// (padded pairs), string, int and float keys, a key HAVING and ORDER BY
// read too, and a build side with more rows than there are pairs. The
// plan with its late marks cleared is the gathered path; at a small size
// both match the row-at-a-time oracle as well.
func TestGroupJoinMatchesGathered(t *testing.T) {
	ctx := context.Background()
	c := groupJoinCatalog(3*parallelMinRows, 600)
	for _, q := range groupJoinQueries() {
		p, binds, err := c.planQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if p.late == nil {
			t.Fatalf("%s: the plan leaves no column as the join's pairs", q)
		}
		gathered := *p
		gathered.late = nil
		gathered.stages = gathered.stageList()
		var dumps [2]string
		for i, plan := range []*plan{p, &gathered} {
			res, err := executeResultBound(ctx, plan, binds, nil)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			dumps[i] = dumpResult(res)
		}
		if dumps[0] != dumps[1] {
			t.Errorf("%s\n-- through the build rows --\n%s-- gathered --\n%s", q, dumps[0], dumps[1])
		}
	}
	small := groupJoinCatalog(200, 40)
	for _, q := range groupJoinQueries() {
		checkDifferential(t, small, q)
	}
}

// TestLateColumnsMarks: the plan leaves a build-side column as the join's
// pairs only when a grouped statement reads it as its sole GROUP BY key or
// at group level outside aggregate arguments.
func TestLateColumnsMarks(t *testing.T) {
	c := groupJoinCatalog(10, 10)
	// gf is columns 0..2 and gd 3..6 (k, s, i, x), or gd 0..3 and gf 4..6.
	for q, want := range map[string][]int{
		"SELECT gd.s, COUNT(*) FROM gf JOIN gd ON gf.k = gd.k GROUP BY gd.s":                      {4},
		"SELECT gd.s, gd.i, SUM(gf.v) FROM gf LEFT JOIN gd ON gf.k = gd.k GROUP BY gd.s":          {4, 5},
		"SELECT gd.s, COUNT(*) FROM gd RIGHT JOIN gf ON gd.k = gf.k GROUP BY gd.s ORDER BY gd.s":  {1},
		"SELECT gd.s, COUNT(*) FROM gf JOIN gd ON gf.k = gd.k GROUP BY gd.s HAVING MAX(gd.i) > 0": {4},
		"SELECT gf.id, COUNT(*) FROM gf JOIN gd ON gf.k = gd.k GROUP BY gf.id":                    nil,
		"SELECT gd.s, COUNT(*) FROM gf JOIN gd ON gf.k = gd.k WHERE gd.s <> 'x' GROUP BY gd.s":    nil,
		"SELECT gd.s, MAX(gd.s) FROM gf JOIN gd ON gf.k = gd.k GROUP BY gd.s":                     nil,
		"SELECT gd.s, gd.i, COUNT(*) FROM gf JOIN gd ON gf.k = gd.k GROUP BY gd.s, gd.i":          nil,
		"SELECT UPPER(gd.s), COUNT(*) FROM gf JOIN gd ON gf.k = gd.k GROUP BY UPPER(gd.s)":        nil,
		"SELECT gd.s FROM gf JOIN gd ON gf.k = gd.k":                                              nil,
		"SELECT gf.id, COUNT(*) FROM gd RIGHT JOIN gf ON gd.k = gf.k GROUP BY gf.id":              nil,
	} {
		p, _, err := c.planQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []int
		for i, m := range p.late {
			if m {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: late columns %v, want %v", q, got, want)
		}
	}
}

// TestJoinKeepsLaterOnColumns: a join no longer materializes a column only
// its own ON reads, but it must materialize one a later join's ON reads —
// here the second ON reads the first join's right side — and an early
// filter that leaves scattered rows must still restrict the FROM columns
// the first ON reads.
func TestJoinKeepsLaterOnColumns(t *testing.T) {
	a := table.MustNew("ja", []string{"id", "bid", "v"}, []table.Kind{table.KindInt, table.KindInt, table.KindInt})
	for i := 0; i < 60; i++ {
		a.MustAppendRow(table.Int(int64(i)), table.Int(int64(i%9)), table.Int(int64(i*37%100)))
	}
	b := table.MustNew("jb", []string{"id", "cid"}, []table.Kind{table.KindInt, table.KindInt})
	for i := 0; i < 8; i++ {
		b.MustAppendRow(table.Int(int64(i)), table.Int(int64(i%3)))
	}
	cc := table.MustNew("jc", []string{"id", "name"}, []table.Kind{table.KindInt, table.KindString})
	for i := 0; i < 3; i++ {
		cc.MustAppendRow(table.Int(int64(i)), table.Str(fmt.Sprintf("c%d", i)))
	}
	c := NewCatalog()
	c.Register(a)
	c.Register(b)
	c.Register(cc)
	for _, q := range []string{
		"SELECT ja.id, jc.name FROM ja JOIN jb ON ja.bid = jb.id JOIN jc ON jb.cid = jc.id",
		"SELECT ja.id, jc.name FROM ja JOIN jb ON ja.bid = jb.id JOIN jc ON jb.cid = jc.id WHERE ja.v < 40",
		"SELECT ja.id, jc.name FROM ja LEFT JOIN jb ON ja.bid = jb.id LEFT JOIN jc ON jb.cid = jc.id AND jc.id < ja.v",
		"SELECT jc.name, COUNT(*) FROM ja JOIN jb ON ja.bid = jb.id RIGHT JOIN jc ON jb.cid = jc.id GROUP BY jc.name",
		"SELECT jc.name, COUNT(*) FROM ja JOIN jb ON ja.bid = jb.id FULL JOIN jc ON jb.cid = jc.id WHERE ja.v < 70 GROUP BY jc.name",
	} {
		checkDifferential(t, c, q)
	}
	// ja is columns 0..2, jb 3..4 and jc 5..6.
	p, _, err := c.planQuery("SELECT ja.id, jc.name FROM ja JOIN jb ON ja.bid = jb.id JOIN jc ON jb.cid = jc.id")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]bool{
		{true, true, false, true, true, true, true},     // entering the first join: both ONs' columns
		{true, false, false, false, true, true, true},   // out of the first: the second ON's
		{true, false, false, false, false, false, true}, // out of the second: the select list's
	} {
		if got := p.withOn(p.keep, i); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("columns held after %d joins: %v, want %v", i, got, want)
		}
	}
}
