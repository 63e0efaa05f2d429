package sqlengine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"datalab/internal/table"
)

// Differential fuzzing: every input derives a random catalog and a batch
// of random queries (via the same generators the property tests use), and
// each query must produce identical results — row for row, cell for cell —
// across three executors:
//
//  1. the vectorized executor with range/dense selections chosen
//     adaptively (the production path),
//  2. the vectorized executor with forceDenseSelection set, so every
//     filter runs through classic dense index vectors,
//  3. the scalar row-at-a-time reference (Catalog.QueryScalar),
//  4. the typed Result API (Catalog.QueryCtx), consumed batch by batch —
//     covering the lazy zero-copy projection path and the batch cursor,
//  5. the bind-vs-inline check: the query's literals are extracted by
//     Fingerprint, the template is prepared once, and the extracted
//     values are re-supplied through Prepared.Exec as bound parameters —
//     so parameter binding must reproduce the inlined-literal results
//     row for row through both evaluators,
//  6. the snapshot-immutability check: before the query runs, the catalog
//     is frozen (Catalog.Freeze pins every table's current snapshot); the
//     frozen result must match the live one, and after a burst of
//     streaming appends lands on the live catalog the frozen catalog must
//     reproduce its result byte for byte.
//
// (1) vs (2) isolates the Selection representation: any divergence is a
// bug in span construction, merging, or span-aware gathering. (1) vs (3)
// is the end-to-end engine check; (1) vs (4) pins the Result redesign to
// the materialized reference; (1) vs (5) proves fingerprint extraction
// and parameter binding are jointly semantics-preserving — the invariant
// the Query plan cache relies on; (6) proves published snapshots are
// immutable under ingest — and because the appends accumulate, every
// later query in the batch runs the whole differential battery over
// multi-chunk, appended-to storage. The seed corpus below runs as
// ordinary unit tests under plain `go test`;
// `go test -fuzz=FuzzDifferentialSQL` explores further.

// randStatement is what the harness feeds its executors: randQuery's
// statement, one time in ten with one column name or qualifier misspelled —
// at any of its occurrences, so every position the generator writes a name
// in (select item, function and aggregate argument, CASE branch, WHERE
// conjunct and disjunct, ON, GROUP BY, HAVING, ORDER BY, window PARTITION BY
// and ORDER BY, subquery body) gets its turn, over whatever rows the
// statement's filter happens to keep. bad is the misspelled name, "" when
// the statement is as generated.
func randStatement(rng *rand.Rand) (q, bad string) {
	q = randQuery(rng)
	if rng.Intn(10) != 0 {
		return q, ""
	}
	columns := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true,
		"key": true, "label": true, "weight": true, "mkey": true, "tag": true, "score": true}
	qualifiers := map[string]bool{"data": true, "dim": true, "multi": true}
	word := func(ch byte) bool {
		return ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9'
	}
	var ends []int // where a column name, or a qualifier before its dot, ends
	quoted := false
	for i := 0; i < len(q); i++ {
		if q[i] == '\'' {
			quoted = !quoted
		}
		if quoted || !word(q[i]) || (i > 0 && word(q[i-1])) {
			continue
		}
		j := i
		for j < len(q) && word(q[j]) {
			j++
		}
		if dotted := j < len(q) && q[j] == '.'; (dotted && qualifiers[q[i:j]]) || (!dotted && columns[q[i:j]]) {
			ends = append(ends, j)
		}
	}
	if len(ends) == 0 {
		return q, ""
	}
	end := ends[rng.Intn(len(ends))]
	start := end
	for start > 0 && word(q[start-1]) {
		start--
	}
	bad = q[start:end] + "zz"
	return q[:end] + "zz" + q[end:], bad
}

// diffOneSeed runs the six-way differential check for one fuzz input.
func diffOneSeed(t *testing.T, seed int64, rows uint16, nqueries uint8) {
	t.Helper()
	nrows := int(rows)%700 + 1
	nq := int(nqueries)%48 + 1
	rng := rand.New(rand.NewSource(seed))
	c := randCatalog(rng, nrows)
	for i := 0; i < nq; i++ {
		q, bad := randStatement(rng)
		diffOneQuery(t, rng, c, q, bad)
	}
}

// diffOneQuery runs one statement through every executor. bad, when set, is
// a name in it that no table has: validity is a property of the statement
// and the schema, so every executor must then refuse it — whatever rows its
// filters keep — as an unknown column of that name.
func diffOneQuery(t *testing.T, rng *rand.Rand, c *Catalog, q, bad string) {
	t.Helper()
	frozen := c.Freeze()

	vec, vecErr := c.Query(q)

	forceDenseSelection.Store(true)
	dense, denseErr := c.Query(q)
	forceDenseSelection.Store(false)

	// Scalar reference, twice: through QueryScalar (plan-cached
	// template + binds) and through a raw parse with the literals
	// genuinely inlined, so fingerprinting never becomes the only
	// scalar path the harness exercises.
	sca, scaErr := c.QueryScalar(q)
	var raw *table.Table
	stmt, rawErr := Parse(q)
	if rawErr == nil {
		raw, rawErr = c.ExecuteScalarBound(stmt, nil)
	}

	res, resErr := c.QueryCtx(context.Background(), q)

	if (vecErr == nil) != (denseErr == nil) || (vecErr == nil) != (scaErr == nil) ||
		(vecErr == nil) != (rawErr == nil) || (vecErr == nil) != (resErr == nil) {
		t.Fatalf("query %q: error mismatch\n  range: %v\n  dense: %v\n  scalar: %v\n  raw scalar: %v\n  result: %v",
			q, vecErr, denseErr, scaErr, rawErr, resErr)
	}
	if bad != "" {
		for _, err := range []error{vecErr, denseErr, scaErr, rawErr, resErr} {
			if err == nil || !strings.Contains(err.Error(), "unknown column") || !strings.Contains(err.Error(), bad) {
				t.Fatalf("query %q: want unknown column %q, got %v", q, bad, err)
			}
		}
	}
	if vecErr != nil {
		return
	}
	dv, dd, ds := dumpTable(vec), dumpTable(dense), dumpTable(sca)
	if dv != dd {
		t.Fatalf("query %q: range vs dense selection mismatch\n-- range --\n%s\n-- dense --\n%s", q, dv, dd)
	}
	if dv != ds {
		t.Fatalf("query %q: vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", q, dv, ds)
	}
	if dr := dumpTable(raw); dv != dr {
		t.Fatalf("query %q: vectorized vs raw-inline scalar mismatch\n-- vectorized --\n%s\n-- raw --\n%s", q, dv, dr)
	}
	if dr := dumpResult(res); dv != dr {
		t.Fatalf("query %q: vectorized vs Result batches mismatch\n-- vectorized --\n%s\n-- result --\n%s", q, dv, dr)
	}
	diffBindVsInline(t, c, q, dv)
	diffFrozenSnapshot(t, rng, c, frozen, q, dv)
}

// diffFrozenSnapshot is executor #6: frozen was pinned before the query
// ran on the live catalog, so its result must match dv now — and still
// match byte for byte after a burst of streaming appends is published to
// the live catalog. The appends go through the same Appender ingest path
// production uses and stay in place, so subsequent queries in the batch
// differentially test multi-chunk appended-to storage end to end.
func diffFrozenSnapshot(t *testing.T, rng *rand.Rand, c, frozen *Catalog, q, dv string) {
	t.Helper()
	before, err := frozen.Query(q)
	if err != nil {
		t.Fatalf("query %q: frozen catalog errored where live succeeded: %v", q, err)
	}
	if db := dumpTable(before); db != dv {
		t.Fatalf("query %q: frozen vs live mismatch before ingest\n-- frozen --\n%s\n-- live --\n%s", q, db, dv)
	}

	dataApp, _ := c.Appender("data")
	multiApp, _ := c.Appender("multi")
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		if err := dataApp.Append(randDataRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		if err := multiApp.Append(randMultiRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []*table.Appender{dataApp, multiApp} {
		if _, err := app.PublishErr(); err != nil {
			t.Fatal(err)
		}
	}

	after, err := frozen.Query(q)
	if err != nil {
		t.Fatalf("query %q: frozen catalog errored after ingest: %v", q, err)
	}
	if da := dumpTable(after); da != dv {
		t.Fatalf("query %q: frozen snapshot changed under ingest\n-- before --\n%s\n-- after --\n%s", q, dv, da)
	}
}

// diffBindVsInline is executor #5: extract the query's literals with
// Fingerprint, prepare the resulting template, re-supply the extracted
// values as bound parameters, and require row-for-row agreement with the
// inlined-literal vectorized result (dv). Queries with no extractable
// literals are vacuously covered by executors 1-4.
func diffBindVsInline(t *testing.T, c *Catalog, q, dv string) {
	t.Helper()
	tmpl, vals, ok := Fingerprint(q)
	if !ok || len(vals) == 0 {
		return
	}
	stmt, err := c.Prepare(tmpl)
	if err != nil {
		t.Fatalf("query %q: fingerprint template %q does not parse: %v", q, tmpl, err)
	}
	if stmt.NumParams() != len(vals) {
		t.Fatalf("query %q: template %q has %d params, %d literals extracted", q, tmpl, stmt.NumParams(), len(vals))
	}
	args := make([]any, len(vals))
	for i, v := range vals {
		args[i] = v
	}
	res, err := stmt.Exec(context.Background(), args...)
	if err != nil {
		t.Fatalf("query %q: bound re-execution of %q failed: %v", q, tmpl, err)
	}
	if db := dumpResult(res); dv != db {
		t.Fatalf("query %q: inlined vs bound mismatch (template %q)\n-- inlined --\n%s\n-- bound --\n%s", q, tmpl, dv, db)
	}
	// The scalar evaluator must resolve the same binds identically.
	pl, err := stmt.plan()
	if err != nil {
		t.Fatal(err)
	}
	scaT, err := executeScalarBound(pl, vals)
	if err != nil {
		t.Fatalf("query %q: scalar bound re-execution of %q failed: %v", q, tmpl, err)
	}
	if ds := dumpTable(scaT); dv != ds {
		t.Fatalf("query %q: inlined vs scalar-bound mismatch (template %q)\n-- inlined --\n%s\n-- scalar bound --\n%s", q, tmpl, dv, ds)
	}
}

func FuzzDifferentialSQL(f *testing.F) {
	// Seeded corpus: varied table sizes around the parallel threshold
	// boundaries, high query counts for coverage, plus degenerate shapes
	// (empty table, single row).
	f.Add(int64(1), uint16(400), uint8(40))
	f.Add(int64(2), uint16(0), uint8(20))
	f.Add(int64(3), uint16(1), uint8(20))
	f.Add(int64(4), uint16(63), uint8(30))
	f.Add(int64(5), uint16(699), uint8(40))
	f.Add(int64(6), uint16(128), uint8(30))
	f.Add(int64(7), uint16(517), uint8(30))
	f.Add(int64(8), uint16(301), uint8(30))
	// Seeds added with the typed ORDER BY kernel: the query generator now
	// emits multi-key ORDER BY (mixed ASC/DESC over duplicate-heavy and
	// NULL-bearing keys), ORDER BY + LIMIT + OFFSET (including offsets
	// beyond the table), and boxed mixed-kind sort keys, so these inputs
	// drive the top-K heap and both comparator paths through the
	// three-way differential check.
	f.Add(int64(9), uint16(650), uint8(45))
	f.Add(int64(10), uint16(88), uint8(45))
	f.Add(int64(11), uint16(2), uint8(40))
	// Seeds added with the parallel selection-aware join pipeline: the
	// query generator now emits LEFT/RIGHT/FULL OUTER and multi-match
	// equi-joins against the duplicate-keyed `multi` table (missing and
	// NULL keys included), with residual ON conjuncts — cross-side ones
	// drive the batched candidate-pair evaluation — so these inputs cover
	// span vs dense pair gathering, null-mask padding, and the
	// unmatched-build-row sweep through the four-way differential check.
	f.Add(int64(12), uint16(500), uint8(45))
	f.Add(int64(13), uint16(120), uint8(45))
	f.Add(int64(14), uint16(3), uint8(40))
	f.Add(int64(15), uint16(680), uint8(45))
	// Seeds added with parameter binding + fingerprinting: every generated
	// query with a literal now also runs as template + bound params
	// (executor #5), so these inputs stress extraction across WHERE
	// predicates, IN-lists, BETWEEN, residual ON conjuncts, HAVING, and
	// LIMIT/OFFSET — the zones the fingerprint normalizer rewrites.
	f.Add(int64(16), uint16(450), uint8(45))
	f.Add(int64(17), uint16(77), uint8(45))
	f.Add(int64(18), uint16(640), uint8(45))
	f.Add(int64(19), uint16(5), uint8(40))
	// Seeds added with snapshot-isolated streaming ingest: executor #6
	// freezes the catalog before every query and appends between the two
	// frozen replays, so these inputs drive the whole battery over tables
	// that keep growing chunk by chunk mid-batch — small initial tables
	// make the appended chunks dominate, large ones cross the parallel
	// scan threshold with multi-chunk storage.
	f.Add(int64(20), uint16(4), uint8(47))
	f.Add(int64(21), uint16(260), uint8(45))
	f.Add(int64(22), uint16(690), uint8(45))
	f.Add(int64(23), uint16(0), uint8(47))
	// Seeds added with window functions + the richer SQL surface: the
	// query generator now emits ROW_NUMBER/RANK/DENSE_RANK and moving
	// SUM/AVG/COUNT/MIN/MAX over PARTITION BY ... ORDER BY ... specs
	// (RANGE-peer, ROWS-frame, and whole-partition shapes), simple-form
	// CASE, scalar and IN (SELECT ...) subqueries in predicates and select
	// lists, and HAVING over aliases and compound aggregate expressions —
	// so these inputs drive the shared window accumulator through both
	// engines' partition/sort machinery, subquery inlining through every
	// executor (bound and inlined), and frame arithmetic across the
	// differential battery. Sizes straddle empty, tiny, and
	// parallel-threshold tables so partitions span none, one, and many.
	f.Add(int64(24), uint16(420), uint8(47))
	f.Add(int64(25), uint16(60), uint8(47))
	f.Add(int64(26), uint16(670), uint8(45))
	f.Add(int64(27), uint16(1), uint8(40))
	f.Add(int64(28), uint16(0), uint8(40))
	f.Fuzz(diffOneSeed)
}

// TestDifferentialFuzzCorpus widens the always-on coverage beyond the
// fuzz seed corpus: a sweep of seeds through the same three-way check, then
// the statements whose validity used to depend on the rows or on the
// executor (TestUnknownNamesFailOnEveryData), each over a filter that keeps
// no row, some and all.
func TestDifferentialFuzzCorpus(t *testing.T) {
	for seed := int64(100); seed < 126; seed++ {
		diffOneSeed(t, seed, uint16(seed*37%650), 24)
	}
	c := namesCatalog()
	for _, q := range unknownNameStatements() {
		diffOneQuery(t, nil, c, q, "nosuch")
	}
}

// TestBindVsInlineCorpus pins executor #5 to a deterministic query list:
// one shape per extraction zone (WHERE comparisons, IN-lists, BETWEEN,
// LIKE, residual ON conjuncts including cross-side, HAVING, LIMIT and
// OFFSET), so a regression in any single zone fails with the query
// spelled out rather than a fuzz seed.
func TestBindVsInlineCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := randCatalog(rng, 400)
	queries := []string{
		"SELECT a, b FROM data WHERE a = 7",
		"SELECT a, c FROM data WHERE b > -12.5 AND c = 'red'",
		"SELECT a FROM data WHERE a IN (1, 3, 5) ORDER BY a",
		"SELECT a FROM data WHERE c IN ('red', 'blue') ORDER BY a, c",
		"SELECT a, b FROM data WHERE a BETWEEN -4 AND 9 ORDER BY b DESC",
		"SELECT c FROM data WHERE c LIKE 'gr%' ORDER BY 1",
		"SELECT a, dim.label FROM data JOIN dim ON data.e = dim.key AND dim.weight > 2.0 ORDER BY a, dim.label",
		"SELECT a, multi.tag FROM data LEFT JOIN multi ON data.e = multi.mkey AND multi.score > 2.5 AND data.a < multi.score ORDER BY a, multi.tag",
		"SELECT e, COUNT(*) FROM data GROUP BY e HAVING COUNT(*) > 40 ORDER BY 1",
		"SELECT c, SUM(a) FROM data WHERE a > 0 GROUP BY c HAVING SUM(a) > 100 ORDER BY 1",
		"SELECT a FROM data ORDER BY a LIMIT 10",
		"SELECT a, b FROM data WHERE e < 5 ORDER BY a DESC, b LIMIT 12 OFFSET 6",
		"SELECT a FROM data WHERE a IS NOT NULL AND a <> 3 ORDER BY a LIMIT 100 OFFSET 395",
		// Window/CASE/subquery shapes: literals inside OVER specs stay
		// inline (frame bounds are grammar), while WHERE and subquery
		// literals extract into the shared bind-slot space.
		"SELECT a, ROW_NUMBER() OVER (PARTITION BY c ORDER BY a, b) AS rn FROM data WHERE e < 6 ORDER BY a, rn LIMIT 30",
		"SELECT a, SUM(b) OVER (ORDER BY a ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS ms FROM data WHERE a > -5 ORDER BY a LIMIT 25",
		"SELECT e, RANK() OVER (ORDER BY e DESC) FROM data WHERE b < 50.5 ORDER BY 1, 2 LIMIT 20",
		"SELECT a FROM data WHERE b > (SELECT AVG(score) FROM multi WHERE score < 7.5) ORDER BY a LIMIT 15",
		"SELECT a, e FROM data WHERE e IN (SELECT mkey FROM multi WHERE score > 3.5) ORDER BY a, e LIMIT 20",
		"SELECT a, CASE c WHEN 'red' THEN 1 WHEN 'blue' THEN 2 ELSE 0 END AS rc FROM data WHERE a BETWEEN -3 AND 12 ORDER BY a, rc",
		"SELECT c, SUM(a) AS total FROM data WHERE e <> 7 GROUP BY c HAVING total > 25 ORDER BY 1",
	}
	for _, q := range queries {
		tbl, err := c.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		tmpl, vals, ok := Fingerprint(q)
		if !ok {
			t.Fatalf("query %q: Fingerprint returned ok=false", q)
		}
		if len(vals) == 0 {
			t.Fatalf("query %q: expected extracted literals, got none", q)
		}
		diffBindVsInline(t, c, q, dumpTable(tbl))
		_ = tmpl
	}
}

// TestRangeSelectionLargeParallelScan crosses the 2*parallelMinRows
// threshold so the chunked parallel WHERE path (per-chunk span emission +
// cross-chunk merge) is differentially tested, not just the serial path.
// Clustered and all-passing predicates exercise span merging across chunk
// boundaries; alternating predicates exercise the dense degradation.
func TestRangeSelectionLargeParallelScan(t *testing.T) {
	if testing.Short() {
		t.Skip("large scan")
	}
	rng := rand.New(rand.NewSource(42))
	c := randCatalog(rng, 3*parallelMinRows)
	queries := []string{
		"SELECT a, b FROM data",                                                  // no WHERE: nil selection
		"SELECT a, b FROM data WHERE a IS NOT NULL OR a IS NULL",                 // always true: one span
		"SELECT a FROM data WHERE a > 100",                                       // always false: empty
		"SELECT a, c FROM data WHERE e < 4",                                      // ~50% scattered
		"SELECT a, c FROM data WHERE e = 0",                                      // sparse
		"SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM data",                      // global agg, nil sel
		"SELECT COUNT(*), AVG(b) FROM data WHERE e < 6",                          // global agg, filtered
		"SELECT c, COUNT(*), SUM(a) FROM data WHERE e < 5 GROUP BY c ORDER BY 1", // grouped
		"SELECT a FROM data WHERE e < 3 LIMIT 7",                                 // LIMIT pushdown, no ORDER BY
		"SELECT a FROM data LIMIT 5 OFFSET 3",                                    // LIMIT pushdown over nil sel
		"SELECT a, b FROM data WHERE b > -100 ORDER BY a DESC LIMIT 9",
		"SELECT a, b, c FROM data ORDER BY c DESC, a, b DESC",           // parallel multi-key full sort
		"SELECT a, e FROM data ORDER BY e, a DESC LIMIT 40 OFFSET 9000", // top-K window near the end
		"SELECT a FROM data ORDER BY a LIMIT 3 OFFSET 20000",            // OFFSET beyond the table
		"SELECT b FROM data WHERE e <> 2 ORDER BY b DESC LIMIT 11",      // top-K over filtered selection
	}
	for _, q := range queries {
		vec, vecErr := c.Query(q)
		forceDenseSelection.Store(true)
		dense, denseErr := c.Query(q)
		forceDenseSelection.Store(false)
		sca, scaErr := c.QueryScalar(q)
		if (vecErr == nil) != (denseErr == nil) || (vecErr == nil) != (scaErr == nil) {
			t.Fatalf("query %q: error mismatch: %v / %v / %v", q, vecErr, denseErr, scaErr)
		}
		if vecErr != nil {
			continue
		}
		dv, dd, ds := dumpTable(vec), dumpTable(dense), dumpTable(sca)
		if dv != dd {
			t.Errorf("query %q: range vs dense mismatch", q)
		}
		if dv != ds {
			t.Errorf("query %q: vectorized vs scalar mismatch", q)
		}
	}
}
