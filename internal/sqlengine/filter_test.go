package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"datalab/internal/table"
)

// kernelTestColumns are the typed columns of the property test: per kind,
// one without NULLs and one with, the floats also carrying NaN and both
// infinities, the ints reaching past 2^53 where float64 conflates
// neighbours.
func kernelTestColumns(rng *rand.Rand, n int) []table.Column {
	const big = int64(1) << 53
	nulls := func(on bool) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = on && rng.Intn(7) == 0
		}
		return m
	}
	var cols []table.Column
	for _, withNulls := range []bool{false, true} {
		ints, huge := make([]int64, n), make([]int64, n)
		floats, odd := make([]float64, n), make([]float64, n)
		strs := make([]string, n)
		for i := 0; i < n; i++ {
			ints[i] = int64(rng.Intn(9) - 3)
			huge[i] = []int64{big - 1, big, big + 1, big + 2, -big - 1, math.MaxInt64, math.MinInt64, 3}[rng.Intn(8)]
			floats[i] = float64(rng.Intn(9)-3) / 2
			odd[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5, -1, 3}[rng.Intn(6)]
			strs[i] = []string{"", "a", "m", "mm", "z"}[rng.Intn(5)]
			if i > n/3 && i < n/2 { // a clustered stretch, so spans form
				ints[i], floats[i], strs[i] = 2, 1.5, "m"
			}
		}
		tag := fmt.Sprintf("%v", withNulls)
		cols = append(cols,
			table.ColumnFromInts("i"+tag, ints, nulls(withNulls)),
			table.ColumnFromInts("h"+tag, huge, nulls(withNulls)),
			table.ColumnFromFloats("f"+tag, floats, nulls(withNulls)),
			table.ColumnFromFloats("o"+tag, odd, nulls(withNulls)),
			table.ColumnFromStrings("s"+tag, strs, nulls(withNulls)))
	}
	return cols
}

func sameSelection(a, b *table.Selection) bool {
	_, aSpans := a.Spans()
	_, bSpans := b.Spans()
	return aSpans == bSpans && reflect.DeepEqual(a.Indices(), b.Indices())
}

// TestKernelCompareMatchesEvalVec drives every comparison the kernels claim
// — six operators × int/float/string columns × int/float/string/NULL
// constants × constant on either side × literal or bound parameter — over
// NULLs, NaN, ±Inf and integers beyond 2^53, from a row range, a span
// selection and a dense selection, and requires the kernel's selection to be
// the one evalVec + passSelection produces (rows and representation) and the
// one the scalar evaluator produces row by row. Kinds that do not line up
// must be reported as not covered.
func TestKernelCompareMatchesEvalVec(t *testing.T) {
	const n = 211
	rng := rand.New(rand.NewSource(21))
	consts := []table.Value{
		table.Int(2), table.Int(-3), table.Int(1<<53 + 1), table.Int(math.MaxInt64),
		table.Float(1.5), table.Float(2), table.Float(float64(1 << 53)), table.Float(math.NaN()),
		table.Float(math.Inf(1)), table.Float(math.Inf(-1)),
		table.Str("m"), table.Str(""), table.Null(),
	}
	rel := vrelFrom(&table.Table{Name: "t", Columns: kernelTestColumns(rng, n)}, &execArgs{binds: consts})
	// What the resolver does for a statement's references, by hand.
	colRef := func(name string) *ColumnRef {
		for ci := range rel.cols {
			if rel.cols[ci].Name == name {
				return &ColumnRef{Name: name, idx: ci}
			}
		}
		t.Fatalf("no column %q", name)
		return nil
	}
	dense := make([]int, 0, n/2)
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		dense = append(dense, i)
	}
	inputs := map[string]*table.Selection{
		"range": table.NewSpanSelection(table.Span{Lo: 17, Hi: n - 9}),
		"spans": table.NewSpanSelection(table.Span{Lo: 0, Hi: 40}, table.Span{Lo: 55, Hi: 120}, table.Span{Lo: 121, Hi: n}),
		"dense": table.NewIndexSelection(dense),
	}
	numeric := func(k table.Kind) bool { return k == table.KindInt || k == table.KindFloat }

	check := func(name string, e Expr, wantCovered bool) {
		t.Helper()
		cmps, ncmps := kernelForm(e, rel)
		kern, covered := cmps[:ncmps], ncmps > 0
		if covered != wantCovered {
			t.Fatalf("%s: kernel coverage = %v, want %v", name, covered, wantCovered)
		}
		if !covered {
			return
		}
		for in, sel := range inputs {
			got, sawNull := narrow(rel, kern, sel)
			col, err := evalVec(e, rel, sel)
			if err != nil {
				t.Fatalf("%s: evalVec: %v", name, err)
			}
			if want := passSelection(&col, sel); !sameSelection(got, want) {
				t.Fatalf("%s over %s: kernel selects %v, evalVec %v", name, in, got.Indices(), want.Indices())
			}
			ref, err := rowFallback(e, rel, sel)
			if err != nil {
				t.Fatalf("%s: scalar: %v", name, err)
			}
			if want := passSelection(&ref, sel); !reflect.DeepEqual(got.Indices(), want.Indices()) {
				t.Fatalf("%s over %s: kernel selects %v, scalar %v", name, in, got.Indices(), want.Indices())
			}
			anyNull := false
			sel.ForEach(func(r int) { anyNull = anyNull || rel.cols[kern[0].col].IsNullAt(r) })
			if len(kern) == 1 && sawNull != anyNull {
				t.Fatalf("%s over %s: sawNull = %v, column has NULL in range = %v", name, in, sawNull, anyNull)
			}
		}
	}

	for ci := range rel.cols {
		ref := colRef(rel.cols[ci].Name)
		colKind := rel.cols[ci].Kind
		for ki, k := range consts {
			lines := numeric(colKind) && numeric(k.Kind) || colKind == table.KindString && k.Kind == table.KindString
			for _, constant := range []Expr{&Literal{Value: k}, &Param{Index: ki}} {
				for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
					name := fmt.Sprintf("%s %s %v (%T)", ref.Name, op, k, constant)
					check(name, &Binary{Op: op, L: ref, R: constant}, lines)
					check("flipped "+name, &Binary{Op: op, L: constant, R: ref}, lines)
				}
				// BETWEEN rides the same kernels as its two comparisons; a
				// bound of another kind leaves the whole conjunct uncovered.
				hi := &Literal{Value: table.Float(2)}
				check(fmt.Sprintf("%s BETWEEN %v AND 2.0", ref.Name, k), &Between{X: ref, Lo: constant, Hi: hi}, lines && numeric(colKind))
				check(fmt.Sprintf("%s NOT BETWEEN %v AND 2.0", ref.Name, k), &Between{X: ref, Lo: constant, Hi: hi, Not: true}, false)
			}
		}
	}
	// Shapes that look close but are not column-against-constant.
	for _, e := range []Expr{
		&Binary{Op: "=", L: colRef("ifalse"), R: colRef("ffalse")},
		&Binary{Op: "<", L: &Binary{Op: "+", L: colRef("ifalse"), R: &Literal{Value: table.Int(1)}}, R: &Literal{Value: table.Int(1)}},
		&Binary{Op: "LIKE", L: colRef("sfalse"), R: &Literal{Value: table.Str("m%")}},
		&Binary{Op: "<", L: colRef("ifalse"), R: &Param{Index: len(consts)}}, // unbound
	} {
		check(e.SQL(), e, false)
	}

	// forceDenseSelection reaches the kernel path too.
	cmps, _ := kernelForm(&Binary{Op: "=", L: colRef("ifalse"), R: &Literal{Value: table.Int(2)}}, rel)
	kern := cmps[:1]
	forceDenseSelection.Store(true)
	forced, _ := narrow(rel, kern, inputs["range"])
	forceDenseSelection.Store(false)
	natural, _ := narrow(rel, kern, inputs["range"])
	if _, spans := forced.Spans(); spans || !reflect.DeepEqual(forced.Indices(), natural.Indices()) {
		t.Fatalf("forceDenseSelection: kernel emitted span form or other rows")
	}
	if _, spans := natural.Spans(); !spans {
		t.Fatalf("clustered column: kernel emitted dense form %v", natural.Indices())
	}
}

// TestFilterWhereKernelVsGeneralLarge runs the chunked WHERE over a relation
// past the parallel threshold through the kernels and, wrapped as `p OR p`
// (same truth table, no longer a kernel shape), through the general path —
// on the worker pool, so it belongs to the -race battery.
func TestFilterWhereKernelVsGeneralLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 3*parallelMinRows + 77
	c := NewCatalog()
	c.Register(&table.Table{Name: "t", Columns: kernelTestColumns(rng, n)})
	for _, q := range []string{
		"ifalse >= 0 AND ifalse < 2", "itrue = 2", "2.5 > ftrue", "strue <> 'm' AND itrue > -2",
		"otrue BETWEEN -1 AND 3", "htrue > 9007199254740992.0", "ifalse < 3 AND ftrue * 2 > 1", "itrue > 0 AND strue LIKE 'm%'",
	} {
		stmt, err := Parse("SELECT * FROM t WHERE " + q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.resolve(stmt)
		if err != nil {
			t.Fatal(err)
		}
		rel := vrelFrom(p.apps[0].Snapshot().Table(), &execArgs{})
		got, err := filterWhere(context.Background(), rel, stmt.Where)
		if err != nil {
			t.Fatal(err)
		}
		want, err := filterWhere(context.Background(), rel, &Binary{Op: "OR", L: stmt.Where, R: stmt.Where})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Indices(), want.Indices()) {
			t.Errorf("WHERE %s: kernel path keeps %d rows, general path %d", q, got.Len(), want.Len())
		}
	}
}

// TestWhereShapesThatKeepTheOldOrder shows which statements the predicate's
// shape leaves on the general path and on the join-then-filter order.
func TestWhereShapesThatKeepTheOldOrder(t *testing.T) {
	c := joinTestCatalog(64)
	shape := func(q string) (kernels int, rest Expr, early *table.Selection) {
		t.Helper()
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.resolve(stmt)
		if err != nil {
			t.Fatal(err)
		}
		from := vrelFrom(p.apps[0].Snapshot().Table(), &execArgs{})
		kern, rest := splitKernelPrefix(stmt.Where, from)
		if !p.earlyFilter {
			return len(kern), rest, nil
		}
		early, rest, err = filterBeforeJoins(context.Background(), from, stmt.Where)
		if err != nil {
			t.Fatal(err)
		}
		return len(kern), rest, early
	}

	// Kernel prefix, nothing after it.
	if k, rest, _ := shape("SELECT id FROM probe WHERE id >= 3 AND 10 > id AND v BETWEEN 1 AND 50"); k != 4 || rest != nil {
		t.Errorf("all-kernel WHERE: %d kernels, rest %v", k, rest)
	}
	// A conjunct of another shape ends the prefix: what follows stays whole.
	if k, rest, _ := shape("SELECT id FROM probe WHERE id >= 3 AND id % 2 = 0 AND id < 10"); k != 1 || rest == nil || len(splitConjuncts(rest)) != 2 {
		t.Errorf("mixed WHERE: %d kernels, rest %v", k, rest)
	}
	// ... and ahead of the comparisons it leaves the statement as it was.
	if k, rest, _ := shape("SELECT id FROM probe WHERE id % 2 = 0 AND id < 10"); k != 0 || len(splitConjuncts(rest)) != 2 {
		t.Errorf("non-kernel conjunct first: %d kernels, rest %v", k, rest)
	}

	for q, wantEarly := range map[string]bool{
		"SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk WHERE probe.id < 10":                                                     true,
		"SELECT probe.id FROM probe LEFT JOIN sparse ON probe.k = sparse.sk WHERE id < 10 AND sparse.sk IS NULL":                                true,
		"SELECT probe.id FROM probe RIGHT JOIN sparse ON probe.k = sparse.sk WHERE probe.id < 10":                                               false,
		"SELECT probe.id FROM probe FULL OUTER JOIN sparse ON probe.k = sparse.sk WHERE probe.id < 10":                                          false,
		"SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk AND sparse.sk > 1 WHERE probe.id < 10":                                   false, // residual ON
		"SELECT probe.id FROM probe JOIN fanout ON probe.v < fanout.w WHERE probe.id < 10":                                                      false, // no equality at all
		"SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk WHERE sparse.sk > 1 AND probe.id < 10":                                   false, // first conjunct reads the joined side
		"SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk WHERE probe.id % 2 = 0 AND probe.id < 10":                                false,
		"SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk JOIN fanout ON probe.k = fanout.fk AND fanout.w > 2 WHERE probe.id < 10": false,
	} {
		if _, _, early := shape(q); (early != nil) != wantEarly {
			t.Errorf("%s: filtered before the probe = %v, want %v", q, early != nil, wantEarly)
		}
	}

	// A residual ON can raise on rows the WHERE would have removed first:
	// both executors must still report it.
	const raising = "SELECT probe.id FROM probe JOIN sparse ON probe.k = sparse.sk AND ABS(sparse.label) > 1 WHERE probe.id < 0"
	if _, err := c.Query(raising); err == nil {
		t.Errorf("vectorized: residual ON error lost behind the WHERE")
	}
	if _, err := c.QueryScalar(raising); err == nil {
		t.Errorf("scalar: expected the residual ON to raise")
	}
}

// TestFilterBeforeProbeLargeDifferential crosses the parallel threshold so
// the kernels ahead of the probe, the restricted probe side (a range view
// for the clustered key, a gather for the scattered one) and the old order
// under RIGHT/FULL joins and residual ONs all run on the worker pool, each
// against the dense-selection replay and the serial probe; the scalar
// nested loop pins one shape per join kind end to end.
func TestFilterBeforeProbeLargeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("large join")
	}
	c := joinTestCatalog(3 * parallelMinRows)
	wheres := []string{
		"probe.id >= 1000 AND probe.id < 9000", // one range: zero-copy views
		"probe.k = 3",                          // scattered: gathered probe side
		"v BETWEEN 10 AND 40 AND probe.id < 8000",
		"probe.id < 6000 AND probe.id % 3 = 0", // comparisons move, the rest stays behind
		"probe.id < 0",                         // nothing survives
	}
	var queries []string
	for _, w := range wheres {
		for _, j := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"} {
			queries = append(queries, fmt.Sprintf("SELECT probe.id, probe.v, sparse.label FROM probe %s sparse ON probe.k = sparse.sk WHERE %s", j, w))
		}
		queries = append(queries,
			fmt.Sprintf("SELECT probe.id, fanout.tag FROM probe JOIN fanout ON probe.k = fanout.fk AND fanout.w > probe.v WHERE %s", w),
			fmt.Sprintf("SELECT sparse.label, COUNT(*), SUM(probe.v) FROM probe LEFT JOIN sparse ON probe.k = sparse.sk WHERE %s GROUP BY sparse.label ORDER BY 1", w),
			fmt.Sprintf("SELECT probe.id, fanout.tag, sparse.label FROM probe JOIN fanout ON probe.k = fanout.fk LEFT JOIN sparse ON probe.k = sparse.sk WHERE %s", w))
	}
	for i, q := range queries {
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
		if dv != dumpTable(serial) {
			t.Errorf("query %q: parallel vs serial probe mismatch", q)
		}
		if dv != dumpTable(dense) {
			t.Errorf("query %q: range vs dense mismatch", q)
		}
		if i%7 < 4 && i < 14 { // the four join kinds of the first two WHEREs
			sca, err := c.QueryScalar(q)
			if err != nil {
				t.Fatal(err)
			}
			if dv != dumpTable(sca) {
				t.Errorf("query %q: vectorized vs scalar mismatch", q)
			}
		}
	}
}

// bytesPerQuery is the mean of the bytes the process allocates while q runs
// (worker-pool goroutines included).
func bytesPerQuery(t *testing.T, c *Catalog, q string, args ...any) float64 {
	t.Helper()
	stmt, err := c.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := stmt.Exec(context.Background(), args...)
		if err != nil {
			t.Fatal(err)
		}
		for b := res.Next(); b != nil; b = res.Next() {
		}
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestKernelWhereAllocations pins "nothing proportional to the rows
// scanned": the benchmark's range predicate over 100,000 rows stored in 26
// chunks allocates a few KB per execution (2.76 MB when each literal was
// materialized as a column and each comparison as a boolean vector), and the
// same statement joined to a 2,000-row table stays under 60 % of the
// 21.2 MB it took when the join ran before the filter.
func TestKernelWhereAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row table")
	}
	const rows, chunks, custs = 100_000, 26, 2_000
	rng := rand.New(rand.NewSource(3))
	facts := table.MustNew("facts", []string{"id", "cust", "amount"}, []table.Kind{table.KindInt, table.KindInt, table.KindFloat})
	c := NewCatalog()
	c.Register(facts)
	app, _ := c.Appender("facts")
	for i := 0; i < rows; i++ {
		if err := app.Append([]table.Value{table.Int(int64(i)), table.Int(int64(rng.Intn(custs))), table.Float(rng.Float64() * 1e4)}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(rows/chunks+1) == 0 || i == rows-1 {
			if _, err := app.PublishErr(); err != nil {
				t.Fatal(err)
			}
		}
	}
	dim := table.MustNew("custs", []string{"cust", "segment"}, []table.Kind{table.KindInt, table.KindString})
	for i := 0; i < custs; i++ {
		dim.MustAppendRow(table.Int(int64(i)), table.Str([]string{"consumer", "enterprise", "public", "smb"}[i%4]))
	}
	c.Register(dim)

	if snap, _ := c.Snapshot("facts"); snap.NumChunks() != chunks {
		t.Fatalf("facts is stored in %d chunks, want %d", snap.NumChunks(), chunks)
	}
	if n := mustQuery(t, c, "SELECT COUNT(*) FROM facts WHERE id >= 40000 AND id < 41000").Columns[0].Value(0); n.I != 1000 {
		t.Fatalf("COUNT = %v, want 1000", n)
	}
	got := bytesPerQuery(t, c, "SELECT COUNT(*) FROM facts WHERE id >= ? AND id < ?", 40000, 41000)
	t.Logf("range COUNT(*): %.0f bytes per execution", got)
	if got > 64<<10 {
		t.Errorf("range COUNT(*) over %d rows allocates %.0f bytes per execution, want under 64 KB", rows, got)
	}
	const joinedBefore = 21.2e6
	join := "SELECT c.segment, COUNT(*) AS n, SUM(f.amount) AS total FROM facts f JOIN custs c ON f.cust = c.cust WHERE f.id >= ? AND f.id < ? GROUP BY c.segment ORDER BY c.segment"
	got = bytesPerQuery(t, c, join, 20000, 70000)
	t.Logf("joined range aggregate: %.2f MB per execution", got/1e6)
	if got > 0.6*joinedBefore {
		t.Errorf("joined range aggregate allocates %.1f MB per execution, want under %.1f MB", got/1e6, 0.6*joinedBefore/1e6)
	}
}

// TestLimitPlusOffsetOverflow: LIMIT k OFFSET m with k+m past int64 is "no
// limit"; the selection-truncating pushdown used to wrap the sum negative
// and return nothing, while ORDER BY (topKBound) was already guarded.
func TestLimitPlusOffsetOverflow(t *testing.T) {
	c := joinTestCatalog(21)
	for q, want := range map[string]int{
		"SELECT id FROM probe LIMIT 9223372036854775807 OFFSET 5":                       16,
		"SELECT id FROM probe WHERE id > 2 LIMIT 9223372036854775807 OFFSET 5":          13,
		"SELECT id FROM probe ORDER BY id DESC LIMIT 9223372036854775807 OFFSET 5":      16,
		"SELECT id + 1 FROM probe LIMIT 9223372036854775807 OFFSET 9223372036854775807": 0,
	} {
		vec := mustQuery(t, c, q)
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if vec.NumRows() != want || sca.NumRows() != want || dumpTable(vec) != dumpTable(sca) || dumpResult(res) != dumpTable(vec) {
			t.Errorf("%s: vectorized %d rows, scalar %d, want %d (and equal contents)", q, vec.NumRows(), sca.NumRows(), want)
		}
	}
}

// TestNaNCellAgreesWithScalar: table.Compare orders NaN equal to every
// number (docs/ARCHITECTURE.md records the oddity); BETWEEN, NOT BETWEEN and
// IN must follow it in both executors, in WHERE and in the select list.
func TestNaNCellAgreesWithScalar(t *testing.T) {
	tbl := table.MustNew("m", []string{"id", "v"}, []table.Kind{table.KindInt, table.KindFloat})
	for i := 0; i < 11; i++ {
		v := table.Float(float64(i) / 2)
		if i == 4 {
			v = table.Infer("NaN")
		}
		tbl.MustAppendRow(table.Int(int64(i)), v)
	}
	c := NewCatalog()
	c.Register(tbl)
	for q, want := range map[string]int64{
		"SELECT COUNT(*) FROM m WHERE v BETWEEN 1 AND 2":                 3, // 1, 1.5 and the NaN row
		"SELECT COUNT(*) FROM m WHERE v NOT BETWEEN 1 AND 2":             8,
		"SELECT COUNT(*) FROM m WHERE v IN (1, 2)":                       2,
		"SELECT COUNT(*) FROM m WHERE v NOT IN (1, 2)":                   9,
		"SELECT COUNT(*) FROM m WHERE id >= 0 AND v NOT BETWEEN 1 AND 2": 8,
		"SELECT COUNT(*) FROM m WHERE v <= 0.5 OR v BETWEEN 3 AND 4":     6,
	} {
		vec := mustQuery(t, c, q).Columns[0].Value(0)
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		if s := sca.Columns[0].Value(0); vec.I != s.I || vec.I != want {
			t.Errorf("%s: vectorized %d, scalar %d, want %d", q, vec.I, s.I, want)
		}
	}
	checkDifferential(t, c, "SELECT id, v BETWEEN 1 AND 2, v NOT IN (1, 2.5), v IN (7) FROM m")
}
