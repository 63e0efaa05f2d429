package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"datalab/internal/table"
)

// valueCompare is the reference ORDER BY comparator: table.Compare on the
// cells as Values, key by key, negated for DESC — negative when position a
// sorts before position b, zero when they are peers on every key. The
// scalar oracle sorts its rows by the same per-pair rule with
// sort.SliceStable; rowOrder must agree with it on the sign of every pair.
func valueCompare(keyCols []table.Column, order []OrderItem, a, b int) int {
	for k := range order {
		c := table.Compare(keyCols[k].Value(a), keyCols[k].Value(b))
		if c == 0 {
			continue
		}
		if order[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// referencePerm is the stable permutation of 0..n-1 under valueCompare, by
// the scalar oracle's algorithm.
func referencePerm(keyCols []table.Column, order []OrderItem, n int) []int {
	perm := iotaInts(n)
	sort.SliceStable(perm, func(i, j int) bool { return valueCompare(keyCols, order, perm[i], perm[j]) < 0 })
	return perm
}

// codedStrings is a published 4,096-row string column, so it carries
// dictionary codes; randKeyColumns gathers coded key columns from it.
var codedStrings = sync.OnceValue(func() table.Column {
	pool := []string{"a", "a\x00", "a\x00b", "", "b", "ab"}
	vals := make([]string, parallelMinRows)
	nulls := make([]bool, parallelMinRows)
	for i := range vals {
		vals[i] = pool[i*7%len(pool)]
		nulls[i] = i%11 == 0
	}
	app := table.NewAppender(&table.Table{Name: "k", Columns: []table.Column{table.ColumnFromStrings("k", vals, nulls)}})
	return app.Snapshot().Table().Columns[0]
})

// Key cell pools, small so that duplicates are frequent and stability is
// actually exercised. The floats include -0 and +0, which compare equal;
// the strings embedded NULs and shared prefixes; the times sub-second
// steps, instants before 1970 and one instant in two zones.
var (
	keyInts    = []int64{-3, 0, 1, 2, 4, math.MaxInt64, math.MinInt64}
	keyFloats  = []float64{math.Copysign(0, -1), 0, 0.5, -1.5, 2, math.Inf(1)}
	keyStrings = []string{"a", "a\x00", "a\x00b", "", "ab", "z", "\x00"}
	keyTimes   = []time.Time{
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1950, 6, 1, 12, 0, 0, 500_000_000, time.UTC),
		time.Date(2024, 3, 1, 10, 0, 0, 1, time.UTC),
		time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC),
		time.Date(2024, 3, 1, 11, 0, 0, 0, time.FixedZone("CET", 3600)), // = 10:00 UTC
	}
)

// keyKinds are the key column shapes randKeyColumns draws: one per typed
// kind, an all-NULL KindNull column, and a dictionary-coded string column.
var keyKinds = []string{"int", "float", "string", "bool", "time", "null", "coded"}

// randKeyColumns draws 1-3 key columns of n rows (with NULLs and heavy
// duplication) plus matching order specs. When nan is true, float columns
// hold NaN cells too.
func randKeyColumns(rng *rand.Rand, n int, nan bool) ([]table.Column, []OrderItem) {
	nk := 1 + rng.Intn(3)
	cols := make([]table.Column, nk)
	order := make([]OrderItem, nk)
	for i := 0; i < nk; i++ {
		name := fmt.Sprintf("k%d", i)
		var c table.Column
		switch shape := keyKinds[rng.Intn(len(keyKinds))]; shape {
		case "coded":
			src := codedStrings()
			idx := make([]int, n)
			for r := range idx {
				idx[r] = rng.Intn(src.Len())
			}
			c = src.Gather(idx, nil)
		case "null":
			c = table.NewColumn(name, table.KindNull)
			for r := 0; r < n; r++ {
				c.AppendNull()
			}
		default:
			kind := map[string]table.Kind{"int": table.KindInt, "float": table.KindFloat,
				"string": table.KindString, "bool": table.KindBool, "time": table.KindTime}[shape]
			c = table.NewColumn(name, kind)
			for r := 0; r < n; r++ {
				c.Append(randKeyCell(rng, kind, nan))
			}
		}
		cols[i] = c
		order[i] = OrderItem{Desc: rng.Intn(2) == 0}
	}
	return cols, order
}

// randKeyCell draws one cell of kind from the key pools, NULL one time in
// seven and, when nan is true, a float NaN one time in six.
func randKeyCell(rng *rand.Rand, kind table.Kind, nan bool) table.Value {
	if rng.Intn(7) == 0 {
		return table.Null()
	}
	switch kind {
	case table.KindInt:
		return table.Int(keyInts[rng.Intn(len(keyInts))])
	case table.KindFloat:
		if nan && rng.Intn(6) == 0 {
			return table.Float(math.NaN())
		}
		return table.Float(keyFloats[rng.Intn(len(keyFloats))])
	case table.KindString:
		return table.Str(keyStrings[rng.Intn(len(keyStrings))])
	case table.KindBool:
		return table.Bool(rng.Intn(2) == 0)
	default:
		return table.Time(keyTimes[rng.Intn(len(keyTimes))])
	}
}

// sign collapses a comparison result to -1, 0 or +1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// orderIsTotal is rowOrder's total, decided from the cells: false exactly
// when a key column holds a float NaN.
func orderIsTotal(cols []table.Column) bool {
	for i := range cols {
		for r := 0; r < cols[i].Len(); r++ {
			if v := cols[i].Value(r); v.Kind == table.KindFloat && math.IsNaN(v.F) {
				return false
			}
		}
	}
	return true
}

// checkRowOrder checks rowOrder over the n-row key columns against the
// reference on every pair of positions: the sign of cmp, and total.
func checkRowOrder(t testing.TB, cols []table.Column, order []OrderItem, n int) {
	t.Helper()
	cmp, total := rowOrder(cols, order)
	if want := orderIsTotal(cols); total != want {
		t.Fatalf("total = %v, want %v", total, want)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := sign(cmp(a, b)), sign(valueCompare(cols, order, a, b)); got != want {
				t.Fatalf("cmp(%d, %d) = %d, reference %d: %v vs %v (order %v)",
					a, b, got, want, rowValues(cols, a), rowValues(cols, b), order)
			}
		}
	}
}

// checkSortPerm checks that sortPerm is the reference's stable order and
// topKPerm(k) its prefix, for each bound in ks.
func checkSortPerm(t testing.TB, cols []table.Column, order []OrderItem, n int, ks []int) {
	t.Helper()
	want := referencePerm(cols, order, n)
	perm, err := sortPerm(context.Background(), cols, order, n)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(perm, want) {
		t.Fatalf("sortPerm %v, stable order %v", perm, want)
	}
	for _, k := range ks {
		got, err := topKPerm(context.Background(), cols, order, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if w := want[:min(max(k, 0), n)]; !slices.Equal(got, w) {
			t.Fatalf("topKPerm(%d) of %d = %v, want %v", k, n, got, w)
		}
	}
}

// rowValues is row r of the key columns, for failure messages.
func rowValues(cols []table.Column, r int) []table.Value {
	row := make([]table.Value, len(cols))
	for i := range cols {
		row[i] = cols[i].Value(r)
	}
	return row
}

// TestRowOrderMatchesCompare is the comparator's property: for every pair
// of positions the sign of rowOrder's cmp is the reference's, and total is
// false exactly for NaN-bearing keys, over every key
// shape randKeyColumns draws — a coded string column included.
func TestRowOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sawCoded := false
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60)
		cols, order := randKeyColumns(rng, n, trial%3 == 2)
		for i := range cols {
			sawCoded = sawCoded || coded(cols[i])
		}
		checkRowOrder(t, cols, order, n)
	}
	if !sawCoded {
		t.Fatal("no trial drew a coded key column")
	}
}

// TestSortPermMatchesValueReference cross-checks sortPerm against the
// reference stable sort on randomized keys, and topKPerm against the
// prefix of the full sort for random bounds (including 0, 1, n-1).
func TestSortPermMatchesValueReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		cols, order := randKeyColumns(rng, n, trial%3 == 2)
		checkSortPerm(t, cols, order, n, []int{0, 1, n / 2, n - 1, n, n + 3})
	}
}

// permIsStableSorted checks that perm orders rows by the reference
// comparator with ascending-position ties, i.e. exactly the stable order
// of a total order.
func permIsStableSorted(t *testing.T, cols []table.Column, order []OrderItem, perm []int) {
	t.Helper()
	for i := 1; i < len(perm); i++ {
		c := valueCompare(cols, order, perm[i-1], perm[i])
		if c > 0 || (c == 0 && perm[i-1] >= perm[i]) {
			t.Fatalf("perm not in stable order at %d: rows %d, %d", i, perm[i-1], perm[i])
		}
	}
}

// TestParallelSortPermStable crosses the 2*parallelMinRows threshold so
// the chunked sort + k-way merge path runs, and checks it reproduces the
// stable serial order on duplicate-heavy keys. CI runs this under -race,
// which doubles as the data-race check on the shared permutation.
func TestParallelSortPermStable(t *testing.T) {
	if testing.Short() {
		t.Skip("large sort")
	}
	rng := rand.New(rand.NewSource(10))
	n := 2*parallelMinRows + 5000
	cols, order := randKeyColumns(rng, n, false)
	cmp, total := rowOrder(cols, order)
	if !total {
		t.Fatal("expected a total order")
	}
	got, err := parallelSortPerm(context.Background(), cmp, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("perm length %d, want %d", len(got), n)
	}
	permIsStableSorted(t, cols, order, got)

	// Concurrent large sorts contend for the shared worker pool; under
	// -race this stresses pool handoff and the shared comparator.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perm, err := parallelSortPerm(context.Background(), cmp, n)
			if err != nil || !slices.Equal(perm, got) {
				t.Errorf("concurrent perm differs (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

// TestTopKAllocationPin: ORDER BY amount DESC, id LIMIT 20 allocates the
// same bytes, within 10 %, over 5,000 and over 50,000 selected rows. The
// comparator reads the key columns in place and the heap holds 20 row
// numbers, so nothing is encoded or copied per row: a key kept per row
// would grow the bytes with the selection.
func TestTopKAllocationPin(t *testing.T) {
	const rows = 60_000
	ids := make([]int64, rows)
	amounts := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		amounts[i] = float64(i*7919%10007) / 4
	}
	c := NewCatalog()
	c.Register(&table.Table{Name: "facts", Columns: []table.Column{
		table.ColumnFromInts("id", ids, nil),
		table.ColumnFromFloats("amount", amounts, nil),
	}})
	read := func(selected int) float64 {
		q := fmt.Sprintf("SELECT id, amount FROM facts WHERE id >= 1000 AND id < %d ORDER BY amount DESC, id LIMIT 20", 1000+selected)
		return readBytes(t, c, q, 20, 20)
	}
	small, large := read(5_000), read(50_000)
	if large > small*1.1 {
		t.Errorf("top-20 over 50,000 rows allocates %.0f B, over 5,000 %.0f B: want within 10 %%", large, small)
	}
	t.Logf("top-20: %.0f B over 5,000 rows, %.0f B over 50,000", small, large)
}

// FuzzRowOrder builds one to three key columns from the fuzz bytes — each
// int, float (NaN and -0 included), string, bool, time, all-NULL, or the
// text column a CASE mixing int, float and string arms makes — and checks rowOrder against the reference on every pair of
// positions, sortPerm against the stable order and topKPerm(k) against its
// prefix. Byte 0 holds the key count and the DESC bits, the next bytes one
// shape per key and the bound k, the rest the cells row by row.
func FuzzRowOrder(f *testing.F) {
	f.Add([]byte{0x00, 0, 3, 9, 17, 0, 25, 9})
	f.Add([]byte{0x06, 1, 6, 4, 8, 16, 9, 40, 0, 33, 16, 200, 57})
	f.Add([]byte{0x1d, 2, 4, 5, 7, 13, 21, 0, 99, 41, 17, 0, 255, 3, 11, 19, 27})
	f.Fuzz(func(t *testing.T, data []byte) {
		nk := 1
		if len(data) > 0 {
			nk += int(data[0] % 3)
		}
		if len(data) < 2+nk {
			return
		}
		head, shapes, kb, cells := data[0], data[1:1+nk], data[1+nk], data[2+nk:]
		n := min(len(cells)/nk, 48)
		cols := make([]table.Column, nk)
		order := make([]OrderItem, nk)
		for i := range cols {
			shape := shapes[i] % 7
			kind := []table.Kind{table.KindInt, table.KindFloat, table.KindString,
				table.KindBool, table.KindTime, table.KindNull, table.KindString}[shape]
			cols[i] = table.NewColumn(fmt.Sprintf("k%d", i), kind)
			for r := 0; r < n; r++ {
				v := table.Null()
				if b := cells[r*nk+i]; shape == 6 {
					v, _ = kind.Coerce(fuzzCell([]table.Kind{table.KindInt, table.KindFloat, table.KindString}[b%3], b/3))
				} else if kind != table.KindNull {
					v = fuzzCell(kind, b)
				}
				cols[i].Append(v)
			}
			order[i] = OrderItem{Desc: head>>(2+i)&1 == 1}
		}
		checkRowOrder(t, cols, order, n)
		checkSortPerm(t, cols, order, n, []int{int(kb) % (n + 2)})
	})
}

// fuzzCell is the key cell of kind byte b selects: NULL when b is a
// multiple of 8, else a pool value — floats include NaN.
func fuzzCell(kind table.Kind, b byte) table.Value {
	if b%8 == 0 {
		return table.Null()
	}
	i := int(b / 8)
	switch kind {
	case table.KindInt:
		return table.Int(keyInts[i%len(keyInts)])
	case table.KindFloat:
		if i%(len(keyFloats)+1) == len(keyFloats) {
			return table.Float(math.NaN())
		}
		return table.Float(keyFloats[i%(len(keyFloats)+1)])
	case table.KindString:
		return table.Str(keyStrings[i%len(keyStrings)])
	case table.KindBool:
		return table.Bool(i%2 == 1)
	default:
		return table.Time(keyTimes[i%len(keyTimes)])
	}
}

// TestOrderByNaNKeysMatchScalar pins the NaN escape hatch: table.Compare
// treats NaN as equal to every value (not a total order), so float keys
// containing NaN must bypass the memcmp encoding (which would give NaN a
// definite position) and run the scalar reference's exact stable-sort
// algorithm. NaN is user-reachable — strconv.ParseFloat accepts "NaN",
// so a CSV cell "NaN" ingests as a float.
func TestOrderByNaNKeysMatchScalar(t *testing.T) {
	tbl := table.MustNew("t", []string{"v", "tag"}, []table.Kind{table.KindFloat, table.KindInt})
	tbl.MustAppendRow(table.Float(math.NaN()), table.Int(0))
	tbl.MustAppendRow(table.Float(1), table.Int(1))
	tbl.MustAppendRow(table.Float(2), table.Int(2))
	tbl.MustAppendRow(table.Float(math.NaN()), table.Int(3))
	tbl.MustAppendRow(table.Float(0.5), table.Int(4))
	c := NewCatalog()
	c.Register(tbl)
	for _, q := range []string{
		"SELECT tag, v FROM t ORDER BY v",
		"SELECT tag, v FROM t ORDER BY v DESC",
		"SELECT tag, v FROM t ORDER BY v DESC LIMIT 2",
		"SELECT tag, v FROM t ORDER BY v LIMIT 2 OFFSET 1",
	} {
		vec, err := queryTable(c, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatalf("%q scalar: %v", q, err)
		}
		if dv, ds := dumpTable(vec), dumpTable(sca); dv != ds {
			t.Errorf("%q: vectorized vs scalar mismatch with NaN keys\n-- vectorized --\n%s-- scalar --\n%s", q, dv, ds)
		}
	}
}

// TestOrderByNullPlacement pins NULL ordering end-to-end: NULLs first
// ascending, last descending, on both executors, with and without LIMIT
// (the top-K heap must agree with the full sort on NULL placement).
func TestOrderByNullPlacement(t *testing.T) {
	tbl := table.MustNew("t", []string{"v"}, []table.Kind{table.KindInt})
	tbl.MustAppendRow(table.Int(2))
	tbl.MustAppendRow(table.Null())
	tbl.MustAppendRow(table.Int(1))
	tbl.MustAppendRow(table.Null())
	tbl.MustAppendRow(table.Int(3))
	c := NewCatalog()
	c.Register(tbl)

	null, one, two, three := table.Null(), table.Int(1), table.Int(2), table.Int(3)
	cases := []struct {
		q    string
		want []table.Value // in order
	}{
		{"SELECT v FROM t ORDER BY v", []table.Value{null, null, one, two, three}},
		{"SELECT v FROM t ORDER BY v DESC", []table.Value{three, two, one, null, null}},
		{"SELECT v FROM t ORDER BY v LIMIT 3", []table.Value{null, null, one}},
		{"SELECT v FROM t ORDER BY v DESC LIMIT 2", []table.Value{three, two}},
		{"SELECT v FROM t ORDER BY v DESC LIMIT 2 OFFSET 2", []table.Value{one, null}},
	}
	for _, tc := range cases {
		for _, scalar := range []bool{false, true} {
			run := func(q string) (*table.Table, error) { return queryTable(c, q) }
			if scalar {
				run = c.QueryScalar
			}
			out, err := run(tc.q)
			if err != nil {
				t.Fatalf("%q (scalar=%v): %v", tc.q, scalar, err)
			}
			if out.NumRows() != len(tc.want) {
				t.Fatalf("%q (scalar=%v): %d rows, want %d", tc.q, scalar, out.NumRows(), len(tc.want))
			}
			for i, want := range tc.want {
				if got := out.Columns[0].Value(i); table.Compare(got, want) != 0 {
					t.Errorf("%q (scalar=%v) row %d: %v, want %v", tc.q, scalar, i, got, want)
				}
			}
		}
	}
}

// TestOrderByLimitOffsetBeyondRows pins LIMIT k OFFSET m with m >= n (zero
// rows, no panic) and windows straddling the end of the table — the top-K
// heap must retain k+m rows, not k, for the window to survive the offset.
func TestOrderByLimitOffsetBeyondRows(t *testing.T) {
	tbl := table.MustNew("t", []string{"v"}, []table.Kind{table.KindInt})
	const n = 100
	for i := 0; i < n; i++ {
		tbl.MustAppendRow(table.Int(int64((i * 37) % n)))
	}
	c := NewCatalog()
	c.Register(tbl)

	cases := []struct {
		q    string
		want []int64
	}{
		// OFFSET far beyond the table: empty, not a panic or short heap.
		{"SELECT v FROM t ORDER BY v LIMIT 5 OFFSET 100", nil},
		{"SELECT v FROM t ORDER BY v LIMIT 5 OFFSET 1000", nil},
		// Window straddles the end: only n-m rows remain.
		{"SELECT v FROM t ORDER BY v LIMIT 5 OFFSET 97", []int64{97, 98, 99}},
		// The k+m regression shape: LIMIT 5 OFFSET 90 needs rows 90..94 of
		// the sorted order — a heap retaining only k=5 rows would return
		// rows 0..4 instead.
		{"SELECT v FROM t ORDER BY v LIMIT 5 OFFSET 90", []int64{90, 91, 92, 93, 94}},
		{"SELECT v FROM t ORDER BY v DESC LIMIT 3 OFFSET 95", []int64{4, 3, 2}},
	}
	for _, tc := range cases {
		vec, err := queryTable(c, tc.q)
		if err != nil {
			t.Fatalf("%q: %v", tc.q, err)
		}
		sca, err := c.QueryScalar(tc.q)
		if err != nil {
			t.Fatalf("%q scalar: %v", tc.q, err)
		}
		if dv, ds := dumpTable(vec), dumpTable(sca); dv != ds {
			t.Errorf("%q: vectorized vs scalar mismatch\n%s\nvs\n%s", tc.q, dv, ds)
		}
		if vec.NumRows() != len(tc.want) {
			t.Fatalf("%q: %d rows, want %d", tc.q, vec.NumRows(), len(tc.want))
		}
		for i, want := range tc.want {
			got, _ := vec.Columns[0].Value(i).AsInt()
			if got != want {
				t.Errorf("%q row %d: %d, want %d", tc.q, i, got, want)
			}
		}
	}
}
