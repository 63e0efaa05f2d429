package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"datalab/internal/table"
)

// randKeyColumns draws 1-3 typed key columns (with NULLs and heavy
// duplication, so stability is actually exercised) plus matching order
// specs. When mixed is true, one column is degraded to boxed storage to
// route through the boxed fallback.
func randKeyColumns(rng *rand.Rand, n int, mixed bool) ([]table.Column, []OrderItem) {
	nk := 1 + rng.Intn(3)
	cols := make([]table.Column, nk)
	order := make([]OrderItem, nk)
	for i := 0; i < nk; i++ {
		kind := []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool}[rng.Intn(4)]
		c := table.NewColumn(fmt.Sprintf("k%d", i), kind)
		for r := 0; r < n; r++ {
			if rng.Intn(7) == 0 {
				c.AppendNull()
				continue
			}
			switch kind {
			case table.KindInt:
				c.Append(table.Int(int64(rng.Intn(5))))
			case table.KindFloat:
				c.Append(table.Float(float64(rng.Intn(8)) / 2))
			case table.KindString:
				c.Append(table.Str([]string{"a", "b", "ab", "", "z"}[rng.Intn(5)]))
			case table.KindBool:
				c.Append(table.Bool(rng.Intn(2) == 0))
			}
		}
		if mixed && i == 0 && n > 0 {
			// Overwrite one cell with a kind-mismatched value so the column
			// degrades to boxed storage and the fallback path runs.
			if kind == table.KindString {
				c.Set(rng.Intn(n), table.Int(99))
			} else {
				c.Set(rng.Intn(n), table.Str("boxed"))
			}
		}
		cols[i] = c
		order[i] = OrderItem{Desc: rng.Intn(2) == 0}
	}
	return cols, order
}

// permIsStableSorted checks that perm orders rows by the boxed reference
// comparator with ascending-position ties, i.e. exactly the stable order.
func permIsStableSorted(t *testing.T, cols []table.Column, order []OrderItem, perm []int) {
	t.Helper()
	for i := 1; i < len(perm); i++ {
		c := boxedCompare(cols, order, perm[i-1], perm[i])
		if c > 0 || (c == 0 && perm[i-1] >= perm[i]) {
			t.Fatalf("perm not in stable order at %d: rows %d, %d", i, perm[i-1], perm[i])
		}
	}
}

// TestSortPermMatchesBoxedReference cross-checks the typed kernel against
// the boxed reference comparator on randomized keys, and topKPerm against
// the prefix of the full sort for random bounds (including 0, 1, n-1).
func TestSortPermMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		mixed := trial%5 == 4
		cols, order := randKeyColumns(rng, n, mixed)
		perm, err := sortPerm(context.Background(), cols, order, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(perm) != n {
			t.Fatalf("perm length %d, want %d", len(perm), n)
		}
		permIsStableSorted(t, cols, order, perm)
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
			if k < 0 {
				continue
			}
			got, err := topKPerm(context.Background(), cols, order, n, k)
			if err != nil {
				t.Fatal(err)
			}
			want := perm
			if k < n {
				want = perm[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("topK(%d) of %d: length %d, want %d", k, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("topK(%d) of %d diverges at %d: %d vs %d (mixed=%v)",
						k, n, i, got[i], want[i], mixed)
				}
			}
		}
	}
}

// TestParallelSortPermStable crosses the 2*parallelMinRows threshold so
// the chunked sort + k-way merge path runs, and checks it reproduces the
// stable serial order on duplicate-heavy keys. CI runs this under -race,
// which doubles as the data-race check on the chunk-local key buffers.
func TestParallelSortPermStable(t *testing.T) {
	if testing.Short() {
		t.Skip("large sort")
	}
	rng := rand.New(rand.NewSource(10))
	n := 2*parallelMinRows + 5000
	cols, order := randKeyColumns(rng, n, false)
	specs, ok := sortKeySpecs(cols, order)
	if !ok {
		t.Fatal("expected encodable key columns")
	}
	got, err := parallelSortPerm(context.Background(), specs, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("perm length %d, want %d", len(got), n)
	}
	permIsStableSorted(t, cols, order, got)

	// Concurrent large sorts contend for the shared worker pool; under
	// -race this stresses pool handoff and the per-chunk buffers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perm, err := parallelSortPerm(context.Background(), specs, n)
			if err != nil || len(perm) != n {
				t.Errorf("concurrent perm length %d, err %v, want %d", len(perm), err, n)
			}
		}()
	}
	wg.Wait()
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
		vec, err := c.Query(q)
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

	cases := []struct {
		q    string
		want []string // Key() forms, in order
	}{
		{"SELECT v FROM t ORDER BY v", []string{"\x00null", "\x00null", "i:1", "i:2", "i:3"}},
		{"SELECT v FROM t ORDER BY v DESC", []string{"i:3", "i:2", "i:1", "\x00null", "\x00null"}},
		{"SELECT v FROM t ORDER BY v LIMIT 3", []string{"\x00null", "\x00null", "i:1"}},
		{"SELECT v FROM t ORDER BY v DESC LIMIT 2", []string{"i:3", "i:2"}},
		{"SELECT v FROM t ORDER BY v DESC LIMIT 2 OFFSET 2", []string{"i:1", "\x00null"}},
	}
	for _, tc := range cases {
		for _, scalar := range []bool{false, true} {
			run := c.Query
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
				if got := out.Columns[0].Value(i).Key(); got != want {
					t.Errorf("%q (scalar=%v) row %d: %q, want %q", tc.q, scalar, i, got, want)
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
		vec, err := c.Query(tc.q)
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
