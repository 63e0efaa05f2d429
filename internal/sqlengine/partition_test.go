package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"datalab/internal/table"
)

// groupedCatalog builds the table the grouped-ORDER-BY differential runs
// over: k has 10 distinct ints plus NULL (11 groups), s three strings plus
// NULL, f a handful of floats with NaN and NULL among them; v and w feed
// the aggregates and never hold NaN, so aggregate values are well defined.
func groupedCatalog(rows int) *Catalog {
	rng := rand.New(rand.NewSource(14))
	t := table.MustNew("g",
		[]string{"id", "k", "s", "f", "v", "w"},
		[]table.Kind{table.KindInt, table.KindInt, table.KindString, table.KindFloat, table.KindInt, table.KindFloat})
	strs := []string{"ash", "birch", "cedar"}
	floats := []float64{-1.5, 0, 2.25, 7, math.NaN()}
	for i := 0; i < rows; i++ {
		k, s, f := table.Null(), table.Null(), table.Null()
		if x := rng.Intn(11); x < 10 {
			k = table.Int(int64(x))
		}
		if x := rng.Intn(4); x < 3 {
			s = table.Str(strs[x])
		}
		if x := rng.Intn(6); x < 5 {
			f = table.Float(floats[x])
		}
		t.MustAppendRow(table.Int(int64(i)), k, s, f, table.Int(int64(rng.Intn(9)-2)), table.Float(float64(rng.Intn(400))/8))
	}
	c := NewCatalog()
	c.Register(t)
	return c
}

// TestGroupedOrderByMatchesScalar is the differential check for the
// grouped output tail: a grouped ORDER BY goes through sortPerm/topKPerm on
// the vectorized side and through the scalar executor's own stable sort on
// the reference side, so every shape below — typed keys, the stable-sort
// fallback (NaN), a CASE key mixing int and float arms, the bounded top-K
// heap on either side of the group count, DISTINCT disabling the bound —
// must agree row for row, under span and dense selections alike. The
// larger table crosses parallelMinRows, so groups also evaluate on the
// worker pool.
func TestGroupedOrderByMatchesScalar(t *testing.T) {
	queries := []string{
		// multi-key, mixed ASC/DESC, NULL keys in both positions
		"SELECT s, k, SUM(v) AS t FROM g GROUP BY s, k ORDER BY s DESC, k",
		"SELECT s, k, COUNT(*) FROM g WHERE v >= 0 GROUP BY s, k ORDER BY k DESC, s",
		// ties: few distinct key values, so the stable order (first
		// appearance of the group) decides
		"SELECT k, COUNT(*) > 0 AS has FROM g GROUP BY k ORDER BY has",
		"SELECT s, k FROM g WHERE id % 3 = 0 GROUP BY s, k ORDER BY s",
		"SELECT k, MIN(v) AS lo FROM g GROUP BY k ORDER BY lo DESC",
		// NULL group keys sort first ASC, last DESC
		"SELECT s, COUNT(*) FROM g GROUP BY s ORDER BY s",
		"SELECT k, SUM(w) FROM g GROUP BY k ORDER BY k DESC",
		// NaN float key: no total order, the stable sort runs
		"SELECT f, COUNT(*) AS n FROM g GROUP BY f ORDER BY f",
		"SELECT f, s, COUNT(*) FROM g WHERE id % 2 = 1 GROUP BY f, s ORDER BY f DESC, s LIMIT 6",
		// CASE key mixing int and float arms: a float key column
		"SELECT k, SUM(v) FROM g GROUP BY k ORDER BY CASE WHEN k > 4 THEN k ELSE AVG(w) END, k",
		"SELECT k, CASE WHEN k < 3 THEN COUNT(*) ELSE AVG(w) END AS m FROM g GROUP BY k ORDER BY m DESC LIMIT 4 OFFSET 1",
		// LIMIT k OFFSET m around the 11 groups of k: below, equal, above
		"SELECT k, SUM(v) AS t FROM g GROUP BY k ORDER BY t, k LIMIT 3 OFFSET 2",
		"SELECT k, SUM(v) AS t FROM g GROUP BY k ORDER BY t DESC, k LIMIT 6 OFFSET 5",
		"SELECT k, SUM(v) AS t FROM g GROUP BY k ORDER BY t, k DESC LIMIT 10 OFFSET 5",
		"SELECT k FROM g GROUP BY k ORDER BY k LIMIT 0",
		"SELECT k FROM g GROUP BY k ORDER BY k DESC LIMIT 5 OFFSET 40",
		"SELECT k FROM g GROUP BY k ORDER BY k OFFSET 9",
		// DISTINCT dedups after ordering, so the top-K bound is off
		"SELECT DISTINCT COUNT(*) > 0 AS has, s FROM g GROUP BY s, k ORDER BY s DESC LIMIT 3",
		"SELECT DISTINCT s FROM g GROUP BY s, k ORDER BY s LIMIT 2 OFFSET 1",
		// ORDER BY alias, position, and an aggregate not in the select list
		"SELECT k AS key, AVG(w) AS mean FROM g GROUP BY k ORDER BY mean DESC, key",
		"SELECT s, MAX(v), COUNT(*) FROM g GROUP BY s ORDER BY 2 DESC, 1",
		"SELECT k FROM g GROUP BY k ORDER BY SUM(v) DESC, k LIMIT 5",
		"SELECT s FROM g WHERE v > 0 GROUP BY s ORDER BY COUNT(*), MIN(id)",
		// HAVING drops groups before the sort sees them
		"SELECT k, COUNT(*) AS n FROM g GROUP BY k HAVING k IS NOT NULL AND MIN(v) < 0 ORDER BY n DESC, k LIMIT 4",
		// degenerate: one global group, no groups at all
		"SELECT COUNT(*), SUM(v) FROM g ORDER BY 1 DESC LIMIT 1",
		"SELECT k, COUNT(*) FROM g WHERE v < -100 GROUP BY k ORDER BY 2, 1 LIMIT 3",
	}
	for _, rows := range []int{300, 3 * parallelMinRows} {
		c := groupedCatalog(rows)
		for _, q := range queries {
			want, err := c.QueryScalar(q)
			if err != nil {
				t.Fatalf("%d rows, query %q: scalar: %v", rows, q, err)
			}
			for _, dense := range []bool{false, true} {
				forceDenseSelection.Store(dense)
				got, err := queryTable(c, q)
				forceDenseSelection.Store(false)
				if err != nil {
					t.Fatalf("%d rows, query %q (dense=%v): %v", rows, q, dense, err)
				}
				if dg, dw := dumpTable(got), dumpTable(want); dg != dw {
					t.Errorf("%d rows, query %q (dense=%v): vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s",
						rows, q, dense, dg, dw)
				}
			}
		}
	}
}

// scalarPartitions groups the rows by = on every key, with no key
// encoder: a row joins the first group whose first row it equals under
// table.Compare on each key — NULL equal to NULL, NaN to NaN only — else
// opens a group. Groups are in first-appearance order, rows ascending.
func scalarPartitions(keyCols []table.Column, rows []int) [][]int {
	var parts [][]int
	var firsts [][]table.Value
	for i, r := range rows {
		key := make([]table.Value, len(keyCols))
		for k := range keyCols {
			key[k] = keyCols[k].Value(i)
		}
		pi := 0
		for pi < len(parts) && !sameKey(firsts[pi], key) {
			pi++
		}
		if pi == len(parts) {
			parts, firsts = append(parts, nil), append(firsts, key)
		}
		parts[pi] = append(parts[pi], r)
	}
	return parts
}

// sameKey reports whether = holds between a and b position by position,
// NULL equal to NULL and NaN equal to NaN but to no number.
func sameKey(a, b []table.Value) bool {
	for k := range a {
		if isNaN(a[k]) != isNaN(b[k]) || table.Compare(a[k], b[k]) != 0 {
			return false
		}
	}
	return true
}

func isNaN(v table.Value) bool { return v.Kind == table.KindFloat && math.IsNaN(v.F) }

// segments runs partitionPerm and cuts its permutation at the segment
// ends into one position list per group, failing unless the segments tile
// the permutation, none is empty and each holds its positions ascending.
func segments(t *testing.T, name string, keyCols []table.Column, n int) [][]int {
	t.Helper()
	perm, ends, err := partitionPerm(context.Background(), keyCols, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(perm) != n {
		t.Fatalf("%s: permutation of %d positions, want %d", name, len(perm), n)
	}
	parts := make([][]int, len(ends))
	lo := 0
	for g, hi := range ends {
		if hi <= lo || hi > n {
			t.Fatalf("%s: segment %d is [%d, %d) of %d positions", name, g, lo, hi, n)
		}
		seg := perm[lo:hi]
		for k := 1; k < len(seg); k++ {
			if seg[k] <= seg[k-1] {
				t.Fatalf("%s: segment %d is not ascending: %v", name, g, seg)
			}
		}
		parts[g] = append([]int(nil), seg...)
		lo = hi
	}
	if lo != n {
		t.Fatalf("%s: the segments end at %d of %d positions", name, lo, n)
	}
	return parts
}

// atRows maps each partition's positions to the rows they stand for, in
// place: position i is rows[i].
func atRows(parts [][]int, rows []int) [][]int {
	for _, part := range parts {
		for j, p := range part {
			part[j] = rows[p]
		}
	}
	return parts
}

// checkGrouping fails unless gr is what the partitions parts (positions)
// say: every position carries its partition's id, and each group's first
// position and count are its partition's.
func checkGrouping(t *testing.T, name string, gr grouping, parts [][]int, n int) {
	t.Helper()
	if len(gr.ids) != n || len(gr.firsts) != len(parts) || len(gr.counts) != len(parts) {
		t.Errorf("%s: %d ids, %d firsts, %d counts for %d positions in %d groups", name, len(gr.ids), len(gr.firsts), len(gr.counts), n, len(parts))
		return
	}
	for g, part := range parts {
		if gr.firsts[g] != part[0] || gr.counts[g] != len(part) {
			t.Errorf("%s: group %d has first %d, count %d; its partition starts at %d and holds %d", name, g, gr.firsts[g], gr.counts[g], part[0], len(part))
			return
		}
		for _, p := range part {
			if gr.ids[p] != int32(g) {
				t.Errorf("%s: position %d has id %d, its partition is %d", name, p, gr.ids[p], g)
				return
			}
		}
	}
}

// TestPartitionRowsContract pins the one key grouper GROUP BY, DISTINCT
// and PARTITION BY call, and the permutation windows build from it: for
// every key shape (typed int and string loops, the table.AppendKey path for
// float, time, bool and composite keys) over the positions of every
// selection form (nil, span, dense) its segments are scalarPartitions'
// groups of = in first-appearance order, each one group's positions
// ascending, NULL keys form exactly one group, groupKeys' ids, firsts and
// counts agree with the segments (so their ends are the counts' prefix
// sums), and hashing on the worker pool — a large composite key, typed
// keys whose new groups first appear in later chunks, whose ids the merge
// remaps — equals the serial grouping.
func TestPartitionRowsContract(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(41))
	ints := table.NewColumn("i", table.KindInt)
	strs := table.NewColumn("s", table.KindString)
	floats := table.NewColumn("f", table.KindFloat)
	times := table.NewColumn("t", table.KindTime)
	bools := table.NewColumn("b", table.KindBool)
	// Neighbours = tells apart and a rounding or seconds key would merge,
	// and pairs = equates that a bit-exact key would split.
	point1 := 0.1
	floatKeys := []float64{0.5, 1, -2.75, math.NaN(), 1e18, 0.3, point1 + 0.2, math.Copysign(0, -1), 0}
	t0 := time.Date(2024, 3, 1, 9, 30, 0, 0, time.UTC)
	timeKeys := []time.Time{t0, t0.Add(time.Nanosecond), t0.Add(500 * time.Millisecond), t0.In(time.FixedZone("X", 8*3600))}
	strKeys := []string{"s0", "s1", "a", "a\x00"}
	for i := 0; i < n; i++ {
		iv, sv, fv, tv := table.Null(), table.Null(), table.Null(), table.Null()
		if x := rng.Intn(8); x < 7 {
			iv = table.Int(int64(x - 3))
		}
		if x := rng.Intn(len(strKeys) + 1); x < len(strKeys) {
			sv = table.Str(strKeys[x])
		}
		if x := rng.Intn(len(floatKeys) + 1); x < len(floatKeys) {
			fv = table.Float(floatKeys[x])
		}
		if x := rng.Intn(len(timeKeys) + 1); x < len(timeKeys) {
			tv = table.Time(timeKeys[x])
		}
		ints.Append(iv)
		strs.Append(sv)
		floats.Append(fv)
		times.Append(tv)
		if iv.IsNull() {
			bools.AppendNull()
		} else {
			bools.Append(table.Bool(iv.I > 0))
		}
	}

	scattered := make([]int, 0, n/2)
	for r := 0; r < n; r++ {
		if rng.Intn(2) == 0 {
			scattered = append(scattered, r)
		}
	}
	selections := map[string]*table.Selection{
		"nil":   nil,
		"span":  table.NewSpanSelection(table.Span{Lo: 40, Hi: 90}, table.Span{Lo: 200, Hi: 555}),
		"dense": table.NewIndexSelection(scattered),
	}
	keyShapes := map[string][]table.Column{
		"int":       {ints},
		"string":    {strs},
		"float":     {floats},
		"time":      {times},
		"composite": {strs, ints},
		"mixed":     {floats, times, strs},
		"bool":      {bools},
	}
	for sname, sel := range selections {
		rows := iotaInts(n)
		if sel != nil {
			rows = sel.Indices()
		}
		for kname, base := range keyShapes {
			keyCols := make([]table.Column, len(base))
			nullRows := map[int]bool{}
			for k := range base {
				keyCols[k] = base[k].Gather(rows, nil) // positional, like evalVec's output
			}
			for i, r := range rows {
				if len(keyCols) == 1 && keyCols[0].IsNullAt(i) {
					nullRows[r] = true
				}
			}
			got := segments(t, kname+" key, "+sname+" selection", keyCols, len(rows))
			gr, err := groupKeys(context.Background(), keyCols, len(rows))
			if err != nil {
				t.Fatalf("%s/%s: %v", kname, sname, err)
			}
			checkGrouping(t, kname+" key, "+sname+" selection", gr, got, len(rows))
			if want := scalarPartitions(keyCols, rows); !reflect.DeepEqual(atRows(got, rows), want) {
				t.Errorf("%s key, %s selection: partitions diverge from the scalar grouping\n got %v\nwant %v", kname, sname, got, want)
			}
			nullParts := 0
			for _, part := range got {
				if nullRows[part[0]] {
					nullParts++
					if len(part) != len(nullRows) {
						t.Errorf("%s key, %s selection: NULL partition holds %d of %d NULL rows", kname, sname, len(part), len(nullRows))
					}
				}
			}
			if len(nullRows) > 0 && nullParts != 1 {
				t.Errorf("%s key, %s selection: NULL keys form %d partitions, want 1", kname, sname, nullParts)
			}
		}
	}

	// Parallel key build: enough positions for several worker-pool chunks.
	big := 3 * parallelMinRows
	if _, chunks := chunkLayout(big, parallelMinRows); chunks < 2 && cap(workerSem) > 1 {
		t.Fatalf("%d rows lay out as %d chunk(s); the parallel key build would not run", big, chunks)
	}
	bigA := table.NewColumn("a", table.KindInt)
	bigB := table.NewColumn("b", table.KindString)
	for i := 0; i < big; i++ {
		if rng.Intn(20) == 0 {
			bigA.AppendNull()
		} else {
			bigA.Append(table.Int(int64(rng.Intn(40))))
		}
		bigB.Append(table.Str(fmt.Sprintf("b%d", rng.Intn(25))))
	}
	keyCols := []table.Column{bigA, bigB}
	got := segments(t, "parallel composite key", keyCols, big)
	gr, err := groupKeys(context.Background(), keyCols, big)
	if err != nil {
		t.Fatal(err)
	}
	checkGrouping(t, "parallel composite key", gr, got, big)
	if want := scalarPartitions(keyCols, iotaInts(big)); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel composite key build over %d rows diverges from the serial grouping (%d vs %d partitions)", big, len(got), len(want))
	}

	// Typed keys over several chunks: the chunk dictionaries merge in chunk
	// order, so a key first seen in the second chunk, and a NULL group that
	// only the second chunk has, must come after every first-chunk key and
	// before every key first seen later.
	size, _ := chunkLayout(big, parallelMinRows)
	lateInts := table.NewColumn("i", table.KindInt)
	lateStrs := table.NewColumn("s", table.KindString)
	for i := 0; i < big; i++ {
		second := i >= size && i < 2*size
		switch {
		case second && i%97 == 0:
			lateInts.AppendNull()
			lateStrs.AppendNull()
		case i == size+5 || i == 2*size+5:
			lateInts.Append(table.Int(int64(1000 + i)))
			lateStrs.Append(table.Str(fmt.Sprintf("late%d", i)))
		default:
			x := rng.Intn(6)
			lateInts.Append(table.Int(int64(x)))
			lateStrs.Append(table.Str(fmt.Sprintf("s%d", x)))
		}
	}
	bigSelections := map[string]*table.Selection{
		"nil":   nil,
		"range": table.NewSpanSelection(table.Span{Lo: 5, Hi: 5 + big}),
		"spans": table.NewSpanSelection(table.Span{Lo: 3, Hi: 3 + big/2}, table.Span{Lo: big, Hi: big + big - big/2}),
	}
	for kname, col := range map[string]table.Column{"int": lateInts, "string": lateStrs} {
		for sname, sel := range bigSelections {
			rows := iotaInts(big)
			if sel != nil {
				rows = sel.Indices()
			}
			name := fmt.Sprintf("typed %s key, %s selection, chunks of %d", kname, sname, size)
			got := segments(t, name, []table.Column{col}, big)
			gr, err := groupKeys(context.Background(), []table.Column{col}, big)
			if err != nil {
				t.Fatal(err)
			}
			checkGrouping(t, name, gr, got, big)
			if want := scalarPartitions([]table.Column{col}, rows); !reflect.DeepEqual(atRows(got, rows), want) {
				t.Errorf("%s: diverges from the serial grouping (%d vs %d partitions)", name, len(got), len(want))
			}
			nullParts := 0
			for _, part := range got {
				if pos := sort.SearchInts(rows, part[0]); col.IsNullAt(pos) {
					nullParts++
					if last := sort.SearchInts(rows, part[len(part)-1]); pos < size || last >= 2*size {
						t.Errorf("%s: NULL group spans positions %d..%d, outside the second chunk [%d, %d)", name, pos, last, size, 2*size)
					}
				}
			}
			if size < big && nullParts != 1 {
				t.Errorf("%s: NULL keys form %d partitions, want 1", name, nullParts)
			}
		}
	}

	// A cancelled context surfaces as an error, never as garbage partitions.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ends, err := partitionPerm(ctx, keyCols, big); err == nil {
		t.Errorf("cancelled composite partitioning returned %d segments and no error", len(ends))
	}
}

// TestKeysFollowEquals: GROUP BY, DISTINCT, COUNT(DISTINCT) and PARTITION
// BY put two rows in one group exactly when = holds between their keys, on
// both executors. x holds 0.3 and 0.1+0.2, one bit apart, and ts two
// instants 500 ms apart within one second: = tells each pair apart, as
// WHERE and the self-join on = show, so every form sees two groups of one
// row and numbers each row 1.
func TestKeysFollowEquals(t *testing.T) {
	point1 := 0.1
	t0 := time.Date(2024, 3, 1, 9, 30, 0, 0, time.UTC)
	tbl := table.MustNew("k", []string{"id", "x", "ts"}, []table.Kind{table.KindInt, table.KindFloat, table.KindTime})
	tbl.MustAppendRow(table.Int(1), table.Float(0.3), table.Time(t0))
	tbl.MustAppendRow(table.Int(2), table.Float(point1+0.2), table.Time(t0.Add(500*time.Millisecond)))
	c := NewCatalog()
	c.Register(tbl)
	for _, scalar := range []bool{false, true} {
		run := func(q string) *table.Table {
			t.Helper()
			out, err := queryTable(c, q)
			if scalar {
				out, err = c.QueryScalar(q)
			}
			if err != nil {
				t.Fatalf("%q (scalar=%v): %v", q, scalar, err)
			}
			return out
		}
		count := func(q string) int64 {
			t.Helper()
			out := run(q)
			n, ok := out.Columns[0].Value(0).AsInt()
			if out.NumRows() != 1 || !ok {
				t.Fatalf("%q (scalar=%v): want one count, got\n%s", q, scalar, dumpTable(out))
			}
			return n
		}
		if n := count("SELECT COUNT(*) FROM k WHERE x = 0.3"); n != 1 {
			t.Fatalf("scalar=%v: x = 0.3 holds on %d rows, want 1", scalar, n)
		}
		for _, col := range []string{"x", "ts"} {
			pairs := count(fmt.Sprintf("SELECT COUNT(*) FROM k a JOIN k b ON a.%s = b.%s", col, col))
			if pairs != 2 {
				t.Fatalf("scalar=%v: the self-join on %s = finds %d pairs, want 2", scalar, col, pairs)
			}
			groups := run(fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM k GROUP BY %s", col, col))
			var square int64
			for i := 0; i < groups.NumRows(); i++ {
				n, _ := groups.Columns[1].Value(i).AsInt()
				square += n * n
			}
			if groups.NumRows() != 2 || square != pairs {
				t.Errorf("scalar=%v: GROUP BY %s makes %d groups holding %d pairs of rows, = relates %d\n%s", scalar, col, groups.NumRows(), square, pairs, dumpTable(groups))
			}
			if d := run(fmt.Sprintf("SELECT DISTINCT %s FROM k", col)); d.NumRows() != 2 {
				t.Errorf("scalar=%v: DISTINCT %s returns %d rows, want 2", scalar, col, d.NumRows())
			}
			if n := count(fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM k", col)); n != 2 {
				t.Errorf("scalar=%v: COUNT(DISTINCT %s) = %d, want 2", scalar, col, n)
			}
			got := run(fmt.Sprintf("SELECT id, ROW_NUMBER() OVER (PARTITION BY %s ORDER BY id) AS rn FROM k ORDER BY id", col))
			want := run(fmt.Sprintf("SELECT a.id, COUNT(*) AS rn FROM k a JOIN k b ON a.%s = b.%s WHERE b.id <= a.id GROUP BY a.id ORDER BY a.id", col, col))
			if got.NumRows() != 2 || want.NumRows() != 2 {
				t.Fatalf("scalar=%v: PARTITION BY %s numbers %d rows, the self-join %d, want 2", scalar, col, got.NumRows(), want.NumRows())
			}
			for i := 0; i < 2; i++ {
				if g, w := rowAt(got, i), rowAt(want, i); table.Compare(g[1], w[1]) != 0 || table.Compare(g[1], table.Int(1)) != 0 {
					t.Errorf("scalar=%v: PARTITION BY %s numbers row %v as %v; rows up to it with = keys: %v", scalar, col, g[0], g[1], w[1])
				}
			}
		}
	}
}

// eventsCatalog registers a rows-row events table: kind, three strings
// (a NULL among them when nulls), and value.
func eventsCatalog(rows int, nulls bool) *Catalog {
	rng := rand.New(rand.NewSource(26))
	kinds := []string{"view", "click", "buy"}
	ks := make([]string, rows)
	kn := make([]bool, rows)
	vs := make([]float64, rows)
	for i := range ks {
		ks[i] = kinds[rng.Intn(len(kinds))]
		kn[i] = nulls && rng.Intn(9) == 0
		vs[i] = float64(rng.Intn(10000)) / 100
	}
	c := NewCatalog()
	c.Register(&table.Table{Name: "events", Columns: []table.Column{
		table.ColumnFromStrings("kind", ks, kn),
		table.ColumnFromFloats("value", vs, nil),
	}})
	return c
}

// readBytes is what one run of q allocates on average over runs, once q
// is planned.
func readBytes(t *testing.T, c *Catalog, q string, groups, runs int) float64 {
	t.Helper()
	if _, err := queryTable(c, q); err != nil { // plans the statement
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out, err := queryTable(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != groups {
			t.Fatalf("%s: %d groups, want %d", q, out.NumRows(), groups)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestGroupedReadAllocationPin holds a grouped read over a 300k-row table
// under 0.5 bytes a row. Its key is coded, so the grouping counts codes
// into per-chunk arrays the size of the dictionary and keeps no id per
// row; COUNT(*) is the groups' counts, and SUM maps each block of codes to
// ids in one 4 KB buffer, with no row list and no gathered copy. An int32
// id per row costs about 4.1 B, a row-id array per group about 12,
// append-grown row lists and gathered floats about 48. The uncoded twin
// groups by LOWER(kind) and is held at what its id array and the LOWER
// column cost: under 6 bytes a row over the column's own 17.
func TestGroupedReadAllocationPin(t *testing.T) {
	const rows = 300_000
	c := eventsCatalog(rows, false)
	if s, _ := c.Snapshot("events"); !coded(s.Table().Columns[0]) {
		t.Fatal("the 300k-row kind column is not coded")
	}
	perRow := readBytes(t, c, "SELECT kind, COUNT(*) AS n, SUM(value) AS total FROM events GROUP BY kind", 3, 5) / rows
	if perRow >= 0.5 {
		t.Errorf("grouped read allocates %.2f B per row, want < 0.5", perRow)
	}
	t.Logf("grouped read: %.2f B per row", perRow)
	perRow = readBytes(t, c, "SELECT LOWER(kind), COUNT(*) AS n, SUM(value) AS total FROM events GROUP BY LOWER(kind)", 3, 5) / rows
	if perRow >= 17+6 {
		t.Errorf("uncoded grouped read allocates %.2f B per row, want < 17 + 6", perRow)
	}
	t.Logf("uncoded grouped read: %.2f B per row", perRow)
}

// TestSmallGroupedFoldAllocationPin: below the coding floor a grouped
// SUM allocates no more than its fold's own arrays beyond what COUNT(*)
// over the same groups does — well under the 4 KB id buffer only a coded
// grouping's fold may allocate.
func TestSmallGroupedFoldAllocationPin(t *testing.T) {
	c := eventsCatalog(4000, true)
	if s, _ := c.Snapshot("events"); coded(s.Table().Columns[0]) {
		t.Fatal("the 4000-row kind column is coded")
	}
	sum := readBytes(t, c, "SELECT kind, SUM(value) FROM events GROUP BY kind", 4, 50)
	count := readBytes(t, c, "SELECT kind, COUNT(*) FROM events GROUP BY kind", 4, 50)
	if sum-count >= 1024 {
		t.Errorf("SUM allocates %.0f B, %.0f more than COUNT(*)'s %.0f; want under 1024 more", sum, sum-count, count)
	}
	t.Logf("SUM %.0f B, COUNT(*) %.0f B", sum, count)
}

// coded reports whether col keeps dictionary codes.
func coded(col table.Column) bool {
	_, _, _, ok := col.Codes()
	return ok
}

// TestCodedGroupingMatchesHashed: a coded string key (a column an
// Appender published) groups by counting codes, its twin of the same
// cells built by ColumnFromStrings by hashing them, and groupKeys must
// give both the same ids, firsts and counts — under nil, span and dense
// selections, with NULLs, over one worker-pool chunk and several, where a
// selection meets the strings in another order than the dictionary holds
// them, where a string and the NULL group first appear in a later chunk,
// and where the selection is shorter than the dictionary. A cancelled
// context is an error on both.
func TestCodedGroupingMatchesHashed(t *testing.T) {
	n := 4 * parallelMinRows
	rng := rand.New(rand.NewSource(41))
	ks := make([]string, n)
	kn := make([]bool, n)
	for i := range ks {
		switch {
		case i < 5: // the dictionary's order: s0, s1, ..., s4
			ks[i] = fmt.Sprintf("s%d", i)
		case i == n/2+7: // first seen in a later chunk
			ks[i] = "late"
		case i > n/2 && i%89 == 0: // NULL only in the later half
			kn[i] = true
		case i > n/4 && i < n/4+50: // s4 first, where the span below starts
			ks[i] = "s4"
		default:
			ks[i] = fmt.Sprintf("s%d", rng.Intn(5))
		}
	}
	app := table.NewAppender(&table.Table{Name: "k", Columns: []table.Column{table.ColumnFromStrings("k", ks, kn)}})
	col := app.Snapshot().Table().Columns[0]
	if !coded(col) {
		t.Fatal("the published key column is not coded")
	}
	var scattered []int
	for r := 0; r < n; r++ {
		if rng.Intn(3) > 0 {
			scattered = append(scattered, r)
		}
	}
	selections := map[string]*table.Selection{
		"nil":      nil,
		"range":    table.NewSpanSelection(table.Span{Lo: n / 4, Hi: n}),
		"spans":    table.NewSpanSelection(table.Span{Lo: n/4 + 10, Hi: n / 3}, table.Span{Lo: n / 2, Hi: n - 5}),
		"dense":    table.NewIndexSelection(scattered),
		"one span": table.NewSpanSelection(table.Span{Lo: n/2 + 1, Hi: n/2 + parallelMinRows/2}),
		"tiny":     table.NewIndexSelection([]int{n/2 + 7, 3, n - 1}),
	}
	for sname, sel := range selections {
		key := col
		if lo, hi, ok := sel.AsRange(); ok && sel != nil {
			key = col.View(lo, hi)
		} else if sel != nil {
			key = col.GatherSel(sel)
		}
		strs, nulls, _ := key.Strings()
		twin := table.ColumnFromStrings("k", append([]string(nil), strs...), append([]bool(nil), nulls...))
		if _, dict, _, _ := key.Codes(); !coded(key) || coded(twin) {
			t.Fatalf("%s: the key is coded %v, its twin %v", sname, coded(key), coded(twin))
		} else if sname == "tiny" && len(dict) <= key.Len() {
			t.Fatalf("the tiny selection's %d positions cover the dictionary of %d", key.Len(), len(dict))
		}
		m := key.Len()
		got, err := groupKeys(context.Background(), []table.Column{key}, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := groupKeys(context.Background(), []table.Column{twin}, m)
		if err != nil {
			t.Fatal(err)
		}
		if sname != "tiny" && (got.remap == nil || got.ids != nil) {
			t.Errorf("%s: the coded key was grouped by hashing", sname)
		}
		if !reflect.DeepEqual(got.idList(), want.ids) || !reflect.DeepEqual(got.firsts, want.firsts) || !reflect.DeepEqual(got.counts, want.counts) {
			t.Errorf("%s selection: coded grouping %v / %v diverges from the hashed %v / %v", sname, got.firsts, got.counts, want.firsts, want.counts)
		}
		gotParts := segments(t, sname+" selection, coded", []table.Column{key}, m)
		checkGrouping(t, sname+" selection, coded", grouping{ids: got.idList(), firsts: got.firsts, counts: got.counts}, gotParts, m)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if gr, err := groupKeys(ctx, []table.Column{col}, n); err == nil {
		t.Errorf("cancelled coded grouping returned %d groups and no error", len(gr.counts))
	}
}

// TestCodedKeysMatchScalar is the row oracle's differential over a table
// past the coding floor, so its string key s, NULLs among its cells, is
// coded: GROUP BY, HAVING with expression and DISTINCT aggregates (the
// restricted fold through aggAcc), DISTINCT and PARTITION BY, under span
// and dense selections. The fuzz catalogs are all below the floor.
func TestCodedKeysMatchScalar(t *testing.T) {
	c := groupedCatalog(2 * parallelMinRows)
	if s, _ := c.Snapshot("g"); !coded(s.Table().Columns[2]) {
		t.Fatal("the string key column is not coded")
	}
	queries := []string{
		"SELECT s, COUNT(*), SUM(v), MIN(w) FROM g GROUP BY s",
		"SELECT s, COUNT(*) FROM g WHERE id >= 3000 GROUP BY s",
		"SELECT s, AVG(w) FROM g WHERE id % 3 = 1 GROUP BY s ORDER BY s",
		"SELECT s, MEDIAN(v + 1), COUNT(DISTINCT k), MAX(w * 2) FROM g GROUP BY s HAVING SUM(v) > 4200 OR s IS NULL",
		"SELECT s, STDDEV(w - v), SUM(v * 2) FROM g WHERE id > 100 GROUP BY s HAVING COUNT(*) < 2050",
		"SELECT DISTINCT s FROM g",
		"SELECT DISTINCT s FROM g WHERE id % 5 = 2",
		"SELECT DISTINCT s FROM g WHERE id >= 7000",
		"SELECT id, s, RANK() OVER (PARTITION BY s ORDER BY v DESC, id) AS r FROM g WHERE id < 5000",
		"SELECT id, ROW_NUMBER() OVER (PARTITION BY s ORDER BY id) AS r, SUM(v) OVER (PARTITION BY s) AS t FROM g WHERE id % 4 <> 0",
	}
	for _, q := range queries {
		want, err := c.QueryScalar(q)
		if err != nil {
			t.Fatalf("query %q: scalar: %v", q, err)
		}
		for _, dense := range []bool{false, true} {
			forceDenseSelection.Store(dense)
			got, err := queryTable(c, q)
			forceDenseSelection.Store(false)
			if err != nil {
				t.Fatalf("query %q (dense=%v): %v", q, dense, err)
			}
			if dg, dw := dumpTable(got), dumpTable(want); dg != dw {
				t.Errorf("query %q (dense=%v): vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", q, dense, dg, dw)
			}
		}
	}
}

// TestTypedAggregatesMatchFold: COUNT, SUM/AVG and MIN/MAX over typed int
// and float columns fold by group id in typed loops, and each group's cell
// must be exactly what folding that group's boxed cells through aggAcc in
// row order gives — the same additions in the same order, the same
// earliest-of-equals — bit for bit and kind for kind, with NaN, −0.0 beside
// 0.0 and ints beyond 2^53 among the cells. The one-group fold of a global
// aggregate runs under span, dense, all-NULL and empty selections and each
// key group's rows; the keyed fold groups the positions of span, dense and
// empty selections by a key with a NULL-only group and a group of ties,
// over one worker-pool chunk and over several (the merge remaps ids).
func TestTypedAggregatesMatchFold(t *testing.T) {
	ctx := context.Background()
	n := 3 * parallelMinRows
	rng := rand.New(rand.NewSource(26))
	keys := table.NewColumn("k", table.KindInt)
	// tieKeys is k, except that the NULL rows form group 7 and the edge
	// rows group 8.
	tieKeys := table.NewColumn("t", table.KindInt)
	floats := table.NewColumn("f", table.KindFloat)
	ints := table.NewColumn("i", table.KindInt)
	// edgeRows hold only −0.0 and 0.0, and 2^53+1 and 2^53, which float64
	// cannot tell apart: MIN and MAX there turn on which equal cell wins.
	var nullRows, edgeRows []int
	for r := 0; r < n; r++ {
		k := int64(rng.Intn(7))
		keys.Append(table.Int(k))
		if r%10 == 3 {
			floats.AppendNull()
			ints.AppendNull()
			tieKeys.Append(table.Int(7))
			nullRows = append(nullRows, r)
			continue
		}
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-6))
		i := rng.Int63n(1<<62) - 1<<61
		switch r % 97 {
		case 5:
			f, i = math.NaN(), -(1<<53 + 1)
		case 6:
			f, i = math.Copysign(0, -1), 1<<53+1
			edgeRows = append(edgeRows, r)
			k = 8
		case 7:
			f, i = 0, 1<<53
			edgeRows = append(edgeRows, r)
			k = 8
		}
		floats.Append(table.Float(f))
		ints.Append(table.Int(i))
		tieKeys.Append(table.Int(k))
	}
	parts := segments(t, "the int key", []table.Column{keys}, n)
	sels := map[string]*table.Selection{
		"all":   table.NewSpanSelection(table.Span{Lo: 0, Hi: n}),
		"spans": table.NewSpanSelection(table.Span{Lo: 5, Hi: 900}, table.Span{Lo: 1000, Hi: n - 3}),
		"nulls": table.NewIndexSelection(nullRows),
		"edges": table.NewIndexSelection(edgeRows),
		"empty": table.NewIndexSelection(nil),
	}
	for g, part := range parts {
		sels[fmt.Sprintf("group %d", g)] = table.NewIndexSelection(part)
	}
	var most []int // every row but each fifth: a dense selection of several chunks
	for r := 0; r < n; r++ {
		if r%5 != 0 {
			most = append(most, r)
		}
	}
	keyed := map[string]*table.Selection{
		"nil":         nil,
		"spans":       sels["spans"],
		"dense":       table.NewIndexSelection(most),
		"empty":       sels["empty"],
		"one chunk":   table.NewSpanSelection(table.Span{Lo: 10, Hi: 10 + parallelMinRows - 1}),
		"dense chunk": table.NewIndexSelection(most[:parallelMinRows-1]),
	}
	if _, chunks := chunkLayout(n, parallelMinRows); chunks < 2 && cap(workerSem) > 1 {
		t.Fatalf("%d rows lay out as %d chunk(s); the remap pass would not run", n, chunks)
	}

	base := &vrel{cols: []table.Column{floats, ints}, nrows: n}
	folded := func(name string, col *table.Column, rows []int) table.Value {
		acc, err := newAggAcc(name, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			acc.add(r, col.Value)
		}
		return acc.value()
	}
	check := func(what string, got, want table.Value) {
		if got.Kind != want.Kind || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Errorf("%s: %v (%x), folded %v (%x)", what, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
		}
	}
	for cname, ci := range map[string]int{"float": 0, "int": 1} {
		col := &base.cols[ci]
		for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			fn := &FuncCall{Name: name, Args: []Expr{&ColumnRef{Name: cname, idx: ci}}}
			for sname, sel := range sels {
				g, err := groupRows(ctx, nil, base, sel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.fold(fn, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s over the %s column, %s", name, cname, sname), got.Value(0), folded(name, col, sel.Indices()))
			}
			for sname, sel := range keyed {
				rows := iotaInts(n)
				if sel != nil {
					rows = sel.Indices()
				}
				for kname, kc := range map[string]*table.Column{"k": &keys, "tie": &tieKeys} {
					keyCols := []table.Column{kc.Gather(rows, nil)}
					g, err := groupRows(ctx, keyCols, base, sel)
					if err != nil {
						t.Fatal(err)
					}
					got, err := g.fold(fn, nil)
					if err != nil {
						t.Fatal(err)
					}
					groups := scalarPartitions(keyCols, rows)
					if got.Len() != len(groups) {
						t.Fatalf("%s over the %s column, %s selection by %s: %d cells for %d groups", name, cname, sname, kname, got.Len(), len(groups))
					}
					for gi, part := range groups {
						check(fmt.Sprintf("%s over the %s column, %s selection by %s, group %d", name, cname, sname, kname, gi),
							got.Value(gi), folded(name, col, part))
					}
				}
			}
		}
	}
}

// TestHavingArgumentsSeeKeptGroupsOnly: under HAVING, an aggregate in the
// select list evaluates its argument on the rows of the groups HAVING kept,
// as a per-group evaluation would. Group e = 2 is dropped and is the only
// one whose rows take ABS of a string, which raises; the statement must
// succeed and equal the row oracle, and without the HAVING it must raise.
// The rows interleave, over several worker-pool chunks.
func TestHavingArgumentsSeeKeptGroupsOnly(t *testing.T) {
	n := 3 * parallelMinRows
	data := table.MustNew("data",
		[]string{"a", "b", "c", "e"},
		[]table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindInt})
	for i := 0; i < n; i++ {
		a, c, e := table.Int(int64(i%30)), table.Null(), table.Int(int64(i%3))
		switch {
		case i%250 == 7: // the dropped group: 50 rows
			a, c, e = table.Int(40), table.Str("x"), table.Int(2)
		case i%3 == 2: // no other row is in group 2
			e = table.Int(1)
		case i%17 == 0: // kept rows past the threshold: ABS(NULL)
			a = table.Int(50)
		}
		data.MustAppendRow(a, table.Float(float64(i%101)/4), c, e)
	}
	c := NewCatalog()
	c.Register(data)
	const q = "SELECT e, MAX(CASE WHEN a > 35 THEN ABS(c) ELSE b END) FROM data GROUP BY e HAVING COUNT(*) > 60"
	want, err := c.QueryScalar(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, dense := range []bool{false, true} {
		forceDenseSelection.Store(dense)
		got, err := queryTable(c, q)
		forceDenseSelection.Store(false)
		if err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
		if got.NumRows() != 2 {
			t.Errorf("dense=%v: %d groups kept, want 2", dense, got.NumRows())
		}
		if dg, dw := dumpTable(got), dumpTable(want); dg != dw {
			t.Errorf("dense=%v: vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", dense, dg, dw)
		}
	}
	if _, err := queryTable(c, "SELECT e, MAX(CASE WHEN a > 35 THEN ABS(c) ELSE b END) FROM data GROUP BY e"); err == nil {
		t.Error("without the HAVING, the dropped group's ABS of a string did not raise")
	}
}
