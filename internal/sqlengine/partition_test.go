package sqlengine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
// the reference side, so every shape below — memcmp-encodable keys, the
// boxed fallback (NaN, mixed int/float), the bounded top-K heap on either
// side of the group count, DISTINCT disabling the bound — must agree row
// for row, under span and dense selections alike. The larger table crosses
// parallelMinRows, so groups also evaluate on the worker pool.
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
		// NaN float key: no memcmp encoding, the boxed stable sort runs
		"SELECT f, COUNT(*) AS n FROM g GROUP BY f ORDER BY f",
		"SELECT f, s, COUNT(*) FROM g WHERE id % 2 = 1 GROUP BY f, s ORDER BY f DESC, s LIMIT 6",
		// CASE key mixing int and float: a boxed key column
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
				got, err := c.Query(q)
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

// scalarPartitions is the scalar executor's grouping spelled out
// (executeGroupedScalar's loop): canonical Value.Key strings joined with
// \x1f, groups in first-appearance order, rows ascending.
func scalarPartitions(keyCols []table.Column, rows []int) [][]int {
	index := map[string]int{}
	var parts [][]int
	for i, r := range rows {
		var kb strings.Builder
		for k := range keyCols {
			kb.WriteString(keyCols[k].Value(i).Key())
			kb.WriteByte('\x1f')
		}
		pi, ok := index[kb.String()]
		if !ok {
			pi = len(parts)
			index[kb.String()] = pi
			parts = append(parts, nil)
		}
		parts[pi] = append(parts[pi], r)
	}
	return parts
}

// TestPartitionRowsContract pins the one row partitioner both GROUP BY and
// PARTITION BY call: for every key shape (typed int and string loops, the
// canonical-key path for float, composite and boxed keys) and every
// selection form (nil, span, dense) it yields the scalar executor's groups
// in the scalar executor's order with absolute row ids, NULL keys form
// exactly one group, and the worker-pool key build over a large composite
// key equals the serial grouping.
func TestPartitionRowsContract(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(41))
	ints := table.NewColumn("i", table.KindInt)
	strs := table.NewColumn("s", table.KindString)
	floats := table.NewColumn("f", table.KindFloat)
	boxed := table.NewColumn("x", table.KindInt)
	for i := 0; i < n; i++ {
		iv, sv, fv := table.Null(), table.Null(), table.Null()
		if x := rng.Intn(8); x < 7 {
			iv = table.Int(int64(x - 3))
		}
		if x := rng.Intn(5); x < 4 {
			sv = table.Str(fmt.Sprintf("s%d", x))
		}
		if x := rng.Intn(6); x < 5 {
			fv = table.Float([]float64{0.5, 1, -2.75, math.NaN(), 1e18}[x])
		}
		ints.Append(iv)
		strs.Append(sv)
		floats.Append(fv)
		if i%3 == 0 {
			boxed.Append(sv) // a string in an int column: degrades to boxed
		} else {
			boxed.Append(iv)
		}
	}
	if boxed.IsTyped() {
		t.Fatal("boxed key column stayed typed")
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
		"composite": {strs, ints},
		"boxed":     {boxed},
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
				keyCols[k] = base[k].Gather(rows) // positional, like evalVec's output
			}
			for i, r := range rows {
				if len(keyCols) == 1 && keyCols[0].IsNullAt(i) {
					nullRows[r] = true
				}
			}
			got, err := partitionRows(context.Background(), keyCols, sel, len(rows))
			if err != nil {
				t.Fatalf("%s/%s: %v", kname, sname, err)
			}
			if want := scalarPartitions(keyCols, rows); !reflect.DeepEqual(got, want) {
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
	got, err := partitionRows(context.Background(), keyCols, nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if want := scalarPartitions(keyCols, iotaInts(big)); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel composite key build over %d rows diverges from the serial grouping (%d vs %d partitions)", big, len(got), len(want))
	}

	// A cancelled context surfaces as an error, never as garbage partitions.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if parts, err := partitionRows(ctx, keyCols, nil, big); err == nil {
		t.Errorf("cancelled composite partitioning returned %d partitions and no error", len(parts))
	}
}
