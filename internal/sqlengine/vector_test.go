package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"datalab/internal/table"
)

// dumpTable renders a table as column names plus canonical cell keys, for
// strict (ordered) result comparison between the two executors.
func dumpTable(t *table.Table) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.ColumnNames(), "|"))
	sb.WriteByte('\n')
	for i, n := 0, t.NumRows(); i < n; i++ {
		for j := range t.Columns {
			sb.WriteString(t.Columns[j].Value(i).Key())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkDifferential runs one query through both executors and fails on any
// mismatch in error status, column names, row order, or cell values.
func checkDifferential(t *testing.T, c *Catalog, q string) {
	t.Helper()
	vec, vecErr := c.Query(q)
	sca, scaErr := c.QueryScalar(q)
	if (vecErr == nil) != (scaErr == nil) {
		t.Errorf("query %q: error mismatch\n  vectorized: %v\n  scalar:     %v", q, vecErr, scaErr)
		return
	}
	if vecErr != nil {
		return
	}
	dv, ds := dumpTable(vec), dumpTable(sca)
	if dv != ds {
		t.Errorf("query %q: result mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", q, dv, ds)
	}
}

func TestVectorizedMatchesScalarCorpus(t *testing.T) {
	c := testCatalog(t)
	queries := []string{
		"SELECT * FROM sales",
		"SELECT id, amount FROM sales WHERE amount > 100",
		"SELECT id FROM sales WHERE amount <= 0",
		"SELECT id FROM sales WHERE amount IS NULL",
		"SELECT id FROM sales WHERE amount IS NOT NULL AND qty > 1",
		"SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY 2 DESC",
		"SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC, region",
		"SELECT s.id, p.price FROM sales s JOIN products p ON s.product = p.name WHERE p.price > 40",
		"SELECT s.id, p.name FROM sales s LEFT JOIN products p ON s.product = p.name ORDER BY s.id",
		"SELECT s.id FROM sales s JOIN products p ON s.product = p.name AND s.amount > p.price",
		"SELECT s.id, p.category FROM sales s RIGHT JOIN products p ON s.product = p.name",
		"SELECT s.id, p.category FROM sales s RIGHT OUTER JOIN products p ON s.product = p.name AND s.qty > 1",
		"SELECT s.id, p.name FROM sales s FULL OUTER JOIN products p ON s.product = p.name",
		"SELECT s.id, p.name FROM sales s FULL JOIN products p ON s.product = p.name AND s.amount > 100",
		"SELECT p.category, COUNT(*) FROM sales s FULL OUTER JOIN products p ON s.product = p.name GROUP BY p.category ORDER BY 1",
		"SELECT s.region, p.price FROM sales s RIGHT JOIN products p ON s.product = p.name WHERE p.price > 40 ORDER BY s.region, p.price",
		"SELECT region, COUNT(*) AS n FROM sales WHERE amount IS NOT NULL GROUP BY region HAVING COUNT(*) > 1",
		"SELECT id FROM sales WHERE region = 'west' AND (product = 'widget' OR qty >= 4)",
		"SELECT id, amount * qty FROM sales WHERE id BETWEEN 2 AND 5",
		"SELECT id FROM sales WHERE id NOT BETWEEN 2 AND 5",
		"SELECT id FROM sales WHERE product IN ('widget', 'gadget') ORDER BY id",
		"SELECT id FROM sales WHERE product NOT IN ('widget') ORDER BY id DESC",
		"SELECT id FROM sales WHERE qty IN (1, 3)",
		"SELECT DISTINCT region FROM sales ORDER BY region",
		"SELECT DISTINCT product, region FROM sales",
		"SELECT UPPER(region), amount + 1.5 FROM sales WHERE NOT (qty < 2)",
		"SELECT id, -amount, -qty FROM sales",
		"SELECT id FROM sales WHERE product LIKE 'w%'",
		"SELECT id FROM sales WHERE region || product LIKE '%stwid%'",
		"SELECT region, MIN(amount), MAX(amount), AVG(amount) FROM sales GROUP BY region",
		"SELECT COUNT(*), COUNT(amount), SUM(qty) FROM sales",
		"SELECT COUNT(DISTINCT region) FROM sales",
		"SELECT MEDIAN(amount), STDDEV(amount) FROM sales",
		"SELECT s.region, p.category, SUM(s.amount) FROM sales s LEFT JOIN products p ON s.product = p.name GROUP BY s.region, p.category",
		"SELECT CASE WHEN amount > 100 THEN 'big' ELSE 'small' END AS size, COUNT(*) FROM sales GROUP BY size",
		"SELECT id, amount FROM sales ORDER BY amount DESC LIMIT 3",
		"SELECT id FROM sales ORDER BY id LIMIT 2 OFFSET 2",
		"SELECT qty, qty % 2, qty / 2 FROM sales",
		"SELECT id FROM sales WHERE amount / 0 > 1",
		"SELECT YEAR(ftime), COUNT(*) FROM sales GROUP BY YEAR(ftime) ORDER BY 1",
		"SELECT region FROM sales WHERE ftime > '2024-01-01'",
		"SELECT unknowncol FROM sales",
		"SELECT id FROM sales WHERE unknowncol = 1",
		"SELECT region, SUM(amount * qty) FROM sales GROUP BY region",
		"SELECT NULL AS x FROM sales LIMIT 2",
		"SELECT id, CASE WHEN amount > 1e9 THEN 1 END AS never FROM sales ORDER BY id LIMIT 3",
	}
	for _, q := range queries {
		checkDifferential(t, c, q)
	}
}

// TestAllNullProjectionDoesNotPanic pins the regression where an all-NULL
// projected column was retagged to TEXT without string storage and
// crashed in Slice/Limit.
func TestAllNullProjectionDoesNotPanic(t *testing.T) {
	c := testCatalog(t)
	out := mustQuery(t, c, "SELECT NULL AS x FROM sales LIMIT 2")
	if out.NumRows() != 2 || out.NumCols() != 1 {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
	for i := 0; i < out.NumRows(); i++ {
		if !out.Columns[0].Value(i).IsNull() {
			t.Errorf("row %d: want NULL, got %v", i, out.Columns[0].Value(i))
		}
	}
	if got := out.Columns[0].Kind; got != table.KindString {
		t.Errorf("all-NULL column kind = %v, want TEXT default", got)
	}
	// Distinct + offset also walk the column; make sure they survive too.
	out = mustQuery(t, c, "SELECT DISTINCT NULL AS x FROM sales")
	if out.NumRows() != 1 {
		t.Errorf("distinct all-NULL rows = %d, want 1", out.NumRows())
	}
}

// randDataRow draws one row for the `data` table — shared between initial
// catalog construction and the streaming appends the snapshot-immutability
// executor performs, so ingested rows follow the same distributions.
func randDataRow(rng *rand.Rand) []table.Value {
	cats := []string{"red", "green", "blue", "mauve", ""}
	var a, b, c, d table.Value
	if rng.Intn(10) == 0 {
		a = table.Null()
	} else {
		a = table.Int(int64(rng.Intn(50) - 10))
	}
	switch r := rng.Intn(200); {
	case r < 20:
		b = table.Null()
	case r == 20:
		// table.Compare orders NaN equal to every number; both executors
		// must agree on that wherever a predicate meets one.
		b = table.Float(math.NaN())
	default:
		b = table.Float(float64(rng.Intn(2000))/10 - 40)
	}
	s := cats[rng.Intn(len(cats))]
	if s == "" {
		c = table.Null()
	} else {
		c = table.Str(s)
	}
	if rng.Intn(12) == 0 {
		d = table.Null()
	} else {
		d = table.Bool(rng.Intn(2) == 0)
	}
	return []table.Value{a, b, c, d, table.Int(int64(rng.Intn(8)))}
}

// randMultiRow draws one row for the duplicate-keyed `multi` join table.
func randMultiRow(rng *rand.Rand) []table.Value {
	var k table.Value
	switch {
	case rng.Intn(8) == 0:
		k = table.Null()
	case rng.Intn(5) == 0:
		k = table.Int(int64(8 + rng.Intn(2)))
	default:
		k = table.Int(int64(rng.Intn(6)))
	}
	return []table.Value{k,
		table.Str(fmt.Sprintf("t%d", rng.Intn(4))),
		table.Float(float64(rng.Intn(80)) / 10)}
}

// randCatalog builds a randomized dataset with NULLs, duplicates, and a
// dimension table for joins.
func randCatalog(rng *rand.Rand, rows int) *Catalog {
	data := table.MustNew("data",
		[]string{"a", "b", "c", "d", "e"},
		[]table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool, table.KindInt})
	for i := 0; i < rows; i++ {
		data.MustAppendRow(randDataRow(rng)...)
	}
	dim := table.MustNew("dim",
		[]string{"key", "label", "weight"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for k := 0; k < 6; k++ {
		dim.MustAppendRow(table.Int(int64(k)), table.Str(fmt.Sprintf("label%d", k%3)), table.Float(float64(k)*1.5))
	}
	// multi is the fan-out join target: mkey values cluster on data.e's
	// 0..5 with duplicates (one probe row matches several multi rows),
	// plus keys 8..9 no data row carries (RIGHT/FULL padding) and NULL
	// keys that never match. score fuels residual ON predicates.
	multi := table.MustNew("multi",
		[]string{"mkey", "tag", "score"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for i, n := 0, 6+rng.Intn(12); i < n; i++ {
		multi.MustAppendRow(randMultiRow(rng)...)
	}
	c := NewCatalog()
	c.Register(data)
	c.Register(dim)
	c.Register(multi)
	return c
}

// randPredicate generates a random WHERE/HAVING-free predicate over data's
// columns.
func randPredicate(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) == 0 {
		op := "AND"
		if rng.Intn(2) == 0 {
			op = "OR"
		}
		l := randPredicate(rng, depth-1)
		r := randPredicate(rng, depth-1)
		p := fmt.Sprintf("(%s %s %s)", l, op, r)
		if rng.Intn(4) == 0 {
			p = "NOT " + p
		}
		return p
	}
	cmps := []string{"=", "<>", "<", "<=", ">", ">="}
	// An AND chain that puts a conjunct raising on non-NULL strings before or
	// after a kernel comparison over a NULL-bearing column (a, b): the rows
	// the comparison rejects must not reach it, the NULL rows must.
	if depth > 0 && rng.Intn(12) == 0 {
		raising := []string{"c + 1 > 0", "ABS(c) > 1", "NOT c"}[rng.Intn(3)]
		kernel := []string{"a > 100", "a < 45", "b > 500.0", "a BETWEEN 60 AND 70", "7 > a"}[rng.Intn(5)]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s AND %s)", kernel, raising)
		}
		return fmt.Sprintf("(%s AND %s)", raising, kernel)
	}
	switch rng.Intn(16) {
	case 14, 15:
		// The float column carries a NaN cell: BETWEEN and IN must place it
		// where table.Compare does, negated or not.
		not := []string{"", "NOT "}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("b %sBETWEEN %.1f AND %d", not, float64(rng.Intn(800))/10-40, rng.Intn(160))
		}
		return fmt.Sprintf("b %sIN (%.1f, %d)", not, float64(rng.Intn(2000))/10-40, rng.Intn(160)-40)
	case 11:
		// Constant on the left: the kernel flips the operator.
		return fmt.Sprintf("%d %s a", rng.Intn(50)-10, cmps[rng.Intn(len(cmps))])
	case 12:
		// Int column against a float literal compares as float64.
		return fmt.Sprintf("a %s %.1f", cmps[rng.Intn(len(cmps))], float64(rng.Intn(500))/10-10)
	case 13:
		// Float column against an int literal.
		return fmt.Sprintf("b %s %d", cmps[rng.Intn(len(cmps))], rng.Intn(160)-40)
	case 0:
		return fmt.Sprintf("a %s %d", cmps[rng.Intn(len(cmps))], rng.Intn(50)-10)
	case 1:
		return fmt.Sprintf("b %s %.1f", cmps[rng.Intn(len(cmps))], float64(rng.Intn(1600))/10-40)
	case 2:
		return fmt.Sprintf("c %s '%s'", cmps[rng.Intn(2)], []string{"red", "green", "blue"}[rng.Intn(3)])
	case 3:
		return fmt.Sprintf("a BETWEEN %d AND %d", rng.Intn(20)-10, rng.Intn(30))
	case 4:
		return fmt.Sprintf("c IN ('red', '%s')", []string{"green", "blue", "teal"}[rng.Intn(3)])
	case 5:
		return fmt.Sprintf("a IN (%d, %d, %d)", rng.Intn(20), rng.Intn(20), rng.Intn(20))
	case 6:
		col := []string{"a", "b", "c", "d"}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			return col + " IS NULL"
		}
		return col + " IS NOT NULL"
	case 7:
		return fmt.Sprintf("c LIKE '%s'", []string{"%e%", "b_ue", "%d", "gr%"}[rng.Intn(4)])
	case 8:
		// Uncorrelated scalar subquery: aggregates always yield one row,
		// so the comparison is error-free; both engines inline the result.
		sub := []string{"MIN(mkey)", "MAX(score)", "AVG(score)", "COUNT(*)", "SUM(weight)"}[rng.Intn(5)]
		from := "multi"
		if sub == "SUM(weight)" {
			from = "dim"
		}
		return fmt.Sprintf("a %s (SELECT %s FROM %s)", cmps[rng.Intn(len(cmps))], sub, from)
	case 9:
		// IN (SELECT ...): the membership list is data-dependent and may
		// contain NULL mkeys, driving the three-valued NOT IN edge.
		not := ""
		if rng.Intn(3) == 0 {
			not = "NOT "
		}
		return fmt.Sprintf("e %sIN (SELECT mkey FROM multi WHERE score %s %.1f)",
			not, cmps[rng.Intn(len(cmps))], float64(rng.Intn(80))/10)
	default:
		// Non-aggregate scalar subquery: returns 0 rows (→ NULL
		// comparison), 1 row, or several — the several-rows case must fail
		// identically in every executor.
		return fmt.Sprintf("b > (SELECT score FROM multi WHERE score > %.1f)", 6.0+float64(rng.Intn(25))/10)
	}
}

// randWindowItem draws one window-function select item. Arguments,
// partition keys, and sort keys span the typed sort-kernel path (int,
// float, string keys, NULLs included) and the boxed fallback (bool
// partition/order keys); frames cover whole-partition, running RANGE, and
// sliding ROWS shapes.
func randWindowItem(rng *rand.Rand) string {
	part := []string{"", "PARTITION BY c ", "PARTITION BY e ", "PARTITION BY d ", "PARTITION BY c, e "}[rng.Intn(5)]
	ord := "ORDER BY " + []string{"a", "b", "e", "a DESC", "b DESC, a", "c, a DESC", "e DESC, b", "d, a"}[rng.Intn(8)]
	agg := []string{"SUM(a)", "COUNT(*)", "AVG(b)", "MIN(a)", "MAX(b)", "COUNT(c)", "SUM(b)", "SUM(a + e)"}[rng.Intn(8)]
	switch rng.Intn(4) {
	case 0:
		rank := []string{"ROW_NUMBER", "RANK", "DENSE_RANK"}[rng.Intn(3)]
		return fmt.Sprintf("%s() OVER (%s%s)", rank, part, ord)
	case 1:
		if part != "" && rng.Intn(2) == 0 {
			// Whole-partition aggregate: no ORDER BY in the spec.
			return fmt.Sprintf("%s OVER (%s)", agg, strings.TrimSpace(part))
		}
		return fmt.Sprintf("%s OVER (%s%s)", agg, part, ord)
	case 2:
		bound := fmt.Sprintf("%d", rng.Intn(4))
		if rng.Intn(4) == 0 {
			bound = "UNBOUNDED"
		}
		return fmt.Sprintf("%s OVER (%s%s ROWS BETWEEN %s PRECEDING AND CURRENT ROW)", agg, part, ord, bound)
	default:
		return fmt.Sprintf("%s OVER (%s%s)", agg, part, ord)
	}
}

func randQuery(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if rng.Intn(6) == 0 {
		sb.WriteString("DISTINCT ")
	}
	join := rng.Intn(4) == 0

	if rng.Intn(3) == 0 { // grouped
		// keys are the select list's spelling of the group keys, groupBy the
		// GROUP BY clause's: the column itself, its 1-based select position,
		// or a select alias — of the column or of an expression over it.
		keys, groupBy := []string{}, []string{}
		for _, k := range []string{"c", "e"} {
			if rng.Intn(2) != 0 {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				keys, groupBy = append(keys, k), append(groupBy, fmt.Sprint(len(keys)+1))
			case 1:
				keys, groupBy = append(keys, k+" AS k"+k), append(groupBy, "k"+k)
			case 2:
				expr := map[string]string{"c": "UPPER(c)", "e": "e % 3"}[k]
				keys, groupBy = append(keys, expr+" AS x"+k), append(groupBy, "x"+k)
			default:
				keys, groupBy = append(keys, k), append(groupBy, k)
			}
		}
		aggs := []string{"SUM(a)", "SUM(b)", "COUNT(*)", "COUNT(b)", "AVG(b)", "MIN(a)", "MAX(b)", "SUM(a + b)", "COUNT(DISTINCT c)"}
		items := append([]string{}, keys...)
		agg1 := aggs[rng.Intn(len(aggs))]
		aliased := rng.Intn(3) == 0
		if aliased {
			items = append(items, agg1+" AS agg1")
		} else {
			items = append(items, agg1)
		}
		if rng.Intn(2) == 0 {
			items = append(items, aggs[rng.Intn(len(aggs))])
		}
		sb.WriteString(strings.Join(items, ", "))
		sb.WriteString(" FROM data")
		if rng.Intn(2) == 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(randPredicate(rng, 2))
		}
		if len(keys) > 0 {
			sb.WriteString(" GROUP BY ")
			sb.WriteString(strings.Join(groupBy, ", "))
			// HAVING shapes: bare aggregate comparison, select-list alias
			// reference, compound expressions over several aggregates, and
			// an uncorrelated subquery threshold.
			switch rng.Intn(6) {
			case 0:
				sb.WriteString(fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(3)))
			case 1:
				if aliased {
					sb.WriteString(fmt.Sprintf(" HAVING agg1 >= %d", rng.Intn(20)-5))
				} else {
					sb.WriteString(fmt.Sprintf(" HAVING %s >= %d", agg1, rng.Intn(20)-5))
				}
			case 2:
				sb.WriteString(fmt.Sprintf(" HAVING MIN(a) + %d < MAX(a) OR COUNT(*) = 1", rng.Intn(6)))
			case 3:
				sb.WriteString(" HAVING COUNT(*) > (SELECT MIN(mkey) FROM multi)")
			}
		}
		sb.WriteString(" ORDER BY 1")
		if len(items) > 1 && rng.Intn(2) == 0 {
			sb.WriteString(" DESC, 2")
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(8)))
			if rng.Intn(2) == 0 {
				sb.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(6)))
			}
		}
		return sb.String()
	}

	cols := []string{"a", "b", "c", "d", "e", "a + e", "a * 2", "b - a", "UPPER(c)", "ABS(a)",
		"CASE WHEN a > 5 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END",
		// Mixed-kind result: the projected column degrades to boxed
		// storage, so ORDER BY referencing its position exercises the
		// typed sort kernel's boxed-comparator fallback.
		"CASE WHEN a > 5 THEN a ELSE c END",
		// Simple CASE (operand form), including a NULL-operand row falling
		// through every WHEN, and a missing ELSE yielding NULL.
		"CASE c WHEN 'red' THEN 1 WHEN 'blue' THEN 2 ELSE 0 END",
		"CASE e WHEN 0 THEN 'zero' WHEN 1 THEN 'one' END",
		// Uncorrelated scalar subquery as a projected constant.
		"(SELECT MAX(score) FROM multi)"}
	nitems := 1 + rng.Intn(3)
	items := make([]string, nitems)
	for i := range items {
		items[i] = cols[rng.Intn(len(cols))]
	}
	// Window items ride along on roughly a third of row-context queries,
	// sometimes aliased so ORDER BY can reference them by name.
	win := rng.Intn(3) == 0
	hasW1 := false
	if win {
		w := randWindowItem(rng)
		if rng.Intn(2) == 0 {
			w += " AS w1"
			hasW1 = true
		}
		items = append(items, w)
		if rng.Intn(3) == 0 {
			items = append(items, randWindowItem(rng))
		}
	}
	// Join templates cover every kind (INNER/LEFT/RIGHT/FULL OUTER) over
	// both shapes: dim (N:1 — each data row matches at most one dim row)
	// and multi (1:N fan-out with duplicate keys, missing keys, and NULL
	// keys), optionally with residual ON conjuncts — including cross-side
	// residuals, which exercise the batched candidate-pair evaluation.
	// Residuals are error-free by construction: the hash join skips pairs
	// the scalar nested loop evaluates, so a data-dependent residual error
	// could surface in only one executor.
	fanout := join && rng.Intn(2) == 0
	if join {
		if fanout {
			items = append(items, "multi.tag")
		} else {
			items = append(items, "dim.label")
		}
	}
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM data")
	if join {
		kinds := []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"}
		kw := kinds[rng.Intn(len(kinds))]
		if fanout {
			sb.WriteString(" " + kw + " multi ON data.e = multi.mkey")
			switch rng.Intn(4) {
			case 0:
				sb.WriteString(" AND multi.score > 2.5")
			case 1:
				sb.WriteString(" AND data.a < multi.score") // cross-side residual
			}
		} else {
			sb.WriteString(" " + kw + " dim ON data.e = dim.key")
			if rng.Intn(3) == 0 {
				sb.WriteString(" AND dim.weight > 2.0")
			}
		}
	}
	switch {
	case join && rng.Intn(3) == 0:
		// Kernel comparisons on FROM columns: under INNER/LEFT joins on pure
		// equality they run before the probe, under RIGHT/FULL joins and
		// residual ONs after it — the answers must not tell.
		sb.WriteString(" WHERE ")
		sb.WriteString([]string{"data.e < 5", "data.a >= 3 AND data.a < 30", "e BETWEEN 1 AND 4", "20 > a",
			"data.b > 10.5 AND " + randPredicate(rng, 1), "c = 'red' AND e <> 2"}[rng.Intn(6)])
	case rng.Intn(2) == 0:
		sb.WriteString(" WHERE ")
		sb.WriteString(randPredicate(rng, 2))
	}
	if rng.Intn(2) == 0 {
		// Multi-key ORDER BY with mixed ASC/DESC, mixing 1-based output
		// positions with base-table columns (which need not appear in the
		// select list). Duplicate-heavy key columns (c, d, e) make ties
		// common, so the typed kernel's stability is differentially
		// checked against the scalar stable sort.
		nkeys := 1 + rng.Intn(3)
		keys := make([]string, nkeys)
		for i := range keys {
			switch {
			case rng.Intn(2) == 0:
				keys[i] = fmt.Sprintf("%d", 1+rng.Intn(len(items)))
			case hasW1 && rng.Intn(4) == 0:
				keys[i] = "w1" // window item by alias
			default:
				keys[i] = []string{"a", "b", "c", "d", "e"}[rng.Intn(5)]
			}
			if rng.Intn(2) == 0 {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if rng.Intn(3) == 0 {
		if rng.Intn(8) == 0 {
			// LIMIT + OFFSET beyond int64: the sum must not wrap negative.
			sb.WriteString(" LIMIT 9223372036854775807")
		} else {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(21)))
		}
		if rng.Intn(3) == 0 {
			// Offsets land both inside the table and beyond it (tables cap
			// at 700 rows), so OFFSET m with m >= n is always-on coverage.
			off := rng.Intn(5)
			if rng.Intn(4) == 0 {
				off = 600 + rng.Intn(300)
			}
			sb.WriteString(fmt.Sprintf(" OFFSET %d", off))
		}
	}
	return sb.String()
}

// TestVectorizedMatchesScalarRandom cross-checks the vectorized executor
// against the scalar reference on randomized queries over randomized data,
// the property-test style used in internal/dsl.
func TestVectorizedMatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randCatalog(rng, 400)
	for i := 0; i < 300; i++ {
		q := randQuery(rng)
		checkDifferential(t, c, q)
		if t.Failed() {
			t.Fatalf("first failure at query %d: %s", i, q)
		}
	}
}

// TestConcurrentQueryAndRegister exercises the catalog's reader/writer
// locking: many goroutines query while others register new tables. Run
// under -race in CI.
func TestConcurrentQueryAndRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randCatalog(rng, 2000)
	queries := []string{
		"SELECT c, SUM(a), COUNT(*) FROM data GROUP BY c ORDER BY 1",
		"SELECT a, b FROM data WHERE a > 5 AND b < 100 ORDER BY a LIMIT 50",
		"SELECT data.a, dim.label FROM data JOIN dim ON data.e = dim.key WHERE dim.weight > 1",
		"SELECT COUNT(*) FROM data WHERE c IN ('red', 'blue') OR a IS NULL",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%4 == 3 && i%5 == 0 {
					extra := table.MustNew(fmt.Sprintf("extra%d_%d", g, i),
						[]string{"x"}, []table.Kind{table.KindInt})
					extra.MustAppendRow(table.Int(int64(i)))
					c.Register(extra)
					continue
				}
				if _, err := c.Query(queries[(g+i)%len(queries)]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
