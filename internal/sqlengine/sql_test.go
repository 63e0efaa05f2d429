package sqlengine

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"datalab/internal/table"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	sales := table.MustNew("sales",
		[]string{"id", "region", "product", "amount", "qty", "ftime"},
		[]table.Kind{table.KindInt, table.KindString, table.KindString, table.KindFloat, table.KindInt, table.KindTime})
	rows := [][]table.Value{
		{table.Int(1), table.Str("east"), table.Str("widget"), table.Float(100), table.Int(2), table.Str("2023-01-15")},
		{table.Int(2), table.Str("east"), table.Str("gadget"), table.Float(250), table.Int(1), table.Str("2023-02-20")},
		{table.Int(3), table.Str("west"), table.Str("widget"), table.Float(75), table.Int(3), table.Str("2023-03-05")},
		{table.Int(4), table.Str("west"), table.Str("gadget"), table.Float(300), table.Int(4), table.Str("2024-01-10")},
		{table.Int(5), table.Str("west"), table.Str("widget"), table.Float(125), table.Int(1), table.Str("2024-02-14")},
		{table.Int(6), table.Str("north"), table.Str("sprocket"), table.Null(), table.Int(2), table.Str("2024-03-01")},
	}
	for _, r := range rows {
		sales.MustAppendRow(r...)
	}
	products := table.MustNew("products",
		[]string{"name", "category", "price"},
		[]table.Kind{table.KindString, table.KindString, table.KindFloat})
	products.MustAppendRow(table.Str("widget"), table.Str("hardware"), table.Float(50))
	products.MustAppendRow(table.Str("gadget"), table.Str("electronics"), table.Float(250))

	c := NewCatalog()
	c.Register(sales)
	c.Register(products)
	return c
}

func mustQuery(t *testing.T, c *Catalog, sql string) *table.Table {
	t.Helper()
	res, err := queryTable(c, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT * FROM sales")
	if res.NumRows() != 6 || res.NumCols() != 6 {
		t.Errorf("shape = %dx%d", res.NumRows(), res.NumCols())
	}
}

func TestWhereComparison(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales WHERE amount > 100")
	if res.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", res.NumRows())
	}
}

func TestWhereNullExcluded(t *testing.T) {
	c := testCatalog(t)
	// amount IS NULL row must not satisfy either branch.
	gt := mustQuery(t, c, "SELECT id FROM sales WHERE amount > 0")
	le := mustQuery(t, c, "SELECT id FROM sales WHERE amount <= 0")
	if gt.NumRows()+le.NumRows() != 5 {
		t.Errorf("NULL row leaked into comparison: %d + %d", gt.NumRows(), le.NumRows())
	}
	isn := mustQuery(t, c, "SELECT id FROM sales WHERE amount IS NULL")
	if isn.NumRows() != 1 {
		t.Errorf("IS NULL rows = %d", isn.NumRows())
	}
}

func TestWhereAndOrNot(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales WHERE region = 'west' AND (product = 'widget' OR qty >= 4)")
	if res.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT id FROM sales WHERE NOT region = 'west'")
	if res.NumRows() != 3 {
		t.Errorf("NOT rows = %d, want 3", res.NumRows())
	}
}

func TestInAndBetween(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales WHERE region IN ('east', 'north')")
	if res.NumRows() != 3 {
		t.Errorf("IN rows = %d", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT id FROM sales WHERE region NOT IN ('east', 'north')")
	if res.NumRows() != 3 {
		t.Errorf("NOT IN rows = %d", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT id FROM sales WHERE amount BETWEEN 100 AND 250")
	if res.NumRows() != 3 {
		t.Errorf("BETWEEN rows = %d", res.NumRows())
	}
}

func TestLike(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales WHERE product LIKE '%get'")
	if res.NumRows() != 5 {
		t.Errorf("LIKE %%get rows = %d, want 5 (3 widget + 2 gadget)", res.NumRows())
	}
	res = mustQuery(t, c, "SELECT id FROM sales WHERE product LIKE 'W_dget'")
	if res.NumRows() != 3 {
		t.Errorf("LIKE W_dget rows = %d, want 3 (case-insensitive)", res.NumRows())
	}
}

func TestOrderByLimit(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id, amount FROM sales WHERE amount IS NOT NULL ORDER BY amount DESC LIMIT 2")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if cellAt(res, 0, "id").I != 4 || cellAt(res, 1, "id").I != 2 {
		t.Errorf("top ids = %v, %v", cellAt(res, 0, "id"), cellAt(res, 1, "id"))
	}
}

func TestOrderByAliasAndPosition(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC")
	if cellAt(res, 0, "region").S != "west" {
		t.Errorf("alias-ordered first region = %v", cellAt(res, 0, "region"))
	}
	res2 := mustQuery(t, c, "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY 2 DESC")
	if cellAt(res2, 0, "region").S != "west" {
		t.Errorf("position-ordered first region = %v", cellAt(res2, 0, "region"))
	}
}

func TestGroupByHaving(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region HAVING COUNT(*) >= 2")
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		if cellAt(res, i, "region").S == "west" {
			if cellAt(res, i, "total").F != 500 {
				t.Errorf("west total = %v", cellAt(res, i, "total"))
			}
			if cellAt(res, i, "n").I != 3 {
				t.Errorf("west n = %v", cellAt(res, i, "n"))
			}
		}
	}
}

// namesCatalog is t(id, region, amt) with ids 1-3 and u(id): the table the
// name-resolution tests run every statement over.
func namesCatalog() *Catalog {
	c := NewCatalog()
	registerNamesTables(c)
	return c
}

func registerNamesTables(c *Catalog) {
	tb := table.MustNew("t", []string{"id", "region", "amt"}, []table.Kind{table.KindInt, table.KindString, table.KindFloat})
	tb.MustAppendRow(table.Int(1), table.Str("east"), table.Float(10))
	tb.MustAppendRow(table.Int(2), table.Str("east"), table.Float(20))
	tb.MustAppendRow(table.Int(3), table.Str("west"), table.Float(30))
	u := table.MustNew("u", []string{"id"}, []table.Kind{table.KindInt})
	u.MustAppendRow(table.Int(1))
	c.Register(tb)
	c.Register(u)
}

// TestGroupByPositionAndAlias: a GROUP BY key resolves like HAVING's
// references — a relation column first, then a select alias — and an
// integer literal is a 1-based select position, on both executors.
func TestGroupByPositionAndAlias(t *testing.T) {
	c := namesCatalog()
	for _, q := range []string{
		"SELECT region, COUNT(*) AS n FROM t GROUP BY 1 ORDER BY 1",
		"SELECT region AS r, COUNT(*) FROM t GROUP BY r ORDER BY 1",
		"SELECT LOWER(region) AS r, COUNT(*) FROM t GROUP BY r ORDER BY 1",
	} {
		vec := mustQuery(t, c, q)
		sca, err := c.QueryScalar(q)
		if err != nil {
			t.Fatalf("%s: scalar: %v", q, err)
		}
		got := ""
		for i := 0; i < vec.NumRows(); i++ {
			got += vec.Columns[0].Value(i).AsString() + " " + vec.Columns[1].Value(i).AsString() + " / "
		}
		if got != "east 2 / west 1 / " {
			t.Errorf("%s: groups = %q, want east 2 / west 1", q, got)
		}
		if dumpTable(vec) != dumpTable(sca) {
			t.Errorf("%s: vectorized\n%s\nscalar\n%s", q, dumpTable(vec), dumpTable(sca))
		}
	}
	for q, want := range map[string]string{
		"SELECT region, COUNT(*) FROM t GROUP BY 3": "GROUP BY position 3 is not in the select list",
		"SELECT region, COUNT(*) FROM t GROUP BY 0": "GROUP BY position 0 is not in the select list",
		"SELECT region, COUNT(*) FROM t GROUP BY 2": "aggregate COUNT in row context",
	} {
		_, vecErr := queryTable(c, q)
		_, scaErr := c.QueryScalar(q)
		if vecErr == nil || scaErr == nil || !strings.Contains(vecErr.Error(), want) || !strings.Contains(scaErr.Error(), want) {
			t.Errorf("%s: vectorized %v, scalar %v; want both to report %q", q, vecErr, scaErr, want)
		}
	}
}

// TestUnknownNamesFailOnEveryData: whether a statement names a column that
// does not exist is decided by the statement and the schema. Each shape used
// to pass or fail with the rows (a short-circuit skipped the reference, a
// filter left no row to evaluate it on) or with the executor; now all of
// them fail the same way over a filter that keeps no row, some and all.
func TestUnknownNamesFailOnEveryData(t *testing.T) {
	c := namesCatalog()
	const want = "unknown column \"nosuch"
	for _, q := range unknownNameStatements() {
		_, vecErr := queryTable(c, q)
		_, scaErr := c.QueryScalar(q)
		_, resErr := c.QueryCtx(context.Background(), q)
		for name, err := range map[string]error{"Query": vecErr, "QueryScalar": scaErr, "QueryCtx": resErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s returned %v, want %s", q, name, err, want)
			}
		}
	}
}

// unknownNameStatements are the statements of
// TestUnknownNamesFailOnEveryData over namesCatalog's t and u, each with a
// filter that keeps no row, some rows and every row. The differential and
// fingerprint fuzz corpora replay them.
func unknownNameStatements() []string {
	var out []string
	for _, shape := range []string{
		"SELECT id FROM t WHERE $F AND nosuch = 1",
		"SELECT id FROM t WHERE $F OR nosuch = 1",
		"SELECT UPPER(nosuch) FROM t WHERE $F",
		"SELECT CASE WHEN $F THEN nosuch ELSE 1 END FROM t",
		"SELECT nosuch FROM t WHERE $F",
		"SELECT COUNT(nosuch) FROM t WHERE $F",
		"SELECT id, ROW_NUMBER() OVER (ORDER BY nosuch) FROM t WHERE $F",
		"SELECT id FROM t WHERE id IN (SELECT nosuch FROM u WHERE $F)",
		"SELECT nosuch.* FROM t WHERE $F",
	} {
		for _, filter := range []string{"id > 100", "id > 1", "id < 100"} {
			out = append(out, strings.ReplaceAll(shape, "$F", filter))
		}
	}
	return out
}

func TestGlobalAggregates(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT COUNT(*), COUNT(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales")
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	row := rowAt(res, 0)
	if row[0].I != 6 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1].I != 5 {
		t.Errorf("COUNT(amount) = %v (must skip NULL)", row[1])
	}
	if row[2].F != 170 {
		t.Errorf("AVG = %v", row[2])
	}
	if row[3].F != 75 || row[4].F != 300 {
		t.Errorf("MIN/MAX = %v/%v", row[3], row[4])
	}
}

func TestCountDistinct(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT COUNT(DISTINCT region) FROM sales")
	if rowAt(res, 0)[0].I != 3 {
		t.Errorf("COUNT(DISTINCT region) = %v", rowAt(res, 0)[0])
	}
}

func TestJoinInnerSQL(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, `SELECT s.id, p.category FROM sales AS s JOIN products AS p ON s.product = p.name ORDER BY s.id`)
	if res.NumRows() != 5 {
		t.Fatalf("joined rows = %d, want 5 (sprocket unmatched)", res.NumRows())
	}
	if cellAt(res, 0, "category").S != "hardware" {
		t.Errorf("first category = %v", cellAt(res, 0, "category"))
	}
}

func TestJoinLeftSQL(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, `SELECT s.id, p.category FROM sales s LEFT JOIN products p ON s.product = p.name ORDER BY s.id`)
	if res.NumRows() != 6 {
		t.Fatalf("left joined rows = %d, want 6", res.NumRows())
	}
	if !cellAt(res, 5, "category").IsNull() {
		t.Errorf("unmatched category = %v, want NULL", cellAt(res, 5, "category"))
	}
}

func TestJoinAggregate(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, `SELECT p.category, SUM(s.amount) AS rev FROM sales s JOIN products p ON s.product = p.name GROUP BY p.category ORDER BY rev DESC`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if cellAt(res, 0, "category").S != "electronics" || cellAt(res, 0, "rev").F != 550 {
		t.Errorf("top category = %v rev %v", cellAt(res, 0, "category"), cellAt(res, 0, "rev"))
	}
}

func TestArithmeticAndAlias(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id, amount * qty AS total FROM sales WHERE id = 1")
	if cellAt(res, 0, "total").F != 200 {
		t.Errorf("total = %v", cellAt(res, 0, "total"))
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT amount / 0 FROM sales WHERE id = 1")
	if !rowAt(res, 0)[0].IsNull() {
		t.Errorf("x/0 = %v, want NULL", rowAt(res, 0)[0])
	}
}

func TestDistinctSQL(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT DISTINCT region FROM sales")
	if res.NumRows() != 3 {
		t.Errorf("distinct regions = %d", res.NumRows())
	}
}

func TestScalarFunctions(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT UPPER(region), LENGTH(product), ABS(-5), ROUND(3.456, 2), COALESCE(amount, 0) FROM sales WHERE id = 6")
	row := rowAt(res, 0)
	if row[0].S != "NORTH" {
		t.Errorf("UPPER = %v", row[0])
	}
	if row[1].I != 8 {
		t.Errorf("LENGTH = %v", row[1])
	}
	if row[2].I != 5 {
		t.Errorf("ABS = %v", row[2])
	}
	if row[3].F != 3.46 {
		t.Errorf("ROUND = %v", row[3])
	}
	if row[4].F != 0 {
		t.Errorf("COALESCE = %v", row[4])
	}
}

func TestYearFunction(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales WHERE YEAR(ftime) = 2024")
	if res.NumRows() != 3 {
		t.Errorf("2024 rows = %d, want 3", res.NumRows())
	}
}

func TestCaseExpression(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, `SELECT id, CASE WHEN amount >= 200 THEN 'big' WHEN amount >= 100 THEN 'mid' ELSE 'small' END AS size FROM sales WHERE amount IS NOT NULL ORDER BY id`)
	want := []string{"mid", "big", "small", "big", "mid"}
	for i, w := range want {
		if got := cellAt(res, i, "size").S; got != w {
			t.Errorf("row %d size = %q, want %q", i, got, w)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id FROM sales ORDER BY id LIMIT 2 OFFSET 3")
	if res.NumRows() != 2 || cellAt(res, 0, "id").I != 4 {
		t.Errorf("offset page = %v", res)
	}
	res2 := mustQuery(t, c, "SELECT id FROM sales ORDER BY id LIMIT 3, 2")
	if !table.EqualData(res, res2) {
		t.Error("MySQL-style LIMIT offset,count differs from LIMIT/OFFSET")
	}
}

func TestParseErrors(t *testing.T) {
	c := testCatalog(t)
	bad := []string{
		"",
		"SELEC id FROM sales",
		"SELECT FROM sales",
		"SELECT id FROM",
		"SELECT id FROM sales WHERE",
		"SELECT id FROM sales GROUP",
		"SELECT id FROM sales trailing garbage (",
		"SELECT id FROM sales WHERE amount BETWEEN 1",
		"SELECT 'unterminated FROM sales",
	}
	for _, sql := range bad {
		if _, err := queryTable(c, sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestExecErrors(t *testing.T) {
	c := testCatalog(t)
	bad := []string{
		"SELECT id FROM missing_table",
		"SELECT missing_col FROM sales",
		"SELECT UNKNOWN_FUNC(id) FROM sales",
		"SELECT SUM(amount) FROM sales GROUP BY missing_col",
	}
	for _, sql := range bad {
		if _, err := queryTable(c, sql); err == nil {
			t.Errorf("expected execution error for %q", sql)
		}
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	c := testCatalog(t)
	if _, err := queryTable(c, "SELECT id FROM sales WHERE SUM(amount) > 10"); err == nil {
		t.Error("aggregate in WHERE should error")
	}
}

func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT region, SUM(amount) AS total FROM sales WHERE qty > 1 GROUP BY region HAVING SUM(amount) > 100 ORDER BY total DESC LIMIT 5",
		"SELECT DISTINCT product FROM sales WHERE region IN ('east', 'west') AND amount BETWEEN 50 AND 200",
		"SELECT s.id FROM sales AS s LEFT JOIN products AS p ON s.product = p.name WHERE p.price IS NOT NULL",
		"SELECT CASE WHEN qty > 2 THEN 'bulk' ELSE 'single' END AS kind FROM sales",
	}
	c := testCatalog(t)
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := stmt.SQL()
		r1, err := queryTable(c, q)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		r2, err := queryTable(c, rendered)
		if err != nil {
			t.Fatalf("exec rendered %q: %v", rendered, err)
		}
		if !table.EqualData(r1, r2) {
			t.Errorf("round-tripped SQL gives different results: %q vs %q", q, rendered)
		}
	}
}

func TestBacktickAndDoubleQuoteIdentifiers(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT `region` FROM sales WHERE \"region\" = 'east'")
	if res.NumRows() != 2 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestLineComment(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT id -- the identifier\nFROM sales")
	if res.NumRows() != 6 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestStringEscape(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT 'it''s' FROM sales LIMIT 1")
	if rowAt(res, 0)[0].S != "it's" {
		t.Errorf("escaped string = %q", rowAt(res, 0)[0].S)
	}
}

func TestDuplicateOutputNamesDisambiguated(t *testing.T) {
	c := testCatalog(t)
	res := mustQuery(t, c, "SELECT region, region FROM sales LIMIT 1")
	names := res.ColumnNames()
	if names[0] == names[1] {
		t.Errorf("duplicate output names not disambiguated: %v", names)
	}
}

// Property: LIKE with pattern == literal string (no wildcards) matches
// exactly strings equal modulo case.
func TestLikeProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.NewReplacer("%", "", "_", "", "'", "").Replace(s)
		return likeMatch(clean, clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every parsed statement renders to SQL that reparses.
func TestParseRenderParseProperty(t *testing.T) {
	base := []string{
		"SELECT a FROM t",
		"SELECT a, b AS x FROM t WHERE a > 1 AND b < 2 OR NOT c = 3",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
		"SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 2",
		"SELECT t1.a FROM t t1 JOIN u t2 ON t1.k = t2.k",
		"SELECT a FROM t WHERE x IS NULL OR y NOT BETWEEN 1 AND 2",
	}
	for _, q := range base {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := Parse(stmt.SQL()); err != nil {
			t.Errorf("rendered SQL does not reparse: %q -> %q: %v", q, stmt.SQL(), err)
		}
	}
}

// TestNonAggregateNamesAreUnknownFunctions: MEAN and STD are not aggregates
// (AVG and STDDEV are). Both executors report them as unknown functions,
// with and without GROUP BY, rather than as an aggregate out of place.
func TestNonAggregateNamesAreUnknownFunctions(t *testing.T) {
	c := testCatalog(t)
	for _, fn := range []string{"MEAN", "STD"} {
		want := "unknown function " + fn
		for _, q := range []string{
			"SELECT " + fn + "(amount) FROM sales",
			"SELECT region, " + fn + "(amount) FROM sales GROUP BY region",
		} {
			_, vecErr := queryTable(c, q)
			_, scaErr := c.QueryScalar(q)
			if vecErr == nil || scaErr == nil || !strings.Contains(vecErr.Error(), want) || !strings.Contains(scaErr.Error(), want) {
				t.Errorf("%s: vectorized %v, scalar %v; want both to report %q", q, vecErr, scaErr, want)
			}
		}
	}
}
