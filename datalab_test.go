package datalab

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"datalab/internal/knowledge"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

func demoPlatform(t *testing.T) *Platform {
	t.Helper()
	p := MustNew(WithSeed("facade-test"))
	err := p.LoadRecords("sales",
		[]string{"region", "product", "revenue", "sale_date"},
		[][]string{
			{"east", "widget", "100.5", "2024-01-05"},
			{"east", "gadget", "250.0", "2024-02-03"},
			{"west", "widget", "80.25", "2024-03-10"},
			{"west", "gadget", "300.0", "2024-04-21"},
			{"north", "widget", "120.0", "2024-05-11"},
			{"north", "gadget", "900.0", "2024-06-18"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsUnknownModel(t *testing.T) {
	if _, err := New(WithModel("gpt-99")); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestLoadCSVAndQuery(t *testing.T) {
	p := MustNew(WithSeed("csv"))
	csv := "a,b\n1,x\n2,y\n"
	if err := p.LoadCSV("t", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	res, err := p.QueryCtx(context.Background(), "SELECT a FROM t WHERE b = 'y'")
	if err != nil {
		t.Fatal(err)
	}
	b := res.Next()
	if res.NumCols() != 1 || res.NumRows() != 1 || b == nil {
		t.Fatalf("result = %v, %d rows", res.Columns(), res.NumRows())
	}
	if a, ok := b.Int64(0, 0); !ok || a != 2 {
		t.Errorf("a = %d (typed %v), want 2", a, ok)
	}
	if len(p.Tables()) != 1 {
		t.Errorf("tables = %v", p.Tables())
	}
}

// TestLoadersTypeColumnsAlike: LoadRecords and LoadCSV hand the same cells
// to one constructor, which types a column from all of its cells — typing
// it from the first alone truncated 2.5 to 2 under SUM and WHERE.
func TestLoadersTypeColumnsAlike(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells []string // one column, top to bottom
		kind  table.Kind
	}{
		{"int then float", []string{"1", "2.5", "3"}, table.KindFloat},
		{"number then text", []string{"7", "1.5", "n/a"}, table.KindString},
		{"leading blanks", []string{"", " ", "4", "5.25"}, table.KindFloat},
		{"all blank", []string{"", "", ""}, table.KindString},
		{"date then text", []string{"2024-01-05", "soon"}, table.KindString},
		{"ints", []string{"3", "", "4"}, table.KindInt},
	} {
		rows := make([][]string, len(tc.cells))
		csv := "id,x\n"
		for i, cell := range tc.cells {
			id := strconv.Itoa(i)
			rows[i] = []string{id, cell}
			csv += id + "," + cell + "\n"
		}
		p := MustNew(WithSeed("loaders"))
		if err := p.LoadRecords("rec", []string{"id", "x"}, rows); err != nil {
			t.Fatalf("%s: LoadRecords: %v", tc.name, err)
		}
		if err := p.LoadCSV("csv", strings.NewReader(csv)); err != nil {
			t.Fatalf("%s: LoadCSV: %v", tc.name, err)
		}
		rec, _ := p.catalog.Table("rec")
		fromCSV, _ := p.catalog.Table("csv")
		if got := rec.Column("x").Kind; got != tc.kind || fromCSV.Column("x").Kind != tc.kind {
			t.Errorf("%s: x is %v from records, %v from CSV, want %v", tc.name, got, fromCSV.Column("x").Kind, tc.kind)
		}
		if !table.EqualData(rec, fromCSV) {
			t.Errorf("%s: loaders disagree:\n%s\n%s", tc.name, rec, fromCSV)
		}
	}

	p := MustNew(WithSeed("loaders"))
	if err := p.LoadRecords("a", []string{"x"}, [][]string{{"1"}, {"2.5"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT SUM(x) FROM a":               "6.5",
		"SELECT COUNT(*) FROM a WHERE x > 2": "2",
	} {
		res, err := p.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Strings(); len(got) != 1 || got[0][0] != want {
			t.Errorf("%s = %v, want %s", sql, got, want)
		}
	}
}

func TestQueryCtxTypedResult(t *testing.T) {
	p := demoPlatform(t)
	res, err := p.QueryCtx(context.Background(), "SELECT revenue, region FROM sales WHERE revenue > 100")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Columns(); len(got) != 2 || got[0] != "revenue" {
		t.Fatalf("columns = %v", got)
	}
	total, n := 0.0, 0
	for b := res.Next(); b != nil; b = res.Next() {
		for i := 0; i < b.NumRows(); i++ {
			v, ok := b.Float64(0, i)
			if !ok {
				t.Fatalf("row %d: revenue not numeric", i)
			}
			total += v
			n++
		}
	}
	if n != res.NumRows() || n != 5 {
		t.Fatalf("iterated %d rows, NumRows = %d, want 5", n, res.NumRows())
	}
	if total != 100.5+250.0+300.0+120.0+900.0 {
		t.Fatalf("total = %v", total)
	}
}

func TestPlatformPrepare(t *testing.T) {
	p := demoPlatform(t)
	stmt, err := p.Prepare("SELECT region, SUM(revenue) AS total FROM sales GROUP BY region ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	before := sqlengine.ParseCalls()
	var first [][]string
	for i := 0; i < 100; i++ {
		res, err := stmt.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Strings()
			continue
		}
	}
	if got := sqlengine.ParseCalls(); got != before {
		t.Fatalf("prepared re-execution parsed %d times", got-before)
	}
	if len(first) != 3 || first[0][0] != "north" {
		t.Fatalf("rows = %v", first)
	}
	if !strings.Contains(stmt.SQL(), "GROUP BY region") {
		t.Fatalf("SQL() = %q", stmt.SQL())
	}
}

// planLookups counts the statements the platform's catalog has planned.
func planLookups(p *Platform) int64 {
	st := p.PlanCacheStats()
	return st.Hits + st.Misses
}

// TestAskExecutesGeneratedSQLOnce pins the typed hand-off: the SQL agent's
// one execution is the only time a question's statement reaches the
// engine — the chart agent renders from the rows on the upstream unit and
// Ask returns that same Result. The seeded simulator passes both
// questions' SQL agent on its first attempt (a retry translates and
// executes again, legitimately).
func TestAskExecutesGeneratedSQLOnce(t *testing.T) {
	p := demoPlatform(t)
	for _, tc := range []struct {
		query string
		trace []string
	}{
		{"total revenue by region", []string{"SQL Agent"}},
		{"draw a bar chart of total revenue by region", []string{"SQL Agent", "Chart Generation Agent"}},
	} {
		before := planLookups(p)
		ans, err := p.Ask(tc.query, "sales")
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		if got := planLookups(p) - before; got != 1 {
			t.Errorf("%q: %d plan-cache lookups, want 1", tc.query, got)
		}
		if !reflect.DeepEqual(ans.AgentTrace, tc.trace) {
			t.Errorf("%q: agents %v, want %v", tc.query, ans.AgentTrace, tc.trace)
		}
		if ans.Err != nil || ans.Result == nil || ans.Result.NumRows() != 3 || ans.Result.Next() == nil {
			t.Errorf("%q: Err=%v Result=%v, want an unread 3-row result", tc.query, ans.Err, ans.Result)
		}
		if strings.Contains(ans.SQL, "\n") || !strings.HasPrefix(ans.SQL, "SELECT") {
			t.Errorf("%q: SQL = %q, want the statement alone", tc.query, ans.SQL)
		}
	}
}

// TestAskSurfacesSQLExecutionFailure: a statement that fails to execute
// fails the SQL agent's attempt, so after the retry budget it is Ask's
// error — there is no Answer whose Err is set.
func TestAskSurfacesSQLExecutionFailure(t *testing.T) {
	p := MustNew(WithSeed("exec-failure"))
	if err := p.LoadRecords("sales", []string{"region"}, [][]string{{"east"}, {"west"}}); err != nil {
		t.Fatal(err)
	}
	// Knowledge describing a column the physical table does not have.
	err := p.LearnKnowledge("shop", "sales", []ColumnSchema{
		{Name: "region", Type: "string", Comment: "sales region"},
		{Name: "revenue", Type: "double", Comment: "total revenue of the sale"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := planLookups(p)
	ans, err := p.Ask("total revenue by region", "sales")
	if err == nil {
		t.Fatalf("Ask answered %q over a table without that column", ans.SQL)
	}
	for _, want := range []string{"exhausted 5 calls", "execution failed", "revenue"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %q", err, want)
		}
	}
	if got := planLookups(p) - before; got != 5 {
		t.Errorf("%d plan-cache lookups, want one per attempt (5)", got)
	}
}

func TestAskAttachesTypedResult(t *testing.T) {
	p := demoPlatform(t)
	ans, err := p.Ask("total revenue by region", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Err != nil {
		t.Fatalf("Answer.Err = %v", ans.Err)
	}
	if ans.Result == nil {
		t.Fatal("Answer.Result is nil")
	}
	// The cursor arrives unconsumed: Ask hands over the Result without
	// iterating or stringifying it.
	b := ans.Result.Next()
	if b == nil || b.NumRows() != ans.Result.NumRows() || b.NumRows() != 3 {
		t.Fatalf("first batch = %v, NumRows = %d, want 3 regions", b, ans.Result.NumRows())
	}
	if got := ans.Result.Columns(); len(got) != len(ans.Columns) || got[0] != ans.Columns[0] {
		t.Fatalf("Result columns %v, Answer.Columns %v", got, ans.Columns)
	}
}

func TestNotebookRunSQL(t *testing.T) {
	p := demoPlatform(t)
	nb := p.NewNotebook("typed")
	id, err := nb.AddSQL("SELECT region, revenue FROM sales", "raw")
	if err != nil {
		t.Fatal(err)
	}
	res, err := nb.RunSQL(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 || res.NumCols() != 2 {
		t.Fatalf("result shape = %dx%d", res.NumRows(), res.NumCols())
	}
	mdID, err := nb.AddMarkdown("## notes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.RunSQL(context.Background(), mdID); err == nil {
		t.Fatal("RunSQL on a markdown cell should fail")
	}
	if _, err := nb.RunSQL(context.Background(), "c999"); err == nil {
		t.Fatal("RunSQL on unknown cell should fail")
	}
}

func TestAskSimpleAggregation(t *testing.T) {
	p := demoPlatform(t)
	ans, err := p.Ask("total revenue by region", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "SELECT") {
		t.Errorf("missing SQL: %+v", ans)
	}
	if ans.Result == nil || ans.Result.NumRows() != 3 {
		t.Errorf("result = %v, want 3 regions", ans.Result)
	}
	if len(ans.AgentTrace) == 0 {
		t.Error("empty agent trace")
	}
}

func TestAskWithChart(t *testing.T) {
	p := demoPlatform(t)
	ans, err := p.Ask("draw a bar chart of total revenue by region", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.ChartJSON, `"mark"`) {
		t.Errorf("missing chart: %q", ans.ChartJSON)
	}
}

func TestAskMultiAgentInsights(t *testing.T) {
	p := demoPlatform(t)
	ans, err := p.Ask("find anomalies in revenue and analyze why, then summarize the insights", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Insights) == 0 {
		t.Errorf("no insights: %+v", ans)
	}
}

func TestAskUnknownTable(t *testing.T) {
	p := demoPlatform(t)
	if _, err := p.Ask("anything", "ghost"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestLearnKnowledgeEnablesJargon(t *testing.T) {
	p := MustNew(WithSeed("knowledge"))
	err := p.LoadRecords("23_customer_bg",
		[]string{"prod_class4_name", "shouldincome_after", "ftime"},
		[][]string{
			{"TencentBI", "1000.5", "2024-01-05"},
			{"TencentCloud", "2500.0", "2024-02-03"},
			{"TencentBI", "1800.25", "2024-03-10"},
		})
	if err != nil {
		t.Fatal(err)
	}
	err = p.LearnKnowledge("sales_db", "23_customer_bg",
		[]ColumnSchema{
			{Name: "prod_class4_name", Type: "string"},
			{Name: "shouldincome_after", Type: "double"},
			{Name: "ftime", Type: "date"},
		},
		[]Script{{
			ID:       "daily.sql",
			Language: "sql",
			Text: `-- daily income report
SELECT prod_class4_name AS product_line_name, SUM(shouldincome_after) AS income_after_tax
FROM 23_customer_bg GROUP BY prod_class4_name`,
		}})
	if err != nil {
		t.Fatal(err)
	}
	p.AddGlossary(Glossary{
		Term: "income", Definition: "income after tax",
		MapsToColumn: "shouldincome_after", MapsToTable: "23_customer_bg",
	})

	ans, err := p.Ask("total income by product line", "23_customer_bg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "shouldincome_after") {
		t.Errorf("knowledge did not resolve the jargon: %s", ans.SQL)
	}
}

// TestLearnKnowledgeTwiceKeepsEdgesOnce: learning a table again replaces
// its nodes in place — the published graph lists each child of the
// database, the table and every column once, as after the first call.
func TestLearnKnowledgeTwiceKeepsEdgesOnce(t *testing.T) {
	p := MustNew(WithSeed("relearn"))
	learn := func() {
		t.Helper()
		err := p.LearnKnowledge("sales_db", "23_customer_bg",
			[]ColumnSchema{
				{Name: "prod_class4_name", Type: "string"},
				{Name: "shouldincome_after", Type: "double"},
			},
			[]Script{{ID: "daily.sql", Language: "sql", Text: `-- daily income report
SELECT prod_class4_name AS product_line_name, shouldincome_after * 12 AS annualized_income
FROM 23_customer_bg WHERE prod_class4_name = 'TencentBI'`}})
		if err != nil {
			t.Fatal(err)
		}
	}
	edges := func() map[string][]string {
		g := p.rt.Graph
		out := map[string][]string{}
		for _, typ := range []knowledge.NodeType{knowledge.NodeDatabase, knowledge.NodeTable, knowledge.NodeColumn} {
			for _, id := range g.NodesOfType(typ) {
				out[id] = g.Children(id)
			}
		}
		return out
	}
	learn()
	first, nodes := edges(), p.rt.Graph.NumNodes()
	if got := first["table:sales_db.23_customer_bg"]; len(got) != 2 {
		t.Fatalf("table's children after one call = %v, want its two columns", got)
	}
	learn()
	learn()
	if got := p.rt.Graph.NumNodes(); got != nodes {
		t.Errorf("%d nodes after three calls, %d after one", got, nodes)
	}
	if got := edges(); !reflect.DeepEqual(got, first) {
		t.Errorf("edges after three calls = %v, after one = %v", got, first)
	}
}

func TestTokenUsageAccumulates(t *testing.T) {
	p := demoPlatform(t)
	if _, err := p.Ask("total revenue by region", "sales"); err != nil {
		t.Fatal(err)
	}
	prompt, _, calls := p.TokenUsage()
	if prompt == 0 || calls == 0 {
		t.Errorf("usage = %d tokens, %d calls", prompt, calls)
	}
}

func TestNotebookSession(t *testing.T) {
	p := demoPlatform(t)
	nb := p.NewNotebook("analysis")
	sqlID, err := nb.AddSQL("SELECT region, revenue FROM sales", "raw")
	if err != nil {
		t.Fatal(err)
	}
	pyID, err := nb.AddPython("clean = raw.dropna()")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddMarkdown("## Revenue notes"); err != nil {
		t.Fatal(err)
	}
	if deps := nb.DependsOn(pyID); len(deps) != 1 || deps[0] != sqlID {
		t.Errorf("python deps = %v", deps)
	}
	ctx := nb.ContextFor("clean the raw dataframe with pandas")
	if len(ctx.CellIDs) == 0 || ctx.Tokens <= 0 {
		t.Errorf("context = %+v", ctx)
	}
	if ctx.Tokens >= nb.FullContextTokens()+1 {
		t.Error("pruned context should not exceed full context")
	}
	if nb.NumCells() != 3 {
		t.Errorf("cells = %d", nb.NumCells())
	}
	if err := nb.UpdateCell(pyID, "clean = raw.fillna(0)"); err != nil {
		t.Fatal(err)
	}
	if err := nb.DeleteCell(pyID); err != nil {
		t.Fatal(err)
	}
}

func TestNotebookSQLExecutionError(t *testing.T) {
	p := demoPlatform(t)
	nb := p.NewNotebook("broken")
	if _, err := nb.AddSQL("SELECT nothing FROM missing_table", "x"); err == nil {
		t.Fatal("expected execution error")
	}
	// The cell is kept as a draft.
	if nb.NumCells() != 1 {
		t.Errorf("cells = %d", nb.NumCells())
	}
}

// TestAskAfterTableReplaced pins the profiling cache to the table snapshot
// it profiled: with no knowledge graph, re-registering a table under the
// same name with a different schema must not answer from the old profile.
func TestAskAfterTableReplaced(t *testing.T) {
	p := MustNew(WithSeed("facade-test"))
	if err := p.LoadRecords("sales", []string{"region", "revenue"},
		[][]string{{"east", "100"}, {"west", "80"}, {"north", "120"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ask("total revenue by region", "sales"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadRecords("sales", []string{"country", "profit"},
		[][]string{{"de", "10"}, {"fr", "20"}, {"de", "30"}}); err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask("total profit by country", "sales")
	if err != nil {
		t.Fatalf("Ask over the replaced table: %v", err)
	}
	if !strings.Contains(ans.SQL, "profit") || !strings.Contains(ans.SQL, "country") || ans.Result.NumRows() != 2 {
		t.Errorf("answer does not use the new schema: %s (%d rows)", ans.SQL, ans.Result.NumRows())
	}
}

// TestAskSeesAppendedValues: rows appended after a first Ask publish a new
// snapshot, and the next Ask must link values that only the new rows hold.
func TestAskSeesAppendedValues(t *testing.T) {
	p := MustNew(WithSeed("facade-test"))
	var rows [][]string
	for i := 0; i < 4; i++ { // 12 rows, 3 regions: few enough to profile as categorical
		rows = append(rows, []string{"east", "100"}, []string{"west", "80"}, []string{"north", "120"})
	}
	if err := p.LoadRecords("sales", []string{"region", "revenue"}, rows); err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask("total revenue for south", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.SQL, "south") {
		t.Fatalf("value linked before any row holds it: %s", ans.SQL)
	}
	south := [][]string{{"south", "55"}, {"south", "45"}, {"south", "5"}, {"south", "15"}}
	if err := p.AppendRecords("sales", south); err != nil {
		t.Fatal(err)
	}
	ans, err = p.Ask("total revenue for south", "sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SQL, "'south'") || ans.Result.NumRows() != 1 {
		t.Errorf("appended value not linked: %s (%d rows)", ans.SQL, ans.Result.NumRows())
	}
}
