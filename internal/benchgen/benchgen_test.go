package benchgen

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"datalab/internal/notebook"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

func TestSuitesCalibrationOrdering(t *testing.T) {
	spider, _ := SuiteByName("Spider")
	bird, _ := SuiteByName("BIRD")
	if bird.Ambiguity <= spider.Ambiguity {
		t.Error("BIRD must be more ambiguous than Spider")
	}
	ds1000, _ := SuiteByName("DS-1000")
	dseval, _ := SuiteByName("DSEval")
	if ds1000.Difficulty <= dseval.Difficulty {
		t.Error("DS-1000 must be harder than DSEval")
	}
	if _, ok := SuiteByName("nonexistent"); ok {
		t.Error("unknown suite found")
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	s, _ := SuiteByName("Spider")
	s.N = 10
	a := GenerateSuite(s, "seed1")
	b := GenerateSuite(s, "seed1")
	for i := range a {
		if a[i].Query != b[i].Query || a[i].GoldSQL != b[i].GoldSQL {
			t.Fatal("suite generation not deterministic")
		}
	}
	c := GenerateSuite(s, "seed2")
	diff := false
	for i := range a {
		if a[i].Query != c[i].Query {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

// mustDrain executes one generated statement through QueryCtx, iterates
// the whole Result, and returns its row count. Every statement a
// generator emits must run: this is the generator-to-engine gate.
func mustDrain(t *testing.T, cat *sqlengine.Catalog, id, sql string) int {
	t.Helper()
	res, err := cat.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v\n%s", id, err, sql)
	}
	rows := 0
	for b := res.Next(); b != nil; b = res.Next() {
		rows += b.NumRows()
	}
	if rows != res.NumRows() {
		t.Fatalf("%s: drained %d rows, NumRows %d\n%s", id, rows, res.NumRows(), sql)
	}
	return rows
}

func TestGeneratedGoldSQLExecutes(t *testing.T) {
	for _, s := range Suites() {
		s.N = 25
		for _, task := range GenerateSuite(s, "exec-test") {
			if task.GoldSQL == "" {
				t.Fatalf("%s: empty gold SQL", task.ID)
			}
			cat := sqlengine.NewCatalog()
			cat.Register(task.Table)
			mustDrain(t, cat, task.ID, task.GoldSQL)
		}
	}
}

// enterpriseRollups synthesizes the reporting mix for one warehouse table
// from its schema alone: a grouped rollup, ranking and running-sum
// windows, a searched-CASE banding, and a scalar-subquery filter against
// the table's own average. Table names are digit-leading
// (`20_business_tab_00`), legal only backtick-quoted.
func enterpriseRollups(et EnterpriseTable) []string {
	var dims, nums []string
	for _, c := range et.Schema.Columns {
		switch c.Type {
		case "string":
			dims = append(dims, c.Name)
		case "double":
			// A double leads the measures: they are synthesized in
			// [100, 10000), so the 5000 banding threshold splits them.
			nums = append([]string{c.Name}, nums...)
		case "bigint":
			nums = append(nums, c.Name)
		}
	}
	if len(dims) == 0 || len(nums) == 0 {
		return nil
	}
	t, d, m := "`"+et.Schema.Name+"`", dims[0], nums[0]
	qs := []string{
		fmt.Sprintf("SELECT %s, COUNT(*) AS n, SUM(%s) FROM %s GROUP BY %s ORDER BY n DESC", d, m, t, d),
		fmt.Sprintf("SELECT %s, %s, RANK() OVER (PARTITION BY %s ORDER BY %s DESC) FROM %s", d, m, d, m, t),
		fmt.Sprintf("SELECT %s, CASE WHEN %s > 5000.0 THEN 'high' ELSE 'low' END FROM %s", d, m, t),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s > (SELECT AVG(%s) FROM %s)", d, t, m, m, t),
	}
	if len(dims) > 1 {
		qs = append(qs, fmt.Sprintf(
			"SELECT %s, %s, SUM(%s) OVER (PARTITION BY %s ORDER BY %s) FROM %s",
			dims[1], d, m, dims[1], m, t))
	}
	return qs
}

func TestEnterpriseRollupsExecute(t *testing.T) {
	tables := GenerateEnterprise("exec-test", 8)
	cat := sqlengine.NewCatalog()
	for _, et := range tables {
		cat.Register(et.Data)
	}
	queries, rows := 0, 0
	for _, et := range tables {
		for _, q := range enterpriseRollups(et) {
			rows += mustDrain(t, cat, et.Schema.Name, q)
			queries++
		}
	}
	if queries < 4*len(tables) || rows == 0 {
		t.Fatalf("%d rollups over %d tables returned %d rows", queries, len(tables), rows)
	}
}

// TestNotebookSQLCellsExecute runs the generated notebook's extraction
// cells against seeded topic tables, then the window-refined extraction
// its queries ask for ("refining the %s extraction") on each topic.
func TestNotebookSQLCellsExecute(t *testing.T) {
	gnb, err := GenerateNotebook("exec-test", 140)
	if err != nil {
		t.Fatal(err)
	}
	topics := []string{"sales", "orders", "traffic", "billing", "retention"}
	regions := []string{"east", "west", "north", "south"}
	cat := sqlengine.NewCatalog()
	for ti, topic := range topics {
		tb := table.MustNew(topic, []string{"region", "amount"}, []table.Kind{table.KindString, table.KindFloat})
		for r := 0; r < 400; r++ {
			tb.MustAppendRow(table.Str(regions[(r+ti)%len(regions)]), table.Float(float64((r*7919+ti*131)%20000)/100))
		}
		cat.Register(tb)
	}
	sqlCells := 0
	for _, c := range gnb.Notebook.Cells() {
		if c.Type == notebook.CellSQL {
			mustDrain(t, cat, c.ID, c.Source)
			sqlCells++
		}
	}
	if sqlCells < 2 {
		t.Fatalf("generated notebook carried only %d SQL cells", sqlCells)
	}
	for _, topic := range topics {
		mustDrain(t, cat, topic, fmt.Sprintf(
			"SELECT region, amount, ROW_NUMBER() OVER (PARTITION BY region ORDER BY amount DESC) AS rn FROM %s", topic))
	}
}

func TestGeneratedTasksHaveRelevantColumns(t *testing.T) {
	s, _ := SuiteByName("BIRD")
	s.N = 20
	for _, task := range GenerateSuite(s, "rel") {
		if len(task.Relevant) == 0 {
			t.Fatalf("%s: no relevant columns", task.ID)
		}
		for _, col := range task.Relevant {
			if task.Table.ColumnIndex(col) < 0 {
				t.Fatalf("%s: relevant column %q not in table %v", task.ID, col, task.Table.ColumnNames())
			}
		}
	}
}

func TestVISTasksCarryChartType(t *testing.T) {
	s, _ := SuiteByName("VisEval")
	s.N = 20
	for _, task := range GenerateSuite(s, "vis") {
		if task.Gold.ChartType == "" {
			t.Fatalf("%s: no chart type", task.ID)
		}
	}
}

func TestInsightTasksCarryGoldText(t *testing.T) {
	s, _ := SuiteByName("InsightBench")
	s.N = 10
	for _, task := range GenerateSuite(s, "ins") {
		if task.GoldInsight == "" {
			t.Fatalf("%s: no gold insight", task.ID)
		}
	}
}

func TestBIRDIsCrypticizedSometimes(t *testing.T) {
	s, _ := SuiteByName("BIRD")
	s.N = 60
	cryptic := 0
	for _, task := range GenerateSuite(s, "cryptic") {
		for _, name := range task.Table.ColumnNames() {
			if strings.HasSuffix(name, "_f") || strings.HasSuffix(name, "_v2") ||
				strings.HasSuffix(name, "_amt") || strings.HasSuffix(name, "_cd") ||
				strings.HasSuffix(name, "_val") {
				cryptic++
				break
			}
		}
	}
	if cryptic < 10 {
		t.Errorf("BIRD should crypticize a large share of schemas, got %d/60", cryptic)
	}
}

func TestGenerateEnterprise(t *testing.T) {
	tables := GenerateEnterprise("test", 4)
	if len(tables) != 4 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, et := range tables {
		if len(et.Schema.Columns) < 6 {
			t.Errorf("schema too small: %d columns", len(et.Schema.Columns))
		}
		if len(et.Scripts) < 2 {
			t.Errorf("too few scripts: %d", len(et.Scripts))
		}
		if et.Data.NumRows() < 50 {
			t.Errorf("too little data: %d rows", et.Data.NumRows())
		}
		for _, c := range et.Schema.Columns {
			if et.ExpertColumnDesc[c.Name] == "" {
				t.Errorf("no expert description for %s", c.Name)
			}
			if et.Data.ColumnIndex(c.Name) < 0 {
				t.Errorf("schema column %s missing from data", c.Name)
			}
		}
	}
	// Lineage links consecutive tables.
	if len(tables[1].Lineage) == 0 {
		t.Error("no lineage edges generated")
	}
}

func TestEnterpriseScriptsParse(t *testing.T) {
	tables := GenerateEnterprise("parse", 3)
	for _, et := range tables {
		for _, s := range et.Scripts {
			if s.Language != "sql" {
				continue
			}
			clean := stripSQLComments(s.Text)
			if _, err := sqlengine.Parse(clean); err != nil {
				t.Errorf("script %s does not parse: %v\n%s", s.ID, err, s.Text)
			}
		}
	}
}

func stripSQLComments(sql string) string {
	var lines []string
	for _, line := range strings.Split(sql, "\n") {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}

func TestSchemaLinkingPairs(t *testing.T) {
	tables := GenerateEnterprise("pairs", 4)
	pairs := SchemaLinkingPairs(tables, 50, "x")
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if len(p.Relevant) == 0 || p.Query == "" || p.Table == "" {
			t.Fatalf("malformed pair: %+v", p)
		}
	}
}

func TestNL2DSLPairsMix(t *testing.T) {
	tables := GenerateEnterprise("dslpairs", 4)
	pairs := NL2DSLPairs(tables, 120, "y")
	derived := 0
	for _, p := range pairs {
		if err := p.Gold.Validate(); err != nil {
			t.Fatalf("invalid gold DSL: %v", err)
		}
		if p.NeedsDerived {
			derived++
		}
	}
	if derived < 20 || derived > 70 {
		t.Errorf("derived share = %d/120, want roughly a third", derived)
	}
}

func TestComplexQuestionsMentionMultipleIntents(t *testing.T) {
	tables := GenerateEnterprise("cq", 3)
	qs := ComplexQuestions(tables, 30, "z")
	if len(qs) != 30 {
		t.Fatalf("questions = %d", len(qs))
	}
	for _, q := range qs {
		intents := 0
		for _, kw := range []string{"anomal", "forecast", "why", "correlation", "chart", "plot", "summar", "report", "analy", "spike", "outlier"} {
			if strings.Contains(strings.ToLower(q.Query), kw) {
				intents++
			}
		}
		if intents < 2 {
			t.Errorf("question %s has too few intents: %q", q.ID, q.Query)
		}
	}
}

func TestGenerateNotebookSizes(t *testing.T) {
	for _, n := range []int{2, 10, 25, 49} {
		g, err := GenerateNotebook("size", n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := g.Notebook.NumCells(); got < n {
			t.Errorf("n=%d: cells = %d", n, got)
		}
	}
}

func TestGeneratedNotebookHasEdgesAndQueries(t *testing.T) {
	g, err := GenerateNotebook("edges", 20)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, c := range g.Notebook.Cells() {
		edges += len(g.Notebook.DependsOn(c.ID))
	}
	if edges < 5 {
		t.Errorf("too few dependency edges: %d", edges)
	}
	if len(g.Queries) < 3 {
		t.Errorf("too few queries: %d", len(g.Queries))
	}
	for _, q := range g.Queries {
		if q.Task == notebook.TaskUnknown {
			t.Errorf("query %q has unknown task", q.Query)
		}
	}
}
