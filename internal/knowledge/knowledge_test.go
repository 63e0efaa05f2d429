package knowledge

import (
	"strings"
	"testing"

	"datalab/internal/llm"
)

// enterpriseSchema mirrors the paper's running example: cryptic Tencent-
// style column names whose semantics live only in scripts.
func enterpriseSchema() TableSchema {
	return TableSchema{
		Database: "sales_db",
		Name:     "23_customer_bg",
		Columns: []ColumnSchema{
			{Name: "prod_class4_name", Type: "string"},
			{Name: "shouldincome_after", Type: "double"},
			{Name: "ftime", Type: "date"},
			{Name: "uin", Type: "bigint"},
		},
	}
}

func enterpriseScripts() []Script {
	return []Script{
		{ID: "daily_income", Language: LangSQL, Text: `
-- daily income report for product lines
SELECT prod_class4_name AS product_line_name,
       SUM(shouldincome_after) AS income_after_tax,
       shouldincome_after * 12 AS annualized_income
FROM 23_customer_bg
WHERE ftime BETWEEN '2024-01-01' AND '2024-12-31' AND prod_class4_name = 'TencentBI'
GROUP BY prod_class4_name`},
		{ID: "cleanup", Language: LangPython, Text: `
# customer background table preprocessing
df = df.rename(columns={"ftime": "partition date", "uin": "user identifier"})
out = df.groupby("prod_class4_name").agg({"shouldincome_after": "sum"})
mask = df["prod_class4_name"] == "TencentCloud"`},
	}
}

func newTestGenerator(t *testing.T) *Generator {
	t.Helper()
	return NewGenerator(llm.NewClient(llm.GPT4, "knowledge-test"))
}

func TestGenerateExtractsColumnSemantics(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	income := b.ColumnByName("shouldincome_after")
	if income == nil {
		t.Fatal("no knowledge for shouldincome_after")
	}
	if !strings.Contains(income.Description, "income") {
		t.Errorf("description %q should mention income (from alias)", income.Description)
	}
	if !strings.Contains(income.Usage, "aggregated") {
		t.Errorf("usage %q should mention aggregation", income.Usage)
	}
	ftime := b.ColumnByName("ftime")
	if ftime == nil || !strings.Contains(ftime.Description, "partition date") {
		t.Errorf("ftime description should come from the pandas rename: %+v", ftime)
	}
	prod := b.ColumnByName("prod_class4_name")
	if prod == nil || !strings.Contains(prod.Usage, "dimension") {
		t.Errorf("prod_class4_name should be tagged as a grouping dimension: %+v", prod)
	}
}

func TestGenerateDerivedColumns(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	income := b.ColumnByName("shouldincome_after")
	if income == nil || len(income.Derived) == 0 {
		t.Fatal("expected derived column annualized_income")
	}
	d := income.Derived[0]
	if d.Name != "annualized_income" {
		t.Errorf("derived name = %q", d.Name)
	}
	if !strings.Contains(d.CalculationLogic, "12") {
		t.Errorf("calculation logic = %q", d.CalculationLogic)
	}
	if len(b.Table.KeyDerived) == 0 {
		t.Error("table knowledge should list key derived attributes")
	}
}

func TestGenerateValueKnowledge(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range b.Values {
		if v.Value == "TencentBI" && v.Column == "prod_class4_name" {
			found = true
		}
	}
	if !found {
		t.Errorf("value knowledge missing TencentBI: %+v", b.Values)
	}
}

func TestGenerateTableComments(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Table.Description, "daily income report") {
		t.Errorf("table description %q should carry script comments", b.Table.Description)
	}
}

func TestGenerateLineageFallback(t *testing.T) {
	g := newTestGenerator(t)
	schema := TableSchema{
		Database: "sales_db",
		Name:     "derived_summary",
		Columns:  []ColumnSchema{{Name: "rev_total", Type: "double"}},
	}
	lineage := []LineageEdge{{
		FromTable: "23_customer_bg", FromColumn: "shouldincome_after",
		ToTable: "derived_summary", ToColumn: "rev_total",
		Transform: "monthly sum of income after tax",
	}}
	b, err := g.Generate(schema, nil, lineage)
	if err != nil {
		t.Fatal(err)
	}
	col := b.ColumnByName("rev_total")
	if col == nil || !strings.Contains(col.Description, "shouldincome_after") {
		t.Errorf("lineage-derived description missing: %+v", col)
	}
}

func TestPreprocessDeduplicates(t *testing.T) {
	scripts := []Script{
		{ID: "a", Language: LangSQL, Text: "SELECT x FROM t WHERE y = 1"},
		{ID: "b", Language: LangSQL, Text: "SELECT x FROM t WHERE y = 1 "}, // near-identical
		{ID: "c", Language: LangSQL, Text: "SELECT z, w FROM u GROUP BY z"},
	}
	got := preprocess(scripts)
	if len(got) != 2 {
		t.Errorf("deduped scripts = %d, want 2", len(got))
	}
}

func TestGraphAddBundleLevels(t *testing.T) {
	g := newTestGenerator(t)
	b, err := g.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		level       Level
		wantDesc    bool
		wantDerived bool
	}{
		{LevelNone, false, false},
		{LevelPartial, true, false},
		{LevelFull, true, true},
	} {
		graph := NewGraph()
		graph.AddBundle(b, tc.level)
		n, ok := graph.Node(ColumnID("23_customer_bg", "shouldincome_after"))
		if !ok {
			t.Fatalf("level %v: column node missing", tc.level)
		}
		hasDesc := n.Component("description") != ""
		if hasDesc != tc.wantDesc {
			t.Errorf("level %v: description presence = %v, want %v", tc.level, hasDesc, tc.wantDesc)
		}
		_, hasDerived := graph.Node(ColumnID("23_customer_bg", "shouldincome_after") + "#annualized_income")
		if hasDerived != tc.wantDerived {
			t.Errorf("level %v: derived node presence = %v, want %v", tc.level, hasDerived, tc.wantDerived)
		}
	}
}

func TestGraphBacktrackAlias(t *testing.T) {
	graph := NewGraph()
	graph.AddJargon(JargonEntry{
		Term:       "ARPU",
		Definition: "average revenue per user",
		Aliases:    []string{"arppu", "avg revenue per user"},
	})
	aliasIDs := graph.NodesOfType(NodeAlias)
	if len(aliasIDs) != 2 {
		t.Fatalf("alias nodes = %d", len(aliasIDs))
	}
	primary := graph.primary(graph.nodes[aliasIDs[0]])
	if primary == nil || primary.Type != NodeJargon || primary.Name != "ARPU" {
		t.Errorf("backtrack = %+v", primary)
	}
	// Backtracking a primary returns itself.
	self := graph.primary(graph.nodes["jargon:arpu"])
	if self == nil || self.Name != "ARPU" {
		t.Error("backtrack of primary should return itself")
	}
}

func TestRetrieveFindsAmbiguousColumnWithKnowledge(t *testing.T) {
	gen := newTestGenerator(t)
	b, err := gen.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	client := llm.NewClient(llm.GPT4, "retrieve-test")

	withKnow := NewGraph()
	withKnow.AddBundle(b, LevelFull)
	r := NewRetriever(withKnow, client)
	hits := r.RetrieveColumnsScoped("show me the income of TencentBI this year", "23_customer_bg", 5)
	found := false
	for _, h := range hits {
		if strings.Contains(h.Node.ID, "shouldincome_after") {
			found = true
		}
	}
	if !found {
		t.Error("with knowledge, income query should retrieve shouldincome_after")
	}

	// Without knowledge the cryptic name cannot be linked from "income".
	noKnow := NewGraph()
	noKnow.AddBundle(b, LevelNone)
	r2 := NewRetriever(noKnow, client)
	hits2 := r2.RetrieveColumnsScoped("show me the income of TencentBI this year", "23_customer_bg", 3)
	for _, h := range hits2 {
		if strings.Contains(h.Node.ID, "shouldincome_after") && h.Score > 0.5 {
			t.Error("without knowledge, shouldincome_after should not be a confident hit")
		}
	}
}

func TestRetrieveJargonMapsToColumn(t *testing.T) {
	graph := NewGraph()
	gen := newTestGenerator(t)
	b, _ := gen.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	graph.AddBundle(b, LevelFull)
	graph.AddJargon(JargonEntry{
		Term:         "income",
		Definition:   "revenue after tax",
		MapsToColumn: "shouldincome_after",
		MapsToTable:  "23_customer_bg",
	})
	r := NewRetriever(graph, llm.NewClient(llm.GPT4, "jargon-test"))
	hits := r.RetrieveColumnsScoped("total income by product", "23_customer_bg", 5)
	found := false
	for _, h := range hits {
		if strings.Contains(h.Node.ID, "shouldincome_after") {
			found = true
		}
	}
	if !found {
		t.Error("jargon mapping should surface the target column")
	}
}

func TestRewriteTemporal(t *testing.T) {
	r := NewRetriever(NewGraph(), llm.NewClient(llm.GPT4, "rw"))
	got := r.Rewrite("show income this year", nil)
	if !strings.Contains(got, "2024") {
		t.Errorf("rewrite = %q, want 2024 substitution", got)
	}
	got = r.Rewrite("show income last year", nil)
	if !strings.Contains(got, "2023") {
		t.Errorf("rewrite = %q, want 2023 substitution", got)
	}
}

func TestRewriteElliptical(t *testing.T) {
	r := NewRetriever(NewGraph(), llm.NewClient(llm.GPT4, "rw2"))
	history := []string{"find the most profitable product in 2023"}
	got := r.Rewrite("what about this year?", history)
	if !strings.Contains(got, "profitable") || !strings.Contains(got, "product") {
		t.Errorf("rewrite = %q, should import prior context", got)
	}
	if !strings.Contains(got, "2024") {
		t.Errorf("rewrite = %q, should standardize 'this year'", got)
	}
	if strings.Contains(got, "2023") {
		t.Errorf("rewrite = %q, must not carry the stale year", got)
	}
}

func TestTranslateWithKnowledge(t *testing.T) {
	gen := newTestGenerator(t)
	b, _ := gen.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	graph := NewGraph()
	graph.AddBundle(b, LevelFull)
	client := llm.NewClient(llm.GPT4, "translate-test")
	r := NewRetriever(graph, client)

	query := "total income by product line in 2024"
	var cands []CandidateColumn
	for _, h := range r.RetrieveColumnsScoped(query, "23_customer_bg", 6) {
		cands = append(cands, CandidateFromNode(h.Node))
	}
	tr := &Translator{Client: client}
	spec, ok := tr.Translate(TranslateRequest{
		Query:      query,
		Table:      "23_customer_bg",
		Candidates: cands,
		Key:        "t1",
		Skill:      0.99,
		Quality:    llm.Quality{SchemaLinked: 1, Structured: true},
	})
	if !ok {
		t.Fatalf("translation failed: %s", spec.JSON())
	}
	if len(spec.MeasureList) == 0 || spec.MeasureList[0].Column != "shouldincome_after" {
		t.Errorf("measure = %+v, want shouldincome_after", spec.MeasureList)
	}
	if spec.MeasureList[0].Aggregate != "sum" {
		t.Errorf("aggregate = %q", spec.MeasureList[0].Aggregate)
	}
	if len(spec.DimensionList) == 0 || spec.DimensionList[0] != "prod_class4_name" {
		t.Errorf("dimension = %v, want prod_class4_name", spec.DimensionList)
	}
	if len(spec.ConditionList) == 0 {
		t.Error("expected a 2024 temporal condition")
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("spec invalid: %v", err)
	}
}

func TestTranslateFailsWithoutKnowledge(t *testing.T) {
	// Same query, LevelNone graph: "income" cannot link to the cryptic
	// column, so the translation must not produce the right measure.
	gen := newTestGenerator(t)
	b, _ := gen.Generate(enterpriseSchema(), enterpriseScripts(), nil)
	graph := NewGraph()
	graph.AddBundle(b, LevelNone)
	client := llm.NewClient(llm.GPT4, "translate-test")
	r := NewRetriever(graph, client)

	query := "total income by product line in 2024"
	var cands []CandidateColumn
	for _, h := range r.RetrieveColumnsScoped(query, "23_customer_bg", 6) {
		cands = append(cands, CandidateFromNode(h.Node))
	}
	tr := &Translator{Client: client}
	spec, _ := tr.Translate(TranslateRequest{
		Query: query, Table: "23_customer_bg", Candidates: cands,
		Key: "t2", Skill: 0.99, Quality: llm.Quality{SchemaLinked: 1, Structured: true},
	})
	if len(spec.MeasureList) > 0 && spec.MeasureList[0].Column == "shouldincome_after" {
		t.Error("without knowledge the cryptic measure should not be linkable")
	}
}

func TestTranslateSuperlative(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "sup")
	cands := []CandidateColumn{
		{Name: "product", Type: "string", Tags: "dimension"},
		{Name: "profit", Type: "double", Tags: "measure"},
	}
	tr := &Translator{Client: client}
	spec, ok := tr.Translate(TranslateRequest{
		Query: "find the most profitable product", Table: "sales",
		Candidates: cands, Key: "sup1", Skill: 0.99,
		Quality: llm.Quality{SchemaLinked: 1, Structured: true},
	})
	if !ok {
		t.Fatalf("translate failed: %s", spec.JSON())
	}
	if spec.Limit != 1 || len(spec.OrderByList) == 0 || !spec.OrderByList[0].Desc {
		t.Errorf("superlative handling wrong: %s", spec.JSON())
	}
}

func TestTranslateChartType(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "chart")
	cands := []CandidateColumn{
		{Name: "region", Type: "string"},
		{Name: "revenue", Type: "double"},
	}
	tr := &Translator{Client: client}
	spec, _ := tr.Translate(TranslateRequest{
		Query: "bar chart of total revenue by region", Table: "sales",
		Candidates: cands, Key: "c1", Skill: 0.99,
		Quality: llm.Quality{SchemaLinked: 1, Structured: true},
	})
	if spec.ChartType != "bar" {
		t.Errorf("chart type = %q", spec.ChartType)
	}
}

func TestTranslateTopN(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "topn")
	cands := []CandidateColumn{
		{Name: "customer", Type: "string"},
		{Name: "spend", Type: "double"},
	}
	tr := &Translator{Client: client}
	spec, _ := tr.Translate(TranslateRequest{
		Query: "top 5 customers by total spend", Table: "orders",
		Candidates: cands, Key: "n1", Skill: 0.99,
		Quality: llm.Quality{SchemaLinked: 1, Structured: true},
	})
	if spec.Limit != 5 {
		t.Errorf("limit = %d, want 5", spec.Limit)
	}
}

func TestTranslateCorruptionOnLowSkill(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "corrupt")
	cands := []CandidateColumn{
		{Name: "region", Type: "string"},
		{Name: "revenue", Type: "double"},
		{Name: "cost", Type: "double"},
	}
	tr := &Translator{Client: client}
	fails := 0
	for i := 0; i < 50; i++ {
		_, ok := tr.Translate(TranslateRequest{
			Query: "total revenue by region", Table: "sales",
			Candidates: cands, Key: "cor" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Skill: 0.2, Quality: llm.Quality{SchemaLinked: 1, Structured: true},
		})
		if !ok {
			fails++
		}
	}
	if fails < 25 {
		t.Errorf("skill 0.2 should fail most translations, failed %d/50", fails)
	}
}

func TestValueHintConditions(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "hint")
	cands := []CandidateColumn{
		{Name: "prod_class4_name", Type: "string", Description: "product line name"},
		{Name: "shouldincome_after", Type: "double", Description: "income after tax"},
	}
	tr := &Translator{Client: client}
	spec, _ := tr.Translate(TranslateRequest{
		Query: "total income of TencentBI", Table: "t",
		Candidates: cands,
		ValueHints: []ValueHint{{Term: "TencentBI", Column: "prod_class4_name", Value: "TencentBI"}},
		Key:        "h1", Skill: 0.99,
		Quality: llm.Quality{SchemaLinked: 1, Structured: true},
	})
	found := false
	for _, c := range spec.ConditionList {
		if c.Column == "prod_class4_name" && c.Value == "TencentBI" {
			found = true
		}
	}
	if !found {
		t.Errorf("value hint not applied: %s", spec.JSON())
	}
}
