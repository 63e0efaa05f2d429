package notebook

import (
	"testing"
)

// buildSampleNotebook creates the canonical mixed-language notebook used
// across these tests:
//
//	c001 SQL     -> raw  (SELECT ... FROM sales)
//	c002 Python  -> clean = raw.dropna()
//	c003 Python  -> summary = clean.groupby(...).sum()
//	c004 Chart   -> reads summary
//	c005 Markdown
//	c006 Python  -> unrelated = other_source * 2  (no link)
func buildSampleNotebook(t *testing.T) *Notebook {
	t.Helper()
	nb := New("analysis")
	if _, err := nb.AddSQLCell("SELECT region, amount FROM sales", "raw"); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddCell(CellPython, "clean = raw.dropna()"); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddCell(CellPython, `summary = clean.groupby("region").sum()`); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddCell(CellChart, `{"mark":"bar","encoding":{"x":{"field":"region"},"y":{"field":"amount"}},"data":"summary"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddCell(CellMarkdown, "## Regional revenue analysis\nNotes about the sales data."); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddCell(CellPython, "unrelated = other_source * 2"); err != nil {
		t.Fatal(err)
	}
	return nb
}

func TestDAGEdges(t *testing.T) {
	nb := buildSampleNotebook(t)
	if deps := nb.DependsOn("c002"); len(deps) != 1 || deps[0] != "c001" {
		t.Errorf("c002 deps = %v", deps)
	}
	if deps := nb.DependsOn("c003"); len(deps) != 1 || deps[0] != "c002" {
		t.Errorf("c003 deps = %v", deps)
	}
	if deps := nb.DependsOn("c004"); len(deps) != 1 || deps[0] != "c003" {
		t.Errorf("c004 (chart) deps = %v", deps)
	}
	if deps := nb.DependsOn("c005"); len(deps) != 0 {
		t.Errorf("markdown deps = %v", deps)
	}
	if deps := nb.DependsOn("c006"); len(deps) != 0 {
		t.Errorf("unrelated deps = %v", deps)
	}
}

func TestAncestorsAndDescendants(t *testing.T) {
	nb := buildSampleNotebook(t)
	anc := nb.Ancestors("c004")
	if len(anc) != 3 {
		t.Errorf("chart ancestors = %v, want c001-c003", anc)
	}
	desc := nb.Descendants("c001")
	if len(desc) != 3 {
		t.Errorf("c001 descendants = %v, want c002-c004", desc)
	}
}

func TestSQLCellVariableBinding(t *testing.T) {
	nb := New("t")
	id, err := nb.AddSQLCell("SELECT * FROM orders", "orders_df")
	if err != nil {
		t.Fatal(err)
	}
	def, ok := nb.DefiningCell("orders_df")
	if !ok || def.ID != id {
		t.Errorf("DefiningCell = %v, %v", def, ok)
	}
	// A second SQL cell consuming the first's output variable links up.
	id2, err := nb.AddSQLCell("SELECT region FROM orders_df", "regions")
	if err != nil {
		t.Fatal(err)
	}
	if deps := nb.DependsOn(id2); len(deps) != 1 || deps[0] != id {
		t.Errorf("SQL-to-SQL dep = %v", deps)
	}
}

func TestSQLOutDirective(t *testing.T) {
	nb := New("t")
	if _, err := nb.AddCell(CellSQL, "-- out: mydata\nSELECT 1 FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := nb.DefiningCell("mydata"); !ok {
		t.Error("-- out: directive not honored")
	}
}

func TestUpdateCellRewiresDAG(t *testing.T) {
	nb := buildSampleNotebook(t)
	// Point the chart at the clean frame instead of summary.
	err := nb.UpdateCell("c004", `{"mark":"bar","encoding":{"x":{"field":"region"},"y":{"field":"amount"}},"data":"clean"}`)
	if err != nil {
		t.Fatal(err)
	}
	if deps := nb.DependsOn("c004"); len(deps) != 1 || deps[0] != "c002" {
		t.Errorf("rewired deps = %v, want [c002]", deps)
	}
}

func TestUpdateCellSyntaxErrorKeepsOldState(t *testing.T) {
	nb := buildSampleNotebook(t)
	if err := nb.UpdateCell("c002", "clean = raw.dropna('unterminated"); err == nil {
		t.Fatal("expected syntax error")
	}
	c, _ := nb.Cell("c002")
	if c.Source != "clean = raw.dropna()" {
		t.Error("failed update mutated the cell")
	}
	if deps := nb.DependsOn("c002"); len(deps) != 1 {
		t.Errorf("failed update broke the DAG: %v", deps)
	}
}

func TestDeleteCell(t *testing.T) {
	nb := buildSampleNotebook(t)
	if err := nb.DeleteCell("c002"); err != nil {
		t.Fatal(err)
	}
	if nb.NumCells() != 5 {
		t.Errorf("cells = %d", nb.NumCells())
	}
	// c003's reference to clean is now dangling: no edge.
	if deps := nb.DependsOn("c003"); len(deps) != 0 {
		t.Errorf("c003 deps after delete = %v", deps)
	}
	if err := nb.DeleteCell("ghost"); err == nil {
		t.Error("deleting unknown cell should error")
	}
}

func TestVariableShadowing(t *testing.T) {
	nb := New("t")
	id1, _ := nb.AddCell(CellPython, "df = load()")
	id2, _ := nb.AddCell(CellPython, "df = transform()")
	id3, _ := nb.AddCell(CellPython, "out = df.sum()")
	_ = id1
	nb.ConstructDAG()
	if deps := nb.DependsOn(id3); len(deps) != 1 || deps[0] != id2 {
		t.Errorf("shadowed variable should link to latest def: %v", deps)
	}
}

func TestClassifyTask(t *testing.T) {
	cases := []struct {
		q    string
		want TaskType
	}{
		{"draw a bar chart of revenue", TaskNL2VIS},
		{"write a sql query joining orders", TaskNL2SQL},
		{"clean the dataframe with pandas", TaskNL2DSCode},
		{"analyze anomalies in the trend", TaskNL2Insight},
		{"hello world", TaskUnknown},
	}
	for _, c := range cases {
		if got := ClassifyTask(c.q); got != c.want {
			t.Errorf("ClassifyTask(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQueryContextPrunes(t *testing.T) {
	nb := buildSampleNotebook(t)
	m := NewManager(nb)

	ctx := m.QueryContext("clean the summary dataframe with pandas", "summary")
	// NL2DSCode: only Python cells survive pruning; summary's defining
	// cell c003 is Python, its descendant c004 is a chart (pruned).
	for _, c := range ctx.Cells {
		if c.Type != CellPython && c.Type != CellPySpark {
			t.Errorf("non-Python cell %s (%s) survived NL2DSCode pruning", c.ID, c.Type)
		}
	}
	found := false
	for _, c := range ctx.Cells {
		if c.ID == "c003" {
			found = true
		}
	}
	if !found {
		t.Errorf("defining cell c003 missing from context: %+v", ctx.Cells)
	}
	// The unrelated cell c006 must not appear.
	for _, c := range ctx.Cells {
		if c.ID == "c006" {
			t.Error("unrelated cell leaked into context")
		}
	}
}

func TestQueryContextWithoutDAGTakesEverything(t *testing.T) {
	nb := buildSampleNotebook(t)
	m := NewManager(nb)
	m.UseDAG = false
	ctx := m.QueryContext("any question at all", "")
	if len(ctx.Cells) != nb.NumCells() {
		t.Errorf("S1 context cells = %d, want all %d", len(ctx.Cells), nb.NumCells())
	}
}

func TestTokenCostReduction(t *testing.T) {
	// The core Table IV claim: DAG-pruned context costs far fewer tokens.
	nb := buildSampleNotebook(t)
	m := NewManager(nb)
	withDAG := m.QueryContext("visualize the summary by region as a bar chart", "summary")
	m.UseDAG = false
	withoutDAG := m.QueryContext("visualize the summary by region as a bar chart", "summary")
	if withDAG.Tokens() >= withoutDAG.Tokens() {
		t.Errorf("DAG context (%d tokens) should cost less than full context (%d)",
			withDAG.Tokens(), withoutDAG.Tokens())
	}
}

func TestMarkdownSimilaritySelection(t *testing.T) {
	nb := buildSampleNotebook(t)
	m := NewManager(nb)
	ctx := m.QueryContext("analyze the regional revenue sales data", "")
	foundMD := false
	for _, c := range ctx.Cells {
		if c.Type == CellMarkdown {
			foundMD = true
		}
	}
	// NL2Insight allows markdown; the note mentions "regional revenue".
	if !foundMD {
		t.Error("similar markdown cell not selected for insight task")
	}
}

func TestPredictVariableFallsBackToLatest(t *testing.T) {
	nb := New("t")
	_, _ = nb.AddCell(CellPython, "alpha = load()")
	_, _ = nb.AddCell(CellPython, "beta = alpha.filter()")
	m := NewManager(nb)
	ctx := m.QueryContext("zzz qqq xyzzy", "") // matches nothing lexically
	if len(ctx.Cells) == 0 {
		t.Error("fallback to latest variable produced empty context")
	}
}

func TestAddCellRejectsBadSyntax(t *testing.T) {
	nb := New("t")
	if _, err := nb.AddCell(CellPython, "x = 'unterminated"); err == nil {
		t.Error("bad Python accepted")
	}
	if nb.NumCells() != 0 {
		t.Error("failed cell was added")
	}
}
