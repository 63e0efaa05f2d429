package experiments

// Shape tests lock in the paper's qualitative claims — orderings, gaps,
// and ablation directions — at reduced workload sizes;
// TestReproductionLedger pins every full-scale number to the committed
// testdata/reproduction.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// flatten lists a decoded JSON document as sorted "path = value" lines.
func flatten(t *testing.T, doc []byte) []string {
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%02d]", path, i), e)
			}
		default:
			out = append(out, fmt.Sprintf("%s = %v", path, v))
		}
	}
	walk("report", root)
	sort.Strings(out)
	return out
}

// TestReproductionLedger regenerates Tables I-IV, Figures 6-7 and the
// knowledge-generation figures at the ledger's seed and scale and
// byte-compares them with the committed document — twice, because the
// document must not depend on what ran earlier in the process. After an
// intended change, regenerate it:
//
//	go run ./cmd/datalab-bench -only ledger > internal/experiments/testdata/reproduction.json
func TestReproductionLedger(t *testing.T) {
	want, err := os.ReadFile("testdata/reproduction.json")
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		report, err := Run("datalab-v1", 1.0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := report.Ledger()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		c, r := flatten(t, want), flatten(t, got)
		for i := 0; i < len(c) && i < len(r); i++ {
			if c[i] != r[i] {
				t.Fatalf("run %d: the reproduction moved: committed %s, regenerated %s", run, c[i], r[i])
			}
		}
		t.Fatalf("run %d: the ledger's layout changed (%d fields committed, %d regenerated)", run, len(c), len(r))
	}
}

func cellValue(t *testing.T, rows []Row, benchmark, metric, method string) float64 {
	t.Helper()
	for _, r := range rows {
		if r.Benchmark != benchmark || r.Metric != metric {
			continue
		}
		for _, c := range r.Cells {
			if c.Method == method {
				return c.Value
			}
		}
	}
	t.Fatalf("missing cell %s/%s/%s", benchmark, metric, method)
	return 0
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	rows := Table1("shape-test", 0.4)

	// NL2SQL: the SQL specialists beat the generalist on their home turf.
	spiderDL := cellValue(t, rows, "Spider", "Execution Accuracy", "DataLab")
	spiderPurple := cellValue(t, rows, "Spider", "Execution Accuracy", "PURPLE")
	spiderChess := cellValue(t, rows, "Spider", "Execution Accuracy", "CHESS")
	// PURPLE leads clearly; CHESS may tie DataLab within sampling noise at
	// this reduced scale but must not trail it meaningfully.
	if spiderPurple <= spiderDL || spiderChess < spiderDL-3 {
		t.Errorf("Spider: specialists must beat DataLab (DL %.1f, PURPLE %.1f, CHESS %.1f)",
			spiderDL, spiderPurple, spiderChess)
	}
	// BIRD is harder than Spider for everyone.
	birdDL := cellValue(t, rows, "BIRD", "Execution Accuracy", "DataLab")
	if birdDL >= spiderDL {
		t.Errorf("BIRD (%.1f) must be harder than Spider (%.1f)", birdDL, spiderDL)
	}

	// NL2DSCode: DataLab leads both suites; DS-1000 much harder than DSEval.
	ds1000DL := cellValue(t, rows, "DS-1000", "Pass Rate", "DataLab")
	dsevalDL := cellValue(t, rows, "DSEval", "Pass Rate", "DataLab")
	ds1000CoML := cellValue(t, rows, "DS-1000", "Pass Rate", "CoML")
	if ds1000DL <= ds1000CoML {
		t.Errorf("DS-1000: DataLab (%.1f) must beat CoML (%.1f)", ds1000DL, ds1000CoML)
	}
	if dsevalDL-ds1000DL < 10 {
		t.Errorf("DSEval (%.1f) should be much easier than DS-1000 (%.1f)", dsevalDL, ds1000DL)
	}

	// NL2Insight: AutoGen's unstructured chat trails DataLab.
	dabenchDL := cellValue(t, rows, "DABench", "Accuracy", "DataLab")
	dabenchAG := cellValue(t, rows, "DABench", "Accuracy", "AutoGen")
	if dabenchAG >= dabenchDL {
		t.Errorf("DABench: DataLab (%.1f) must beat AutoGen (%.1f)", dabenchDL, dabenchAG)
	}

	// NL2VIS: VisEval pass rates land in a believable band with DataLab
	// at or near the top.
	visDL := cellValue(t, rows, "VisEval", "Pass Rate", "DataLab")
	visChat := cellValue(t, rows, "VisEval", "Pass Rate", "Chat2Vis")
	if visDL <= visChat {
		t.Errorf("VisEval: DataLab (%.1f) must beat Chat2Vis (%.1f)", visDL, visChat)
	}
	for _, m := range []string{"DataLab", "LIDA", "Chat2Vis", "CoML4VIS"} {
		r := cellValue(t, rows, "VisEval", "Readability Score", m)
		if r < 3 || r > 4.5 {
			t.Errorf("readability %s = %.2f out of the plausible band", m, r)
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	rows := Figure6("shape-test", 0.4)
	// Model ordering on the skill-bound tasks.
	for _, bench := range []string{"Spider", "DS-1000"} {
		var metric string
		if bench == "Spider" {
			metric = "Execution Accuracy"
		} else {
			metric = "Pass Rate"
		}
		llama := cellValue(t, rows, bench, metric, "llama-3.1")
		gpt := cellValue(t, rows, bench, metric, "gpt-4")
		if llama >= gpt {
			t.Errorf("%s: llama-3.1 (%.1f) must trail gpt-4 (%.1f)", bench, llama, gpt)
		}
	}
	// VisEval is a near-tie: no model more than 12 points from another.
	v1 := cellValue(t, rows, "VisEval", "Pass Rate", "llama-3.1")
	v2 := cellValue(t, rows, "VisEval", "Pass Rate", "gpt-4")
	if v1-v2 > 12 || v2-v1 > 12 {
		t.Errorf("VisEval should be a near-tie: llama %.1f vs gpt %.1f", v1, v2)
	}
}

func TestKnowledgeGenerationQuality(t *testing.T) {
	stats := KnowledgeGeneration("shape-test", 10)
	if stats.Tables != 10 {
		t.Fatalf("tables = %d", stats.Tables)
	}
	if stats.Columns < 60 {
		t.Errorf("columns = %d, want >= 60", stats.Columns)
	}
	if stats.ColumnSES < 0.55 {
		t.Errorf("column SES = %.3f, want usable (> 0.55)", stats.ColumnSES)
	}
	if stats.ColSESAbove07 < 0.4 {
		t.Errorf("share above 0.7 = %.2f, too low", stats.ColSESAbove07)
	}
	if !strings.Contains(stats.Format(), "SES") {
		t.Error("Format should mention SES")
	}
}

func TestTable2Monotonicity(t *testing.T) {
	res := Table2("shape-test", 6, 90, 66)
	for i := 0; i < 2; i++ {
		if res.SchemaLinkingRecall[i] >= res.SchemaLinkingRecall[i+1] {
			t.Errorf("linking recall not monotone: %v", res.SchemaLinkingRecall)
		}
		if res.NL2DSLAccuracy[i] >= res.NL2DSLAccuracy[i+1] {
			t.Errorf("NL2DSL accuracy not monotone: %v", res.NL2DSLAccuracy)
		}
	}
	// The paper's headline: a dramatic S1 -> S3 NL2DSL gain.
	if gain := res.NL2DSLAccuracy[2] - res.NL2DSLAccuracy[0]; gain < 30 {
		t.Errorf("S1->S3 NL2DSL gain = %.1f pts, want the paper's dramatic jump", gain)
	}
	// S2 -> S3 is driven by derived-column logic: a real gap must exist.
	if gap := res.NL2DSLAccuracy[2] - res.NL2DSLAccuracy[1]; gap < 10 {
		t.Errorf("S2->S3 gap = %.1f pts, derived knowledge should matter", gap)
	}
}

func TestTable3AblationDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	res := Table3("shape-test", 6, 80)
	// Removing the FSM (S1) hurts success hard relative to S3.
	if res.SuccessRate[0] >= res.SuccessRate[2]-2 {
		t.Errorf("S1 success (%.1f) must trail S3 (%.1f)", res.SuccessRate[0], res.SuccessRate[2])
	}
	// Accuracy is worst without the FSM and best with both mechanisms.
	if res.Accuracy[0] >= res.Accuracy[2]-2 {
		t.Errorf("S1 accuracy (%.1f) must trail S3 (%.1f)", res.Accuracy[0], res.Accuracy[2])
	}
	if res.Accuracy[1] >= res.Accuracy[2]+2 {
		t.Errorf("S2 accuracy (%.1f) must not exceed S3 (%.1f)", res.Accuracy[1], res.Accuracy[2])
	}
}

func TestFigure7TimingBounds(t *testing.T) {
	points, err := Figure7("shape-test", 49)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// The paper's bounds: construction < 250 ms, update < 10 ms. Our
		// in-process implementation must be far inside them.
		if p.ConstructMs > 250 {
			t.Errorf("%d cells: construction %.2f ms exceeds the paper's bound", p.Cells, p.ConstructMs)
		}
		if p.UpdateCellMs > 10 {
			t.Errorf("%d cells: update %.2f ms exceeds the paper's bound", p.Cells, p.UpdateCellMs)
		}
	}
	if !strings.Contains(FormatFigure7(points), "construct_ms") {
		t.Error("FormatFigure7 missing header")
	}
}

func TestTable4TradeOff(t *testing.T) {
	res, err := Table4("shape-test", 20)
	if err != nil {
		t.Fatal(err)
	}
	// The DAG trades a small accuracy drop for a large token saving.
	if res.Accuracy[1] >= res.Accuracy[0] {
		t.Errorf("S2 accuracy (%.1f) should sit slightly below S1 (%.1f)", res.Accuracy[1], res.Accuracy[0])
	}
	if drop := res.Accuracy[0] - res.Accuracy[1]; drop > 20 {
		t.Errorf("accuracy drop %.1f pts too large — the trade must stay small", drop)
	}
	if res.Reduction < 40 {
		t.Errorf("token reduction %.1f%% too small — the DAG must pay for itself", res.Reduction)
	}
	if res.TokensPerQ[1] >= res.TokensPerQ[0] {
		t.Error("pruned context must cost fewer tokens")
	}
}
