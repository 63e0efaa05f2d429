package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report holds every table and figure of §VII at one seed and scale. Its
// JSON form is the reproduction ledger committed as
// testdata/reproduction.json: field names carry their unit (`_pct`,
// `_total`, `_share`), three-element arrays are the ablation settings
// S1..S3 in order, and wall-clock fields are tagged out so the document
// is byte-identical from run to run.
type Report struct {
	Seed                string            `json:"seed"`
	Scale               float64           `json:"scale"`
	Table1              []Row             `json:"table1"`
	Figure6             []Row             `json:"figure6"`
	KnowledgeGeneration KnowledgeGenStats `json:"knowledge_generation"`
	Table2              Table2Result      `json:"table2"`
	Table3              Table3Result      `json:"table3"`
	Figure7             []DAGTiming       `json:"figure7"`
	Table4              Table4Result      `json:"table4"`
}

// Run executes every experiment. It owns the workload sizing: the paper's
// full sizes (439 linking and 326 DSL pairs, 100 multi-agent questions,
// 50 tables and notebooks, notebooks of up to 49 cells) shrink with scale
// in (0,1] down to a floor below which the ablations stop being readable.
func Run(seed string, scale float64) (Report, error) {
	size := func(full, floor int) int { return max(int(float64(full)*scale), floor) }
	r := Report{
		Seed:                seed,
		Scale:               scale,
		Table1:              Table1(seed, scale),
		Figure6:             Figure6(seed, scale),
		KnowledgeGeneration: KnowledgeGeneration(seed, size(50, 5)),
		Table2:              Table2(seed, 8, size(439, 30), size(326, 30)),
		Table3:              Table3(seed, 6, size(100, 20)),
	}
	var err error
	if r.Figure7, err = Figure7(seed, 49); err != nil {
		return r, fmt.Errorf("figure7: %w", err)
	}
	if r.Table4, err = Table4(seed, size(50, 10)); err != nil {
		return r, fmt.Errorf("table4: %w", err)
	}
	return r, nil
}

// Ledger renders the report as the committed JSON document.
func (r Report) Ledger() ([]byte, error) {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// Section is one experiment rendered like the paper's table or figure.
type Section struct {
	Name  string // the -only selector
	Title string
	Body  string
}

// Sections renders the report in the paper's order.
func (r Report) Sections() []Section {
	rows := func(rs []Row) string {
		var sb strings.Builder
		for _, row := range rs {
			sb.WriteString(row.Format() + "\n")
		}
		return sb.String()
	}
	return []Section{
		{"table1", "Table I: end-to-end performance on research benchmarks", rows(r.Table1)},
		{"figure6", "Figure 6: DataLab under different underlying LLMs", rows(r.Figure6)},
		{"knowgen", "§VII-C.1: knowledge generation quality", r.KnowledgeGeneration.Format() + "\n"},
		{"table2", "Table II: domain knowledge incorporation ablation", r.Table2.Format() + "\n"},
		{"table3", "Table III: inter-agent communication ablation", r.Table3.Format() + "\n"},
		{"figure7", "Figure 7: DAG construction time", FormatFigure7(r.Figure7)},
		{"table4", "Table IV: cell-based context management ablation", r.Table4.Format() + "\n"},
	}
}
