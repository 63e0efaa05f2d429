// Package experiments contains one harness per table and figure in the
// paper's evaluation (§VII). Each harness generates its workload,
// executes every method arm, and returns printable rows; Run executes
// them all at one seed and scale into a Report, which cmd/datalab-bench
// prints and TestReproductionLedger byte-compares with the committed
// testdata/reproduction.json.
package experiments

import (
	"fmt"
	"strings"

	"datalab/internal/baselines"
	"datalab/internal/benchgen"
	"datalab/internal/llm"
	"datalab/internal/metrics"
	"datalab/internal/textutil"
)

// Cell is one method score inside a row.
type Cell struct {
	Method string  `json:"method"`
	Value  float64 `json:"value"` // in the unit the row's Metric names
}

// Row is one benchmark x metric line of Table I.
type Row struct {
	Stage     string `json:"stage"`
	Task      string `json:"task"`
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	Cells     []Cell `json:"cells"`
}

// Format renders the row like the paper's table.
func (r Row) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-11s %-13s %-17s", r.Stage, r.Task, r.Benchmark, r.Metric)
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, " | %s %.2f", c.Method, c.Value)
	}
	return sb.String()
}

// suiteMeta maps suites to their Table I presentation.
var suiteMeta = map[string]struct {
	stage string
	task  string
}{
	"Spider":       {"Data Preparation", "NL2SQL"},
	"BIRD":         {"Data Preparation", "NL2SQL"},
	"DS-1000":      {"Data Preparation", "NL2DSCode"},
	"DSEval":       {"Data Preparation", "NL2DSCode"},
	"DABench":      {"Data Analysis", "NL2Insight"},
	"InsightBench": {"Data Analysis", "NL2Insight"},
	"nvBench":      {"Data Visualization", "NL2VIS"},
	"VisEval":      {"Data Visualization", "NL2VIS"},
}

// Table1 runs the end-to-end comparison (Table I). scale in (0,1]
// shrinks suite sizes for fast runs; 1.0 is the full workload. All
// methods use the GPT-4 profile, as in the paper.
func Table1(seed string, scale float64) []Row {
	var rows []Row
	for _, suite := range benchgen.Suites() {
		s := suite
		s.N = scaled(s.N, scale)
		tasks := benchgen.GenerateSuite(s, seed)
		methods := baselines.MethodsFor(s.Kind)

		results := map[string][]baselines.Result{}
		for _, m := range methods {
			client := llm.NewClient(llm.GPT4, seed+"|table1|"+m.Name)
			for _, task := range tasks {
				results[m.Name] = append(results[m.Name], m.Run(task, client))
			}
		}

		meta := suiteMeta[s.Name]
		addRow := func(metric string, value func(string) float64) {
			row := Row{Stage: meta.stage, Task: meta.task, Benchmark: s.Name, Metric: metric}
			for _, m := range methods {
				row.Cells = append(row.Cells, Cell{Method: m.Name, Value: value(m.Name)})
			}
			rows = append(rows, row)
		}

		switch s.Kind {
		case benchgen.TaskNL2SQL:
			addRow("Execution Accuracy", func(m string) float64 { return rate(results[m], correct) })
		case benchgen.TaskNL2DSCode:
			addRow("Pass Rate", func(m string) float64 { return rate(results[m], correct) })
		case benchgen.TaskNL2Insight:
			if s.Name == "DABench" {
				addRow("Accuracy", func(m string) float64 { return rate(results[m], correct) })
			} else {
				addRow("LLaMA-3-Eval", func(m string) float64 {
					return judgeScore(seed, m, tasks, results[m])
				})
				addRow("ROUGE-1", func(m string) float64 {
					return rougeScore(tasks, results[m])
				})
			}
		case benchgen.TaskNL2VIS:
			if s.Name == "nvBench" {
				addRow("Execution Accuracy", func(m string) float64 { return rate(results[m], correct) })
			} else {
				addRow("Pass Rate", func(m string) float64 { return rate(results[m], legal) })
				addRow("Readability Score", func(m string) float64 { return readability(results[m]) })
			}
		}
	}
	return rows
}

func scaled(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	out := int(float64(n) * scale)
	if out < 10 {
		out = 10
	}
	return out
}

func correct(r baselines.Result) bool { return r.Correct }
func legal(r baselines.Result) bool   { return r.Legal }

func rate(rs []baselines.Result, pred func(baselines.Result) bool) float64 {
	var c metrics.Counter
	for _, r := range rs {
		c.Add(pred(r))
	}
	return c.Rate()
}

func readability(rs []baselines.Result) float64 {
	var xs []float64
	for _, r := range rs {
		if r.Legal {
			xs = append(xs, r.Readability)
		}
	}
	return metrics.Mean(xs)
}

// rougeScore averages summary-level ROUGE-1 against the references.
func rougeScore(tasks []benchgen.Task, rs []baselines.Result) float64 {
	var xs []float64
	for i, r := range rs {
		xs = append(xs, textutil.ROUGE1(r.Summary, tasks[i].GoldInsight))
	}
	return metrics.Mean(xs)
}

// judgeScore is the summary-level LLM-judge metric: a simulated judge
// whose verdict concentrates around the factual overlap with the
// reference (judges reward content over phrasing, so it sits slightly
// above raw ROUGE).
func judgeScore(seed, method string, tasks []benchgen.Task, rs []baselines.Result) float64 {
	judge := llm.NewClient(llm.GPT4, seed+"|judge")
	var xs []float64
	for i, r := range rs {
		overlap := textutil.ROUGE1(r.Summary, tasks[i].GoldInsight)
		q := overlap * 1.4
		if q > 1 {
			q = 1
		}
		xs = append(xs, judge.Score(fmt.Sprintf("judge|%s|%s", method, tasks[i].ID), 0, 1, q))
	}
	return metrics.Mean(xs)
}

// Figure6 runs DataLab across the three model profiles (Figure 6) on the
// four representative suites. Returns rows keyed by benchmark with one
// cell per model.
func Figure6(seed string, scale float64) []Row {
	suiteNames := []string{"Spider", "DS-1000", "DABench", "VisEval"}
	var rows []Row
	for _, name := range suiteNames {
		s, _ := benchgen.SuiteByName(name)
		s.N = scaled(s.N, scale)
		tasks := benchgen.GenerateSuite(s, seed)
		meta := suiteMeta[s.Name]

		metric := "Accuracy"
		pred := correct
		switch s.Name {
		case "Spider":
			metric = "Execution Accuracy"
		case "DS-1000":
			metric = "Pass Rate"
		case "VisEval":
			metric = "Pass Rate"
			pred = legal
		}

		row := Row{Stage: meta.stage, Task: meta.task, Benchmark: s.Name, Metric: metric}
		m := baselines.DataLab()
		for _, profile := range llm.Profiles() {
			client := llm.NewClient(profile, seed+"|figure6")
			var rs []baselines.Result
			for _, task := range tasks {
				rs = append(rs, m.Run(task, client))
			}
			row.Cells = append(row.Cells, Cell{Method: profile.Name, Value: rate(rs, pred)})
		}
		rows = append(rows, row)
	}
	return rows
}
