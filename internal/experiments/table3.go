package experiments

import (
	"fmt"

	"datalab/internal/agent"
	"datalab/internal/benchgen"
	"datalab/internal/comm"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/metrics"
	"datalab/internal/sqlengine"
)

// Table3Result is the Inter-Agent Communication ablation (Table III).
type Table3Result struct {
	// S1 = w/o FSM, S2 = w/o information formatting, S3 = both on.
	SuccessRate [3]float64 `json:"success_rate_pct"`
	Accuracy    [3]float64 `json:"accuracy_pct"`
	Questions   int        `json:"questions_total"`
}

// Format renders the two ablation lines.
func (r Table3Result) Format() string {
	return fmt.Sprintf(
		"Success Rate (%%):  S1 %.2f  S2 %.2f  S3 %.2f\nAccuracy (%%):      S1 %.2f  S2 %.2f  S3 %.2f",
		r.SuccessRate[0], r.SuccessRate[1], r.SuccessRate[2],
		r.Accuracy[0], r.Accuracy[1], r.Accuracy[2])
}

// Table3 runs the complex multi-agent questions under the three
// communication configurations. Success = solved within 5 calls/agent;
// accuracy = final answer correct.
func Table3(seed string, nTables, nQuestions int) Table3Result {
	tables := benchgen.GenerateEnterprise(seed, nTables)
	questions := benchgen.ComplexQuestions(tables, nQuestions, seed)

	configs := []comm.ProxyConfig{
		{UseFSM: false, Structured: true, MaxCallsPerAgent: 5}, // S1
		{UseFSM: true, Structured: false, MaxCallsPerAgent: 5}, // S2
		{UseFSM: true, Structured: true, MaxCallsPerAgent: 5},  // S3
	}

	var res Table3Result
	res.Questions = len(questions)
	for ci, cfg := range configs {
		client := llm.NewClient(llm.GPT4, fmt.Sprintf("%s|table3|s%d", seed, ci+1))
		gen := knowledge.NewGenerator(client)
		graph := knowledge.NewGraph()
		catalog := sqlengine.NewCatalog()
		for _, et := range tables {
			catalog.Register(et.Data)
			if b, err := gen.Generate(et.Schema, et.Scripts, et.Lineage); err == nil {
				graph.AddBundle(b, knowledge.LevelFull)
			}
		}
		for _, j := range benchgen.Jargon() {
			graph.AddJargon(j)
		}

		var success, accuracy metrics.Counter
		for _, q := range questions {
			rt := agent.NewRuntime(client, catalog).WithGraph(graph, knowledge.LevelFull)
			rt.Ambiguity = 0.3 // enterprise queries, knowledge loaded
			rt.Structured = cfg.Structured
			planner := agent.NewPlanner(rt)
			plan, agents := planner.Plan(q.Query, q.Table)
			proxy := comm.NewProxy(cfg)
			_, stats, err := proxy.Run(plan, agents, q.Query)
			ok := err == nil && stats.Succeeded
			success.Add(ok)
			accuracy.Add(ok && agent.AllFaithful(agents))
		}
		res.SuccessRate[ci] = success.Rate()
		res.Accuracy[ci] = accuracy.Rate()
	}
	return res
}
