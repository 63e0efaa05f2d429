package agent

import (
	"strings"

	"datalab/internal/comm"
	"datalab/internal/textutil"
)

// Planner is the proxy-side analysis that maps a user query to an FSM
// execution plan (§V Steps 1-2): which agents participate and how
// information flows between them.
type Planner struct {
	rt *Runtime
}

// NewPlanner returns a planner over the runtime.
func NewPlanner(rt *Runtime) *Planner { return &Planner{rt: rt} }

// Plan builds the FSM and the agent set for a query against a table.
// Every plan starts at the SQL agent (data extraction); analysis and
// visualization agents attach based on the query's intent vocabulary;
// multi-intent questions fan out and re-join at a terminal synthesizer.
// The agents share one retrieval memo, which lives as long as they do.
func (p *Planner) Plan(query, tableName string) (*comm.FSM, map[string]comm.Agent) {
	q := strings.ToLower(query)
	plan := comm.NewFSM()
	agents := map[string]comm.Agent{}
	memo := retrievals{}

	add := func(name string, a *BIAgent) {
		a.memo = memo
		plan.AddAgent(name)
		agents[name] = a
	}
	add(NameSQL, NewSQLAgent(p.rt, tableName))

	var analysis []string
	attach := func(name string, a *BIAgent) {
		add(name, a)
		plan.AddEdge(NameSQL, name)
		analysis = append(analysis, name)
	}
	if textutil.ContainsAny(q, "anomal", "outlier", "unusual", "spike") {
		attach(NameAnomaly, NewAnomalyAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "why", "cause", "driver", "correlat", "relationship", "impact") {
		attach(NameCausal, NewCausalAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "forecast", "predict", "project", "next quarter", "next month", "future") {
		attach(NameForecast, NewForecastAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "clean", "dedup", "fix the data") {
		attach(NameCleaning, NewCleaningAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "impute", "missing value", "fill in") {
		attach(NameImpute, NewImputationAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "explore", "profile", "distribution", "describe the data") {
		attach(NameEDA, NewEDAAgent(p.rt, tableName))
	}
	if textutil.ContainsAny(q, "pandas", "python code", "dataframe code", "script") {
		attach(NameDSCode, NewDSCodeAgent(p.rt, tableName))
	}

	wantChart := textutil.ContainsAny(q, "chart", "plot", "visuali", "graph", "draw", "pie", "trend line")
	wantInsight := textutil.ContainsAny(q, "insight", "analyz", "analysis", "summar", "report", "explain")

	if wantChart {
		add(NameChart, NewChartAgent(p.rt, tableName))
		plan.AddEdge(NameSQL, NameChart)
		for _, a := range analysis {
			plan.AddEdge(a, NameChart)
		}
	}
	if wantInsight || len(analysis) > 1 {
		add(NameInsight, NewInsightAgent(p.rt, tableName))
		plan.AddEdge(NameSQL, NameInsight)
		for _, a := range analysis {
			plan.AddEdge(a, NameInsight)
		}
		if wantChart {
			plan.AddEdge(NameChart, NameInsight)
		}
	}
	return plan, agents
}

// Outcome is what one run of the pipeline produced.
type Outcome struct {
	// Units are the proxy's buffer contents in completion order.
	Units []comm.Info
	Stats comm.RunStats
	// Faithful reports whether every agent produced a correct result on its
	// last successful run — the accuracy signal for multi-agent questions.
	Faithful bool
}

// Run answers one question about one table the way §V describes: the
// planner maps it to an FSM of agents (Steps 1-2) and a proxy configured
// by cfg runs the agents along it (Steps 3-7). Platform.Ask and the
// Table III ablations both go through here.
func Run(rt *Runtime, cfg comm.ProxyConfig, question, table string) (Outcome, error) {
	plan, agents := NewPlanner(rt).Plan(question, table)
	units, stats, err := comm.NewProxy(cfg).Run(plan, agents, question)
	return Outcome{Units: units, Stats: stats, Faithful: allFaithful(agents)}, err
}

func allFaithful(agents map[string]comm.Agent) bool {
	for _, a := range agents {
		if ba, ok := a.(*BIAgent); ok && !ba.Faithful() {
			return false
		}
	}
	return true
}
