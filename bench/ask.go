package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"datalab"
	"datalab/internal/agent"
	"datalab/internal/benchgen"
	"datalab/internal/comm"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// ask_enterprise: the paper's path. Natural-language questions over
// tiny, cryptically named warehouse tables go through Platform.Ask —
// planner, agents, proxy, knowledge retrieval, DSL, SQL — so those
// layers do nearly all the work and the scan kernels almost none. The
// generated SQL has more distinct templates than the 256-entry plan
// cache holds: the larger-than-cache case.
//
// The corpus — tables, scripts, learned knowledge, simulator seed and
// the question stream — is fixed; --seed draws the order the questions
// are asked in (which decides what the plan cache still holds when a
// question repeats). A question costs 1-15 ms depending on its table,
// its wording and how many retries the simulator deals it, so a
// seed-drawn corpus measured 2.1-2.8 ms per question from seed to seed,
// and a seed-drawn sample of 500 questions still moved p50 by 10 %:
// a different benchmark per seed rather than the same one reordered.
const (
	askWarehouse = "bench-warehouse"
	askTables    = 24
	askSimple    = 375 // single SQL agent (benchgen.SchemaLinkingPairs)
	askComplex   = 125 // SQL + analysis agents + chart/insight (benchgen.ComplexQuestions)
)

type askOp struct {
	query, table string
	// Expected output, recorded by the admission pre-pass.
	sql  string
	rows int
}

type askEnterprise struct {
	tables   []benchgen.EnterpriseTable
	csv      [][]byte // each table's data, as Platform.LoadCSV reads it
	ops      []askOp
	distinct int // distinct (question, table) pairs among ops
	asked    int // candidates the admission pre-pass had to ask
	rejected int // of those, how many the simulator failed

	p *datalab.Platform

	// The traced replica: the pieces Platform.Ask assembles privately,
	// built the same way from the same inputs, so spans can sit around
	// the calls Ask makes. Built on first traced replay.
	rt *agent.Runtime

	tokens0, calls0 int
	tokensPerOp     []float64
	callsPerOp      []float64
	cache           planCacheDelta
}

func newAskEnterprise(seed int64) (workload, error) {
	w := &askEnterprise{tables: benchgen.GenerateEnterprise(askWarehouse, askTables)}
	for _, et := range w.tables {
		var buf bytes.Buffer
		if err := et.Data.WriteCSV(&buf); err != nil {
			return nil, err
		}
		w.csv = append(w.csv, buf.Bytes())
	}
	if err := w.build(); err != nil {
		return nil, err
	}
	defer w.teardown()

	// Admission pre-pass: the seeded LLM simulator deterministically
	// fails some questions (derived "net margin" columns, exhausted
	// retries). Those are engine/agent gaps, not benchmark load, so a
	// candidate is kept only if Ask answers it cleanly; its SQL text and
	// row count become the expected output of every later replay.
	type verdict struct {
		ok   bool
		sql  string
		rows int
	}
	seen := map[[2]string]verdict{}
	admit := func(query, tbl string) (askOp, bool) {
		key := [2]string{query, tbl}
		v, known := seen[key]
		if !known {
			w.asked++
			if ans, err := w.p.Ask(query, tbl); err == nil && ans.Err == nil && ans.Result != nil {
				v = verdict{ok: true, sql: ans.SQL, rows: ans.Result.NumRows()}
			} else {
				w.rejected++
			}
			seen[key] = v
		}
		return askOp{query: query, table: tbl, sql: v.sql, rows: v.rows}, v.ok
	}
	var simple, complexQ []askOp
	for _, c := range benchgen.SchemaLinkingPairs(w.tables, 4*askSimple, askWarehouse) {
		if len(simple) == askSimple {
			break
		}
		if op, ok := admit(c.Query, c.Table); ok {
			simple = append(simple, op)
		}
	}
	for _, c := range benchgen.ComplexQuestions(w.tables, 4*askComplex, askWarehouse) {
		if len(complexQ) == askComplex {
			break
		}
		if op, ok := admit(c.Query, c.Table); ok {
			complexQ = append(complexQ, op)
		}
	}
	if len(simple) < askSimple || len(complexQ) < askComplex {
		return nil, fmt.Errorf("admission kept %d simple and %d complex questions, need %d and %d",
			len(simple), len(complexQ), askSimple, askComplex)
	}
	w.ops = append(simple, complexQ...)
	rand.New(rand.NewSource(seed)).Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	distinct := map[[2]string]bool{}
	for _, op := range w.ops {
		distinct[[2]string{op.query, op.table}] = true
	}
	w.distinct = len(distinct)
	return w, nil
}

func (w *askEnterprise) numOps() int   { return len(w.ops) }
func (w *askEnterprise) mutates() bool { return false }

func (w *askEnterprise) describe() []string {
	return []string{
		fmt.Sprintf("%d enterprise tables (60-120 rows), knowledge learned per table, %d-entry glossary", askTables, len(benchgen.Jargon())),
		fmt.Sprintf("%d questions: %d schema-linking (SQL agent only) + %d complex (analysis/chart/insight agents), shuffled; %d distinct, replayed verbatim",
			len(w.ops), askSimple, askComplex, w.distinct),
		fmt.Sprintf("admission pre-pass asked %d distinct candidates, rejected %d", w.asked, w.rejected),
	}
}

// build loads the tables, learns their knowledge and adds the glossary
// through the public Platform API.
func (w *askEnterprise) build() error {
	p, err := datalab.New(datalab.WithSeed(askWarehouse))
	if err != nil {
		return err
	}
	for i, et := range w.tables {
		if err := p.LoadCSV(et.Schema.Name, bytes.NewReader(w.csv[i])); err != nil {
			return err
		}
		cols := make([]datalab.ColumnSchema, len(et.Schema.Columns))
		for j, c := range et.Schema.Columns {
			cols[j] = datalab.ColumnSchema{Name: c.Name, Type: c.Type, Comment: c.Comment}
		}
		scripts := make([]datalab.Script, len(et.Scripts))
		for j, s := range et.Scripts {
			scripts[j] = datalab.Script{ID: s.ID, Language: string(s.Language), Text: s.Text}
		}
		if err := p.LearnKnowledge(et.Schema.Database, et.Schema.Name, cols, scripts); err != nil {
			return err
		}
	}
	for _, j := range benchgen.Jargon() {
		p.AddGlossary(datalab.Glossary{Term: j.Term, Definition: j.Definition, Aliases: j.Aliases,
			MapsToColumn: j.MapsToColumn, MapsToTable: j.MapsToTable})
	}
	w.p = p
	return nil
}

func (w *askEnterprise) teardown() { w.p = nil }

// buildReplica assembles what Platform keeps private — client, catalog,
// knowledge graph, agent runtime — exactly as New/LoadCSV/LearnKnowledge/
// AddGlossary do, so the traced pass can call Planner.Plan and Proxy.Run
// itself. Every traced op checks the replica still produces the SQL the
// real platform produced.
func (w *askEnterprise) buildReplica() error {
	profile, err := llm.ProfileByName("gpt-4")
	if err != nil {
		return err
	}
	client := llm.NewClient(profile, askWarehouse)
	catalog := sqlengine.NewCatalog()
	graph := knowledge.NewGraph()
	gen := knowledge.NewGenerator(client)
	for i, et := range w.tables {
		t, err := table.ReadCSV(et.Schema.Name, bytes.NewReader(w.csv[i]))
		if err != nil {
			return err
		}
		if err := catalog.RegisterErr(t); err != nil {
			return err
		}
		bundle, err := gen.Generate(et.Schema, et.Scripts, nil)
		if err != nil {
			return err
		}
		// Platform publishes knowledge copy-on-write: every update
		// mutates a clone, which leaves the graph layered in segments.
		graph = graph.Clone()
		graph.AddBundle(bundle, knowledge.LevelFull)
	}
	for _, j := range benchgen.Jargon() {
		graph = graph.Clone()
		graph.AddJargon(j)
	}
	w.rt = agent.NewRuntime(client, catalog).WithGraph(graph, knowledge.LevelFull)
	w.rt.Ambiguity = 0.3 // what LearnKnowledge sets
	return nil
}

func (w *askEnterprise) begin(r replay) error {
	if r.Traced {
		if w.rt == nil {
			return w.buildReplica()
		}
		return nil
	}
	prompt, completion, calls := w.p.TokenUsage()
	w.tokens0, w.calls0 = prompt+completion, calls
	w.cache.begin(w.p)
	return nil
}

func (w *askEnterprise) end(r replay) error {
	if r.Traced || r.Warm {
		return nil
	}
	n := float64(len(w.ops))
	prompt, completion, calls := w.p.TokenUsage()
	w.tokensPerOp = append(w.tokensPerOp, float64(prompt+completion-w.tokens0)/n)
	w.callsPerOp = append(w.callsPerOp, float64(calls-w.calls0)/n)
	w.cache.end(w.p, len(w.ops))
	return nil
}

func (op *askOp) check(sql string, rows int) error {
	if sql != op.sql {
		return fmt.Errorf("%q on %s: SQL %q, admission saw %q", op.query, op.table, sql, op.sql)
	}
	if rows != op.rows {
		return fmt.Errorf("%q on %s: %d rows, admission saw %d", op.query, op.table, rows, op.rows)
	}
	return nil
}

func drain(res *datalab.Result) int {
	rows := 0
	for b := res.Next(); b != nil; b = res.Next() {
		rows += b.NumRows()
	}
	return rows
}

func (w *askEnterprise) op(i int) error {
	q := &w.ops[i]
	ans, err := w.p.Ask(q.query, q.table)
	if err != nil {
		return err
	}
	if ans.Err != nil {
		return ans.Err
	}
	if ans.Result == nil {
		return fmt.Errorf("%q on %s: no result", q.query, q.table)
	}
	return q.check(ans.SQL, drain(ans.Result))
}

// timedAgent is the timing decorator around every agent the planner
// returns: one span per Execute call, named by role, Count = attempt.
type timedAgent struct {
	comm.Agent
	span string
	tr   *tracer
}

func (a timedAgent) Execute(query string, inputs []comm.Info, attempt int) (comm.Info, error) {
	id := a.tr.start(a.span)
	info, err := a.Agent.Execute(query, inputs, attempt)
	a.tr.finishCount(id, int64(attempt))
	return info, err
}

var agentSpans = []string{"agent.sql_agent", "agent.analysis_agents", "agent.chart_agent", "agent.insight_agent", "agent.other"}

func agentSpan(name string) string {
	switch name {
	case agent.NameSQL:
		return "agent.sql_agent"
	case agent.NameAnomaly, agent.NameCausal, agent.NameForecast:
		return "agent.analysis_agents"
	case agent.NameChart:
		return "agent.chart_agent"
	case agent.NameInsight:
		return "agent.insight_agent"
	}
	return "agent.other"
}

// sqlOfUnit cuts the statement out of a SQL agent's unit the way
// Platform.Ask does: everything before the "-- dsl:" annotation.
func sqlOfUnit(content string) string {
	if i := strings.Index(content, "\n-- dsl:"); i >= 0 {
		return content[:i]
	}
	return strings.TrimRight(content, "\n")
}

// tracedOp is Platform.Ask taken apart: the same calls in the same
// order on the replica runtime, each inside a span, followed by probe
// spans that time the SQL agent's inner steps one by one.
func (w *askEnterprise) tracedOp(i int, tr *tracer) error {
	q := &w.ops[i]
	ctx := context.Background()

	root := tr.start("op")
	id := tr.start("agent.plan")
	plan, agents := agent.NewPlanner(w.rt).Plan(q.query, q.table)
	tr.finish(id)
	for name, a := range agents {
		agents[name] = timedAgent{Agent: a, span: agentSpan(name), tr: tr}
	}
	id = tr.start("comm.proxy_run")
	units, _, err := comm.NewProxy(comm.DefaultProxyConfig()).Run(plan, agents, q.query)
	tr.finish(id)
	if err != nil {
		tr.finish(root)
		return err
	}
	var sql string
	var res *sqlengine.Result
	id = tr.start("datalab.answer_assembly")
	for _, u := range units {
		if u.Kind != comm.KindSQL {
			continue
		}
		sql = sqlOfUnit(u.Content)
		if res, err = w.rt.Catalog.QueryCtx(ctx, sql); err == nil {
			_ = res.Columns()
			_ = res.Strings() // Ask still fills the deprecated Answer.Rows
		}
	}
	tr.finish(id)
	if err != nil || res == nil {
		tr.finish(root)
		return fmt.Errorf("%q on %s: executing generated SQL: %v", q.query, q.table, err)
	}
	rows := drain(res)
	tr.finish(root)
	if err := q.check(sql, rows); err != nil {
		return err
	}

	// Probes: Runtime.TranslateDSL and ExecuteSQL step by step.
	probe := tr.start("probe")
	id = tr.start("knowledge.rewrite")
	rewritten := w.rt.Retriever.Rewrite(q.query, nil)
	tr.finish(id)
	id = tr.start("knowledge.candidates")
	cands, hints, err := w.rt.Candidates(rewritten, q.table)
	tr.finish(id)
	if err != nil {
		tr.finish(probe)
		return err
	}
	quality := w.rt.Quality(1, 0)
	id = tr.start("knowledge.translate")
	spec, _ := w.rt.Translator.Translate(knowledge.TranslateRequest{
		Query: rewritten, Table: q.table, Candidates: cands, ValueHints: hints,
		Key: q.query + "#0", Skill: w.rt.Client.Profile().SQLGeneration, Quality: quality,
	})
	tr.finish(id)
	// Attempt 0 of a question the agent only got right on a retry yields
	// a spec the simulator corrupted; its ToSQL is still timed, but the
	// statement probed is the one the op actually produced.
	id = tr.start("dsl.to_sql")
	_, _ = spec.ToSQL()
	tr.finish(id)
	id = tr.start("sqlengine.ask_query")
	if res, err = w.rt.Catalog.QueryCtx(ctx, sql); err == nil {
		drain(res)
	}
	tr.finish(id)
	tr.finish(probe)
	if err != nil {
		return err
	}
	return probeFrontEnd(tr, sql)
}

func (w *askEnterprise) layers(rd *runData) (map[string]float64, error) {
	tr, n := rd.tr, rd.n
	us := func(name string) float64 { return tr.mean(n, false, name) * 1e6 }

	calls, retries := 0.0, 0.0
	for _, name := range agentSpans {
		for _, attempt := range tr.counts(name) {
			calls++
			if attempt > 0 {
				retries++
			}
		}
	}
	out := map[string]float64{
		"agent.plan_us":              us("agent.plan"),
		"agent.sql_agent_us":         us("agent.sql_agent"),
		"agent.analysis_agents_us":   us("agent.analysis_agents"),
		"agent.chart_agent_us":       us("agent.chart_agent"),
		"agent.insight_agent_us":     us("agent.insight_agent"),
		"agent.calls_per_op":         calls / float64(n*rd.tracedReplays),
		"agent.retry_share":          retries / calls,
		"comm.proxy_self_us":         tr.mean(n, true, "comm.proxy_run") * 1e6,
		"knowledge.rewrite_us":       us("knowledge.rewrite"),
		"knowledge.candidates_us":    us("knowledge.candidates"),
		"knowledge.translate_us":     us("knowledge.translate"),
		"dsl.to_sql_us":              us("dsl.to_sql"),
		"sqlengine.ask_query_us":     us("sqlengine.ask_query"),
		"sqlengine.fingerprint_us":   us("sqlengine.fingerprint"),
		"sqlengine.parse_us":         us("sqlengine.parse"),
		"datalab.answer_assembly_us": us("datalab.answer_assembly"),
		// Share of the Ask-equivalent span that its child spans account
		// for; what is missing is time no layer span covers.
		"layers_sum_share":  1 - tr.mean(n, true, "op")/tr.mean(n, false, "op"),
		"llm.tokens_per_op": median(w.tokensPerOp),
		"llm.calls_per_op":  median(w.callsPerOp),
	}
	w.cache.report(out)
	return out, nil
}
