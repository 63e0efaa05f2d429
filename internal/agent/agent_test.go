package agent

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"datalab/internal/comm"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

func salesCatalog(t *testing.T) *sqlengine.Catalog {
	t.Helper()
	tbl := table.MustNew("sales",
		[]string{"region", "product", "revenue", "cost", "ftime"},
		[]table.Kind{table.KindString, table.KindString, table.KindFloat, table.KindFloat, table.KindTime})
	rows := [][]table.Value{
		{table.Str("east"), table.Str("widget"), table.Float(100), table.Float(60), table.Str("2024-01-05")},
		{table.Str("east"), table.Str("gadget"), table.Float(250), table.Float(120), table.Str("2024-02-03")},
		{table.Str("west"), table.Str("widget"), table.Float(80), table.Float(50), table.Str("2024-03-10")},
		{table.Str("west"), table.Str("gadget"), table.Float(300), table.Float(150), table.Str("2024-04-21")},
		{table.Str("north"), table.Str("widget"), table.Float(120), table.Float(70), table.Str("2024-05-11")},
		{table.Str("north"), table.Str("gadget"), table.Float(900), table.Float(200), table.Str("2024-06-18")},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r...)
	}
	cat := sqlengine.NewCatalog()
	cat.Register(tbl)
	return cat
}

func testRuntime(t *testing.T, seed string) *Runtime {
	t.Helper()
	return NewRuntime(llm.NewClient(llm.GPT4, seed), salesCatalog(t))
}

// executeWithRetry mirrors the proxy's retry loop for direct agent calls:
// residual-error draws legitimately fail some attempts.
func executeWithRetry(t *testing.T, a comm.Agent, query string, inputs []comm.Info) comm.Info {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		info, err := a.Execute(query, inputs, attempt)
		if err == nil {
			return info
		}
		lastErr = err
	}
	t.Fatalf("%s exhausted retries: %v", a.Name(), lastErr)
	return comm.Info{}
}

func TestSQLAgentEndToEnd(t *testing.T) {
	rt := testRuntime(t, "sqlagent")
	a := NewSQLAgent(rt, "sales")
	info := executeWithRetry(t, a, "total revenue by region", nil)
	if info.Kind != comm.KindSQL || info.Role != NameSQL {
		t.Errorf("info = %+v", info)
	}
	if !strings.Contains(info.Content, "SELECT") || !strings.Contains(info.Content, "GROUP BY") {
		t.Errorf("content missing SQL: %s", info.Content)
	}
	up, ok := info.Payload.(SQLPayload)
	if !ok || up.Spec == nil || up.Result == nil {
		t.Fatalf("payload = %#v, want the spec, statement and result", info.Payload)
	}
	if up.SQL != info.Content {
		t.Errorf("Content = %q, want the statement alone (%q)", info.Content, up.SQL)
	}
	if sql, err := up.Spec.ToSQL(); err != nil || sql != up.SQL {
		t.Errorf("payload spec compiles to %q (err %v), statement is %q", sql, err, up.SQL)
	}
	if up.Result.NumRows() != 3 || up.Result.Next() == nil {
		t.Errorf("payload result: %d rows, want 3 regions on an unread cursor", up.Result.NumRows())
	}
}

func TestDSCodeAgentEmitsPandas(t *testing.T) {
	rt := testRuntime(t, "dscode")
	a := NewDSCodeAgent(rt, "sales")
	info := executeWithRetry(t, a, "average revenue by product in pandas", nil)
	if info.Kind != comm.KindCode {
		t.Errorf("kind = %v", info.Kind)
	}
	if !strings.Contains(info.Content, "groupby") {
		t.Errorf("code missing groupby: %s", info.Content)
	}
}

// lookups counts the statements the catalog has planned so far.
func lookups(rt *Runtime) int64 {
	st := rt.Catalog.PlanCacheStats()
	return st.Hits + st.Misses
}

func TestChartAgentConsumesUpstreamDSL(t *testing.T) {
	const query = "total revenue by region as a chart"
	rt := testRuntime(t, "chartup")
	sqlInfo := executeWithRetry(t, NewSQLAgent(rt, "sales"), query, nil)
	up := sqlInfo.Payload.(SQLPayload)
	if up.Spec.ChartType != "" {
		t.Fatalf("upstream spec already names a chart type %q: the default goes unexercised", up.Spec.ChartType)
	}

	before := lookups(rt)
	chart := NewChartAgent(rt, "sales")
	info := executeWithRetry(t, chart, query, []comm.Info{sqlInfo})
	if got := lookups(rt) - before; got != 0 {
		t.Errorf("chart agent planned %d statements, want 0: the rows are on the upstream unit", got)
	}
	if info.Kind != comm.KindChart || !strings.Contains(info.Content, `"mark": "bar"`) {
		t.Errorf("chart unit = %+v", info)
	}
	if !chart.Faithful() {
		t.Error("grounded chart should be faithful")
	}
	if up.Spec.ChartType != "" {
		t.Errorf("chart agent wrote its default chart type %q into the upstream unit's spec", up.Spec.ChartType)
	}
	if up.Result.Next() == nil {
		t.Error("rendering moved the upstream result's cursor")
	}

	// Flattened as ablation S2's proxy does, the unit carries no payload:
	// the chart agent retranslates and fetches the rows itself.
	plan := comm.NewFSM()
	plan.AddAgent(NameSQL)
	plan.AddAgent(NameChart)
	plan.AddEdge(NameSQL, NameChart)
	cfg := comm.DefaultProxyConfig()
	cfg.Structured = false
	before = lookups(rt)
	units, stats, err := comm.NewProxy(cfg).Run(plan, map[string]comm.Agent{
		NameSQL: NewSQLAgent(rt, "sales"), NameChart: NewChartAgent(rt, "sales"),
	}, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.Payload != nil {
			t.Errorf("flattened unit from %s still carries a payload", u.Role)
		}
	}
	// Every call of either agent executes its own statement.
	if got := lookups(rt) - before; got != int64(stats.AgentCalls) {
		t.Errorf("unstructured run planned %d statements over %d agent calls, want one each", got, stats.AgentCalls)
	}
}

func TestAnalysisAgents(t *testing.T) {
	rt := testRuntime(t, "analysis")
	for _, mk := range []func(*Runtime, string) *BIAgent{
		NewAnomalyAgent, NewCausalAgent, NewForecastAgent, NewEDAAgent,
	} {
		a := mk(rt, "sales")
		info := executeWithRetry(t, a, "analyze the revenue", nil)
		if info.Content == "" {
			t.Errorf("%s produced empty content", a.Name())
		}
	}
}

func TestCleaningAgentRegistersTable(t *testing.T) {
	rt := testRuntime(t, "clean")
	tbl, _ := rt.Catalog.Table("sales")
	dirty := tbl.Clone()
	dirty.Name = "dirty"
	dirty.MustAppendRow(table.Null(), table.Str("x"), table.Null(), table.Float(1), table.Null())
	rt.Catalog.Register(dirty)
	a := NewCleaningAgent(rt, "dirty")
	info := executeWithRetry(t, a, "clean the data", nil)
	if !strings.Contains(info.Content, "dropped 1") {
		t.Errorf("content = %s", info.Content)
	}
	cleaned, ok := rt.Catalog.Table("dirty_clean")
	if !ok || cleaned.NumRows() != 6 {
		t.Error("cleaned table not registered correctly")
	}
}

func TestImputationAgentFillsNulls(t *testing.T) {
	rt := testRuntime(t, "impute")
	tbl := table.MustNew("gaps", []string{"v"}, []table.Kind{table.KindFloat})
	tbl.MustAppendRow(table.Float(10))
	tbl.MustAppendRow(table.Null())
	tbl.MustAppendRow(table.Float(20))
	rt.Catalog.Register(tbl)
	a := NewImputationAgent(rt, "gaps")
	executeWithRetry(t, a, "impute missing values", nil)
	imputed, ok := rt.Catalog.Table("gaps_imputed")
	if !ok {
		t.Fatal("imputed table missing")
	}
	if imputed.Get(1, "v").IsNull() {
		t.Error("null not filled")
	}
	if got := imputed.Get(1, "v").F; got != 15 {
		t.Errorf("imputed value = %v, want column mean 15", got)
	}
}

// TestPrepAgentsSurfaceRegisterFailure pins the durability contract of the
// two agents that write tables: when the catalog's register hook (the WAL,
// on a durable platform) rejects the registration, the agent step fails
// with that error and the catalog keeps serving the previous table.
func TestPrepAgentsSurfaceRegisterFailure(t *testing.T) {
	errDisk := errors.New("wal: disk full")
	for _, tc := range []struct {
		suffix string
		agent  func(*Runtime, string) *BIAgent
	}{
		{"_clean", NewCleaningAgent},
		{"_imputed", NewImputationAgent},
	} {
		rt := testRuntime(t, "regfail"+tc.suffix)
		prev := table.MustNew("sales"+tc.suffix, []string{"marker"}, []table.Kind{table.KindInt})
		prev.MustAppendRow(table.Int(42))
		rt.Catalog.Register(prev)
		rt.Catalog.SetRegisterHook(func(*table.Appender) error { return errDisk })

		for attempt := 0; attempt < 5; attempt++ {
			if _, err := tc.agent(rt, "sales").Execute("prepare the data", nil, attempt); !errors.Is(err, errDisk) {
				t.Fatalf("%s attempt %d: err = %v, want the register hook's error", tc.suffix, attempt, err)
			}
		}
		got, ok := rt.Catalog.Table(prev.Name)
		if !ok || got.NumRows() != 1 || got.Get(0, "marker").I != 42 {
			t.Errorf("%s: previous table no longer served after failed registration", tc.suffix)
		}
	}
}

func TestPlannerBuildsMultiAgentPlan(t *testing.T) {
	rt := testRuntime(t, "planner")
	p := NewPlanner(rt)
	plan, agents := p.Plan("find anomalies in revenue, explain why, and plot the trend", "sales")
	names := plan.Agents()
	nameSet := map[string]bool{}
	for _, n := range names {
		nameSet[n] = true
	}
	for _, want := range []string{NameSQL, NameAnomaly, NameCausal, NameChart, NameInsight} {
		if !nameSet[want] {
			t.Errorf("plan missing %s: %v", want, names)
		}
		if _, ok := agents[want]; nameSet[want] && !ok {
			t.Errorf("agent map missing %s", want)
		}
	}
	// Dependencies: SQL before everything, analyses before insight.
	order, err := plan.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[NameSQL] < pos[NameAnomaly] && pos[NameAnomaly] < pos[NameInsight]) {
		t.Errorf("bad order: %v", order)
	}
}

func TestPlannerSimpleQueryIsSQLOnly(t *testing.T) {
	rt := testRuntime(t, "planner2")
	p := NewPlanner(rt)
	plan, _ := p.Plan("total revenue by region", "sales")
	if got := len(plan.Agents()); got != 1 {
		t.Errorf("simple plan has %d agents, want 1: %v", got, plan.Agents())
	}
}

func TestFullProxyRunWithPlanner(t *testing.T) {
	rt := testRuntime(t, "fullrun")
	p := NewPlanner(rt)
	plan, agents := p.Plan("forecast revenue and draw a chart of revenue by region", "sales")
	proxy := comm.NewProxy(comm.DefaultProxyConfig())
	units, stats, err := proxy.Run(plan, agents, "forecast revenue and draw a chart of revenue by region")
	if err != nil {
		t.Fatalf("run failed: %v (stats %+v)", err, stats)
	}
	if !stats.Succeeded {
		t.Error("stats not marked succeeded")
	}
	kinds := map[comm.InfoKind]bool{}
	for _, u := range units {
		kinds[u.Kind] = true
	}
	if !kinds[comm.KindSQL] || !kinds[comm.KindChart] {
		t.Errorf("missing outputs, kinds = %v", kinds)
	}
}

func TestRuntimeQualityLevels(t *testing.T) {
	rt := testRuntime(t, "quality")
	q := rt.Quality(1, 0)
	if q.KnowledgeLevel != 0.5 {
		t.Errorf("profiling fallback knowledge = %v, want 0.5", q.KnowledgeLevel)
	}
	if !q.Structured {
		t.Error("default should be structured")
	}
}

func TestAllFaithful(t *testing.T) {
	rt := testRuntime(t, "faithful")
	agents := map[string]comm.Agent{}
	for i := 0; i < 3; i++ {
		a := NewEDAAgent(rt, "sales")
		a.faithful = true
		agents[fmt.Sprintf("a%d", i)] = a
	}
	if !AllFaithful(agents) {
		t.Error("faithful agents flagged as unfaithful")
	}
	bad := NewSQLAgent(rt, "sales")
	bad.faithful = false
	agents["bad"] = bad
	if AllFaithful(agents) {
		t.Error("unfaithful agent not detected")
	}
}

func TestFidelityIsStochasticButMostlyTrue(t *testing.T) {
	// Analysis agents' fidelity follows the silent-error model: with a
	// strong profile and clean context, the large majority of successful
	// runs must be faithful.
	rt := testRuntime(t, "fidelity-rate")
	faithful, succeeded := 0, 0
	n := 60
	for i := 0; i < n; i++ {
		a := NewEDAAgent(rt, "sales")
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			// Sticky failures legitimately exhaust retries for a few tasks.
			if _, err := a.Execute(fmt.Sprintf("explore variant %d", i), nil, attempt); err == nil {
				ok = true
			}
		}
		if !ok {
			continue
		}
		succeeded++
		if a.Faithful() {
			faithful++
		}
	}
	if succeeded < n*2/3 {
		t.Fatalf("only %d/%d tasks succeeded", succeeded, n)
	}
	if faithful < succeeded*3/4 {
		t.Errorf("only %d/%d successful runs faithful", faithful, succeeded)
	}
}

// TestConcurrentCandidatesAcrossSnapshots is the agent side of the
// knowledge swap: a runtime keeps answering Candidates from the graph
// snapshot it was built on — candidates and value hints unchanged — while
// the next snapshot is cloned from it, extended and given its own runtime.
// Run under -race in CI.
func TestConcurrentCandidatesAcrossSnapshots(t *testing.T) {
	client := llm.NewClient(llm.GPT4, "candidates")
	bundle, err := knowledge.NewGenerator(client).Generate(
		knowledge.TableSchema{Name: "sales", Columns: []knowledge.ColumnSchema{
			{Name: "region", Type: "string"}, {Name: "product", Type: "string"}, {Name: "revenue", Type: "double"},
		}},
		[]knowledge.Script{{ID: "east", Language: knowledge.LangSQL,
			Text: "SELECT region, SUM(revenue) AS total_revenue FROM sales WHERE region = 'east' AND product = 'widget' GROUP BY region"}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	graph := knowledge.NewGraph()
	graph.AddBundle(bundle, knowledge.LevelFull)
	rt := NewRuntime(client, salesCatalog(t)).WithGraph(graph, knowledge.LevelFull)

	const query = "total revenue by region"
	wantCands, wantHints, err := rt.Candidates(query, "sales")
	if err != nil || len(wantCands) == 0 || len(wantHints) == 0 {
		t.Fatalf("Candidates = %d columns, %d hints, err %v; want some of each", len(wantCands), len(wantHints), err)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cands, hints, err := rt.Candidates(query, "sales")
				if err != nil || !reflect.DeepEqual(cands, wantCands) || !reflect.DeepEqual(hints, wantHints) {
					t.Errorf("the published snapshot answered differently: %d columns, %d hints, err %v", len(cands), len(hints), err)
					return
				}
			}
		}()
	}
	next := graph.Clone()
	next.AddJargon(knowledge.JargonEntry{Term: "gizmo", Definition: "the widget product", MapsToColumn: "product", MapsToValue: "widget"})
	rtNext := NewRuntime(client, rt.Catalog).WithGraph(next, knowledge.LevelFull)
	_, nextHints, err := rtNext.Candidates(query, "sales")
	wg.Wait()

	want := append(append([]knowledge.ValueHint(nil), wantHints...), knowledge.ValueHint{Term: "gizmo", Column: "product", Value: "widget"})
	if err != nil || !reflect.DeepEqual(nextHints, want) {
		t.Errorf("next snapshot's hints = %v, err %v; want %v", nextHints, err, want)
	}
}
