package agent

import (
	"fmt"
	"strings"

	"encoding/json"

	"datalab/internal/comm"
	"datalab/internal/dsl"
	"datalab/internal/insight"
	"datalab/internal/llm"
	"datalab/internal/table"
	"datalab/internal/textutil"
	"datalab/internal/viz"
)

// Agent names used across plans; the planner and experiments reference
// these exactly.
const (
	NameSQL      = "SQL Agent"
	NameCleaning = "Cleaning Agent"
	NameImpute   = "Imputation Agent"
	NameDSCode   = "DSCode Agent"
	NameEDA      = "EDA Agent"
	NameInsight  = "Insight Agent"
	NameML       = "ML Agent"
	NameAnomaly  = "Anomaly Detection Agent"
	NameCausal   = "Causal Analysis Agent"
	NameForecast = "Forecasting Agent"
	NameChart    = "Chart Generation Agent"
	NameChartQA  = "Chart QA Agent"
	NameReport   = "Report Generation Agent"
)

// BIAgent is one specialized agent: a named pipeline over the shared
// runtime. It implements comm.Agent.
type BIAgent struct {
	name  string
	rt    *Runtime
	table string
	// skill extracts the relevant capability from the model profile.
	skill func(llm.Profile) float64
	// run is the agent's pipeline.
	run func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error)

	// faithful records whether the last successful execution produced a
	// semantically correct result. It is evaluation instrumentation: the
	// simulator knows when it injected an error, and the accuracy metrics
	// read this instead of re-deriving gold answers for every task.
	faithful bool
}

// Name implements comm.Agent.
func (a *BIAgent) Name() string { return a.name }

// Faithful reports whether the last successful execution was correct.
func (a *BIAgent) Faithful() bool { return a.faithful }

// Execute implements comm.Agent.
func (a *BIAgent) Execute(query string, inputs []comm.Info, attempt int) (comm.Info, error) {
	info, faithful, err := a.run(a, query, inputs, attempt)
	if err != nil {
		return comm.Info{}, err
	}
	a.faithful = faithful
	return info, nil
}

// contextQuality derives the distraction/structure features from the
// units actually forwarded to this agent — this is where the Table III
// ablations bite mechanically. Retries reuse the same context, so the
// attempt number does not improve quality.
func (a *BIAgent) contextQuality(inputs []comm.Info, needed int, attempt int, linked float64) llm.Quality {
	_ = attempt
	q := a.rt.Quality(linked, 0)
	if len(inputs) > needed {
		// Every unit beyond what the subtask needs is pure distraction;
		// §V's error analysis ties most failures to plans with >3 agents
		// flooding each other without the FSM.
		q.Distraction = clamp01(q.Distraction + float64(len(inputs)-needed)/float64(needed+2))
	}
	for _, u := range inputs {
		if u.Action == "narrative" {
			q.Structured = false
			break
		}
	}
	return q
}

// stickyFactor scales how much of an agent's failure mass is persistent:
// confusion caused by the forwarded context repeats identically on every
// retry, so those failures burn the whole 5-call budget. The rest is
// transient sampling noise that retries wash out.
const stickyFactor = 0.25

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// draw is the agent's residual-error coin for one (task, attempt) pair.
// A slice of the failure mass is sticky (keyed without the attempt, so it
// repeats every retry); the rest is transient.
func (a *BIAgent) draw(kind, key string, attempt int, skill float64, q llm.Quality) bool {
	p := a.rt.Client.SuccessProbability(skill, q)
	base := fmt.Sprintf("%s|%s|%s", a.name, kind, key)
	if a.rt.Client.Draw("sticky|"+base, stickyFactor*(1-p)) {
		a.rt.Client.Charge("", "") // the call still happened
		return false
	}
	return a.rt.Client.Attempt(fmt.Sprintf("%s#%d", base, attempt), "", "", skill, q)
}

// faithfulDraw decides whether a successful execution is also
// semantically correct. Silent wrongness has no error signal, so the key
// excludes the attempt: retries cannot recover it. Half of the residual
// failure mass manifests silently.
func (a *BIAgent) faithfulDraw(kind, key string, skill float64, q llm.Quality) bool {
	// Unstructured narrative still carries the content, so it slows the
	// agent down (success retries) without corrupting what it finally
	// produces — fidelity ignores the Structured flag.
	q.Structured = true
	p := a.rt.Client.SuccessProbability(skill, q)
	// Roughly a third of residual failure manifests silently; the rest
	// surfaces as errors and is handled by the retry loop.
	return a.rt.Client.Draw(fmt.Sprintf("faithful|%s|%s|%s", a.name, kind, key), 1-0.35*(1-p))
}

// dataPreview renders the head of a table for info-unit content.
func dataPreview(t *table.Table) string {
	if t == nil {
		return ""
	}
	return t.Limit(5).String()
}

// findUpstream locates the freshest unit of a given kind among inputs.
func findUpstream(inputs []comm.Info, kind comm.InfoKind) (comm.Info, bool) {
	for i := len(inputs) - 1; i >= 0; i-- {
		if inputs[i].Kind == kind {
			return inputs[i], true
		}
	}
	return comm.Info{}, false
}

// NewSQLAgent builds the NL2SQL specialist: rewrite -> knowledge
// retrieval -> DSL -> SQL -> execution, with execution feedback retries.
func NewSQLAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameSQL,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.SQLGeneration },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			key := fmt.Sprintf("%s#%d", query, attempt)
			spec, faithful, err := a.rt.TranslateDSL(query, a.table, key, a.rt.Client.Profile().SQLGeneration, attempt)
			if err != nil {
				return comm.Info{}, false, err
			}
			if err := spec.Validate(); err != nil {
				return comm.Info{}, false, fmt.Errorf("sql agent: invalid DSL: %w", err)
			}
			sql, res, err := a.rt.ExecuteSQL(spec)
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("sql agent: execution failed: %w", err)
			}
			q := a.contextQuality(inputs, 0, attempt, 1)
			if !a.draw("exec", query, attempt, a.rt.Client.Profile().SQLGeneration, q) {
				return comm.Info{}, false, fmt.Errorf("sql agent: generated query failed sanity checks")
			}
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "generate_sql_query",
				Description: "translated the request into SQL and executed it: " + spec.Intent,
				Content:     sql + "\n-- dsl: " + spec.JSON() + "\n" + dataPreview(res),
				Kind:        comm.KindSQL,
			}, faithful, nil
		},
	}
}

// NewDSCodeAgent builds the NL2DSCode specialist: it emits a pandas-style
// program for the request and executes the equivalent table operations in
// the sandbox.
func NewDSCodeAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameDSCode,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.CodeGeneration },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			key := fmt.Sprintf("dscode|%s#%d", query, attempt)
			spec, faithful, err := a.rt.TranslateDSL(query, a.table, key, a.rt.Client.Profile().CodeGeneration, attempt)
			if err != nil {
				return comm.Info{}, false, err
			}
			code := pandasProgram(spec)
			q := a.contextQuality(inputs, 1, attempt, 1)
			if !a.draw("exec", query, attempt, a.rt.Client.Profile().CodeGeneration, q) {
				return comm.Info{}, false, fmt.Errorf("dscode agent: generated code raised an exception")
			}
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "generate_ds_code",
				Description: "wrote and ran data-science code for: " + spec.Intent,
				Content:     code,
				Kind:        comm.KindCode,
			}, faithful, nil
		},
	}
}

// pandasProgram renders a DSL spec as the pandas code an LLM would emit.
func pandasProgram(spec *dsl.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "df = load_table(%q)\n", spec.Table)
	for _, c := range spec.ConditionList {
		op := c.Operator
		if op == "=" {
			op = "=="
		}
		fmt.Fprintf(&sb, "df = df[df[%q] %s %q]\n", c.Column, op, c.Value)
	}
	if len(spec.DimensionList) > 0 && len(spec.MeasureList) > 0 {
		m := spec.MeasureList[0]
		fmt.Fprintf(&sb, "out = df.groupby(%q)[%q].%s()\n", spec.DimensionList[0], m.Column, pandasAgg(m.Aggregate))
	} else if len(spec.MeasureList) > 0 {
		m := spec.MeasureList[0]
		fmt.Fprintf(&sb, "out = df[%q].%s()\n", m.Column, pandasAgg(m.Aggregate))
	} else {
		sb.WriteString("out = df\n")
	}
	if len(spec.OrderByList) > 0 {
		fmt.Fprintf(&sb, "out = out.sort_values(ascending=%v)\n", !spec.OrderByList[0].Desc)
	}
	if spec.Limit > 0 {
		fmt.Fprintf(&sb, "out = out.head(%d)\n", spec.Limit)
	}
	return sb.String()
}

func pandasAgg(a string) string {
	switch a {
	case "avg", "mean":
		return "mean"
	case "", "sum":
		return "sum"
	default:
		return a
	}
}

// NewChartAgent builds the NL2VIS specialist: it consumes the upstream
// SQL agent's DSL, compiles a chart spec, and renders it against the
// query result.
func NewChartAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameChart,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.VisLiteracy },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			upstream, ok := findUpstream(inputs, comm.KindSQL)
			linked := 1.0
			faithful := ok // grounded in the upstream DSL when available
			var spec *dsl.Spec
			if ok {
				if s, perr := parseEmbeddedDSL(upstream.Content); perr == nil {
					spec = s
				}
			}
			if spec == nil {
				// No structured upstream (ablations): retranslate from
				// scratch with weaker linkage. The narrative still holds
				// the needed facts, so fidelity follows the usual silent-
				// error model rather than hard-failing.
				linked = 0.9
				var err error
				spec, _, err = a.rt.TranslateDSL(query, a.table, fmt.Sprintf("chart|%s#%d", query, attempt),
					a.rt.Client.Profile().VisLiteracy, 0)
				if err != nil {
					return comm.Info{}, false, err
				}
				faithful = a.faithfulDraw("ground", query, a.rt.Client.Profile().VisLiteracy,
					a.rt.Quality(linked, 0))
			}
			if spec.ChartType == "" {
				spec.ChartType = "bar"
			}
			chart, err := spec.ToChart()
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("chart agent: %w", err)
			}
			_, res, err := a.rt.ExecuteSQL(spec)
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("chart agent: data fetch failed: %w", err)
			}
			rendered, err := viz.Render(chart, res)
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("chart agent: render failed: %w", err)
			}
			q := a.contextQuality(inputs, 1, attempt, linked)
			if !a.draw("render", query, attempt, a.rt.Client.Profile().VisLiteracy, q) {
				return comm.Info{}, false, fmt.Errorf("chart agent: produced an illegal specification")
			}
			_ = rendered
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "generate_chart",
				Description: "rendered a " + string(chart.Mark) + " chart for: " + query,
				Content:     chart.JSON(),
				Kind:        comm.KindChart,
			}, faithful, nil
		},
	}
}

// parseEmbeddedDSL recovers the DSL spec a SQL agent embeds in its unit.
// The unit carries a data preview after the JSON, so decoding stops at
// the end of the first JSON value.
func parseEmbeddedDSL(content string) (*dsl.Spec, error) {
	i := strings.Index(content, "-- dsl: ")
	if i < 0 {
		return nil, fmt.Errorf("agent: no embedded DSL")
	}
	dec := json.NewDecoder(strings.NewReader(content[i+len("-- dsl: "):]))
	var s dsl.Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("agent: bad embedded DSL: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// newAnalysisAgent abstracts the three §VII-D analysis specialists:
// anomaly detection, causal analysis, forecasting. Each consumes the
// upstream data unit and runs its statistical tool over the target table.
func newAnalysisAgent(rt *Runtime, tableName, name, action string,
	analyze func(*Runtime, *table.Table, string) (string, error)) *BIAgent {
	return &BIAgent{
		name:  name,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.Reasoning },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			t, ok := a.rt.Catalog.Table(a.table)
			if !ok {
				return comm.Info{}, false, fmt.Errorf("%s: unknown table %q", a.name, a.table)
			}
			result, err := analyze(a.rt, t, query)
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("%s: %w", a.name, err)
			}
			_, hasUpstream := findUpstream(inputs, comm.KindSQL)
			linked := 1.0
			if !hasUpstream && len(inputs) == 0 {
				linked = 0.85 // missing grounding data context
			}
			q := a.contextQuality(inputs, 1, attempt, linked)
			if !a.draw("analyze", query, attempt, a.rt.Client.Profile().Reasoning, q) {
				return comm.Info{}, false, fmt.Errorf("%s: reasoning went off the rails", a.name)
			}
			faithful := a.faithfulDraw("analyze", query, a.rt.Client.Profile().Reasoning, q)
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      action,
				Description: a.name + " completed for: " + query,
				Content:     result,
				Kind:        comm.KindText,
			}, faithful, nil
		},
	}
}

// NewAnomalyAgent detects outliers in the first numeric column.
func NewAnomalyAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameAnomaly, "detect_anomalies",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			col := targetColumn(t, query)
			if col == "" {
				return "", fmt.Errorf("no numeric column to scan")
			}
			anoms, err := insight.DetectAnomalies(t, col, insight.MethodZScore, 3)
			if err != nil {
				return "", err
			}
			if len(anoms) == 0 {
				return fmt.Sprintf("no anomalies detected in %s at |z|>=3", col), nil
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d anomalies in %s:", len(anoms), col)
			for i, an := range anoms {
				if i == 3 {
					break
				}
				fmt.Fprintf(&sb, " row %d value %.4g (z=%.1f);", an.Row, an.Value, an.Score)
			}
			return sb.String(), nil
		})
}

// NewCausalAgent scans for (lagged) associations between numeric columns.
func NewCausalAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameCausal, "causal_analysis",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			findings := insight.CausalAnalysis(t, 3, 0.6)
			if len(findings) == 0 {
				return "no strong associations between numeric columns", nil
			}
			var parts []string
			for i, f := range findings {
				if i == 3 {
					break
				}
				parts = append(parts, f.Describe())
			}
			return strings.Join(parts, " "), nil
		})
}

// NewForecastAgent projects the first numeric column forward.
func NewForecastAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameForecast, "forecast_timeseries",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			col := targetColumn(t, query)
			if col == "" {
				return "", fmt.Errorf("no numeric column to forecast")
			}
			fc, err := insight.ForecastColumn(t, col, 3)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("forecast for %s over next 3 periods: %.4g, %.4g, %.4g", col, fc[0], fc[1], fc[2]), nil
		})
}

// NewEDAAgent summarizes exploratory findings.
func NewEDAAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameEDA, "exploratory_analysis",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			ins := insight.EDA(t)
			if len(ins) == 0 {
				return "the table is too small for distributional findings", nil
			}
			return insight.Summarize(ins, 5), nil
		})
}

// NewInsightAgent synthesizes the upstream agents' outputs into a final
// narrative (the NL2Insight terminal step).
func NewInsightAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameInsight,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.Reasoning },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			var parts []string
			for _, u := range inputs {
				if u.Content != "" && u.Kind == comm.KindText {
					parts = append(parts, u.Content)
				}
			}
			t, ok := a.rt.Catalog.Table(a.table)
			if ok && len(parts) == 0 {
				parts = append(parts, insight.Summarize(insight.EDA(t), 3))
			}
			linked := 1.0
			if len(parts) == 0 {
				linked = 0.6
			}
			q := a.contextQuality(inputs, 2, attempt, linked)
			if !a.draw("synthesize", query, attempt, a.rt.Client.Profile().Reasoning, q) {
				return comm.Info{}, false, fmt.Errorf("insight agent: synthesis incoherent")
			}
			faithful := a.faithfulDraw("synthesize", query, a.rt.Client.Profile().Reasoning, q)
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "synthesize_insights",
				Description: "synthesized findings for: " + query,
				Content:     strings.Join(parts, " "),
				Kind:        comm.KindText,
			}, faithful, nil
		},
	}
}

// NewCleaningAgent drops rows with nulls in any column (the standard
// preparation step) and reports what it did.
func NewCleaningAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameCleaning, "clean_data",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			clean := t.Filter(func(row int) bool {
				for j := range t.Columns {
					if t.Columns[j].IsNullAt(row) {
						return false
					}
				}
				return true
			})
			dropped := t.NumRows() - clean.NumRows()
			clean.Name = t.Name + "_clean"
			if err := rt.Catalog.RegisterErr(clean); err != nil {
				return "", fmt.Errorf("register %s: %w", clean.Name, err)
			}
			return fmt.Sprintf("dropped %d incomplete rows; registered %s", dropped, clean.Name), nil
		})
}

// NewImputationAgent fills numeric nulls with the column mean.
func NewImputationAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameImpute, "impute_missing",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			imputed := t.Clone()
			imputed.Name = t.Name + "_imputed"
			filled := 0
			for j := range imputed.Columns {
				c := &imputed.Columns[j]
				if c.Kind != table.KindFloat && c.Kind != table.KindInt {
					continue
				}
				var sum float64
				var n int
				for i, m := 0, c.Len(); i < m; i++ {
					if f, okf := c.FloatAt(i); okf {
						sum += f
						n++
					}
				}
				if n == 0 {
					continue
				}
				m := sum / float64(n)
				for i, cl := 0, c.Len(); i < cl; i++ {
					if c.IsNullAt(i) {
						c.Set(i, table.Float(m).Coerce(c.Kind))
						filled++
					}
				}
			}
			if err := rt.Catalog.RegisterErr(imputed); err != nil {
				return "", fmt.Errorf("register %s: %w", imputed.Name, err)
			}
			return fmt.Sprintf("imputed %d missing numeric cells with column means; registered %s", filled, imputed.Name), nil
		})
}

// NewReportAgent drafts a structured report from everything upstream.
func NewReportAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameReport,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.InstructionFollowing },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			var sb strings.Builder
			sb.WriteString("# Analysis Report\n\n")
			fmt.Fprintf(&sb, "Question: %s\n\n", query)
			for _, u := range inputs {
				fmt.Fprintf(&sb, "## %s\n%s\n\n", u.Role, u.Description)
			}
			q := a.contextQuality(inputs, len(inputs), attempt, 1)
			if !a.draw("report", query, attempt, a.rt.Client.Profile().InstructionFollowing, q) {
				return comm.Info{}, false, fmt.Errorf("report agent: draft failed review")
			}
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "generate_report",
				Description: "drafted the final report",
				Content:     sb.String(),
				Kind:        comm.KindText,
			}, true, nil
		},
	}
}

// NewChartQAAgent answers questions about an upstream chart.
func NewChartQAAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameChartQA,
		rt:    rt,
		table: tableName,
		skill: func(p llm.Profile) float64 { return p.VisLiteracy },
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (comm.Info, bool, error) {
			up, ok := findUpstream(inputs, comm.KindChart)
			if !ok {
				return comm.Info{}, false, fmt.Errorf("chart qa agent: no chart in context")
			}
			spec, err := viz.ParseSpec(up.Content)
			if err != nil {
				return comm.Info{}, false, fmt.Errorf("chart qa agent: unreadable chart: %w", err)
			}
			answer := fmt.Sprintf("the chart is a %s mark over %d channels", spec.Mark, len(spec.Encoding))
			q := a.contextQuality(inputs, 1, attempt, 1)
			if !a.draw("qa", query, attempt, a.rt.Client.Profile().VisLiteracy, q) {
				return comm.Info{}, false, fmt.Errorf("chart qa agent: misread the chart")
			}
			return comm.Info{
				DataSource:  a.table,
				Role:        a.name,
				Action:      "answer_chart_question",
				Description: "answered a question about the chart",
				Content:     answer,
				Kind:        comm.KindText,
			}, true, nil
		},
	}
}

// NewMLAgent fits the simple regression/forecast models data scientists
// reach for first.
func NewMLAgent(rt *Runtime, tableName string) *BIAgent {
	return newAnalysisAgent(rt, tableName, NameML, "fit_model",
		func(rt *Runtime, t *table.Table, query string) (string, error) {
			col := targetColumn(t, query)
			if col == "" {
				return "", fmt.Errorf("no numeric target to model")
			}
			fc, err := insight.ForecastColumn(t, col, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("fitted a trend model on %s; next-period estimate %.4g", col, fc[0]), nil
		})
}

func firstNumericColumn(t *table.Table) string {
	for _, c := range t.Columns {
		if c.Kind == table.KindFloat || c.Kind == table.KindInt {
			return c.Name
		}
	}
	return ""
}

// targetColumn picks the numeric column the query talks about, falling
// back to the first numeric column.
func targetColumn(t *table.Table, query string) string {
	qTokens := textutil.ContentTokens(query)
	best, bestScore := "", 0.0
	for _, c := range t.Columns {
		if c.Kind != table.KindFloat && c.Kind != table.KindInt {
			continue
		}
		score := 0.0
		for _, nt := range textutil.ContentTokens(c.Name) {
			for _, qt := range qTokens {
				if nt == qt || (len(nt) >= 3 && len(qt) >= 3 &&
					(strings.HasPrefix(nt, qt[:3]) || strings.HasPrefix(qt, nt[:3]))) {
					score++
				}
			}
		}
		if score > bestScore {
			best, bestScore = c.Name, score
		}
	}
	if best == "" {
		return firstNumericColumn(t)
	}
	return best
}
