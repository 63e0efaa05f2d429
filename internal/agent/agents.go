package agent

import (
	"errors"
	"fmt"
	"strings"

	"datalab/internal/comm"
	"datalab/internal/dsl"
	"datalab/internal/insight"
	"datalab/internal/llm"
	"datalab/internal/sqlengine"
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
	NameAnomaly  = "Anomaly Detection Agent"
	NameCausal   = "Causal Analysis Agent"
	NameForecast = "Forecasting Agent"
	NameChart    = "Chart Generation Agent"
)

// BIAgent is one specialized agent: a named pipeline over the shared
// runtime. It implements comm.Agent.
type BIAgent struct {
	name  string
	rt    *Runtime
	table string
	// skill is the capability the agent draws on, under the runtime's
	// model profile.
	skill float64
	// run is the agent's pipeline up to its product; Execute finishes it.
	run func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error)

	// faithful records whether the last successful execution produced a
	// semantically correct result. It is evaluation instrumentation: the
	// simulator knows when it injected an error, and the accuracy metrics
	// read this instead of re-deriving gold answers for every task.
	faithful bool
}

// step is what a pipeline hands Execute: its product and what the
// simulator needs to decide whether the call succeeded.
type step struct {
	// unit carries Action, Description, Content, Kind and Payload;
	// Execute adds DataSource and Role.
	unit comm.Info
	// needed is how many forwarded units the subtask uses (any more are
	// distraction) and linked how completely its schema was linked.
	needed int
	linked float64
	// coin names the residual-error draw; failure is the error the agent
	// reports when the draw fails.
	coin, failure string
	// faithful is whether the product is semantically correct, where the
	// pipeline knows; where it cannot (silent), Execute draws it with the
	// coin's kind and quality.
	faithful, silent bool
}

// SQLPayload is the SQL agent's typed hand-off (comm.Info.Payload): the
// spec it translated, the statement the spec compiled to and that
// statement's result, executed once. Result is an unread cursor; an agent
// that needs the rows takes Result.Table, which does not move it.
type SQLPayload struct {
	Spec   *dsl.Spec
	SQL    string
	Result *sqlengine.Result
}

// Name implements comm.Agent.
func (a *BIAgent) Name() string { return a.name }

// Faithful reports whether the last successful execution was correct.
func (a *BIAgent) Faithful() bool { return a.faithful }

// Execute implements comm.Agent: the agent's pipeline, then the residual-
// error draw every agent's call is subject to.
func (a *BIAgent) Execute(query string, inputs []comm.Info, attempt int) (comm.Info, error) {
	st, err := a.run(a, query, inputs, attempt)
	if err != nil {
		return comm.Info{}, err
	}
	q := a.contextQuality(inputs, st.needed, st.linked)
	if !a.draw(st.coin, query, attempt, a.skill, q) {
		return comm.Info{}, errors.New(st.failure)
	}
	a.faithful = st.faithful
	if st.silent {
		a.faithful = a.faithfulDraw(st.coin, query, a.skill, q)
	}
	st.unit.DataSource, st.unit.Role = a.table, a.name
	return st.unit, nil
}

// contextQuality derives the distraction/structure features from the
// units actually forwarded to this agent — this is where the Table III
// ablations bite mechanically. Retries reuse the same context, so quality
// does not improve with the attempt.
func (a *BIAgent) contextQuality(inputs []comm.Info, needed int, linked float64) llm.Quality {
	q := a.rt.Quality(linked, 0)
	if len(inputs) > needed {
		// Every unit beyond what the subtask needs is pure distraction;
		// §V's error analysis ties most failures to plans with >3 agents
		// flooding each other without the FSM.
		q.Distraction = min(1, q.Distraction+float64(len(inputs)-needed)/float64(needed+2))
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
// Its unit's Content is the statement; spec and result ride as SQLPayload.
func NewSQLAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameSQL,
		rt:    rt,
		table: tableName,
		skill: rt.Client.Profile().SQLGeneration,
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error) {
			key := fmt.Sprintf("%s#%d", query, attempt)
			spec, faithful, err := a.rt.TranslateDSL(query, a.table, key, a.skill, attempt)
			if err != nil {
				return step{}, err
			}
			if err := spec.Validate(); err != nil {
				return step{}, fmt.Errorf("sql agent: invalid DSL: %w", err)
			}
			sql, res, err := a.rt.ExecuteSQL(spec)
			if err != nil {
				return step{}, fmt.Errorf("sql agent: execution failed: %w", err)
			}
			return step{
				unit: comm.Info{
					Action:      "generate_sql_query",
					Description: "translated the request into SQL and executed it: " + spec.Intent,
					Content:     sql,
					Kind:        comm.KindSQL,
					Payload:     SQLPayload{Spec: spec, SQL: sql, Result: res},
				},
				needed: 0, linked: 1,
				coin: "exec", failure: "sql agent: generated query failed sanity checks",
				faithful: faithful,
			}, nil
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
		skill: rt.Client.Profile().CodeGeneration,
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error) {
			key := fmt.Sprintf("dscode|%s#%d", query, attempt)
			spec, faithful, err := a.rt.TranslateDSL(query, a.table, key, a.skill, attempt)
			if err != nil {
				return step{}, err
			}
			return step{
				unit: comm.Info{
					Action:      "generate_ds_code",
					Description: "wrote and ran data-science code for: " + spec.Intent,
					Content:     pandasProgram(spec),
					Kind:        comm.KindCode,
				},
				needed: 1, linked: 1,
				coin: "exec", failure: "dscode agent: generated code raised an exception",
				faithful: faithful,
			}, nil
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

// NewChartAgent builds the NL2VIS specialist: it takes the upstream SQL
// agent's spec and rows off its unit, compiles a chart spec, and renders
// it against them.
func NewChartAgent(rt *Runtime, tableName string) *BIAgent {
	return &BIAgent{
		name:  NameChart,
		rt:    rt,
		table: tableName,
		skill: rt.Client.Profile().VisLiteracy,
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error) {
			upstream, _ := findUpstream(inputs, comm.KindSQL)
			up, grounded := upstream.Payload.(SQLPayload)
			linked, faithful := 1.0, true // grounded in the upstream DSL when available
			var spec *dsl.Spec
			res := up.Result
			if grounded {
				own := *up.Spec // the chart type below is this agent's, not upstream's
				spec = &own
			} else {
				// No structured upstream (ablations): retranslate from
				// scratch with weaker linkage. The narrative still holds
				// the needed facts, so fidelity follows the usual silent-
				// error model rather than hard-failing.
				linked = 0.9
				var err error
				spec, _, err = a.rt.TranslateDSL(query, a.table, fmt.Sprintf("chart|%s#%d", query, attempt), a.skill, 0)
				if err != nil {
					return step{}, err
				}
				faithful = a.faithfulDraw("ground", query, a.skill, a.rt.Quality(linked, 0))
			}
			if spec.ChartType == "" {
				spec.ChartType = "bar"
			}
			chart, err := spec.ToChart()
			if err != nil {
				return step{}, fmt.Errorf("chart agent: %w", err)
			}
			if !grounded {
				if _, res, err = a.rt.ExecuteSQL(spec); err != nil {
					return step{}, fmt.Errorf("chart agent: data fetch failed: %w", err)
				}
			}
			if _, err := viz.Render(chart, res.Table(spec.Table)); err != nil {
				return step{}, fmt.Errorf("chart agent: render failed: %w", err)
			}
			return step{
				unit: comm.Info{
					Action:      "generate_chart",
					Description: "rendered a " + string(chart.Mark) + " chart for: " + query,
					Content:     chart.JSON(),
					Kind:        comm.KindChart,
				},
				needed: 1, linked: linked,
				coin: "render", failure: "chart agent: produced an illegal specification",
				faithful: faithful,
			}, nil
		},
	}
}

// newAnalysisAgent abstracts the three §VII-D analysis specialists:
// anomaly detection, causal analysis, forecasting. Each consumes the
// upstream data unit and runs its statistical tool over the target table.
func newAnalysisAgent(rt *Runtime, tableName, name, action string,
	analyze func(*Runtime, *table.Table, string) (string, error)) *BIAgent {
	failure := name + ": reasoning went off the rails"
	return &BIAgent{
		name:  name,
		rt:    rt,
		table: tableName,
		skill: rt.Client.Profile().Reasoning,
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error) {
			t, ok := a.rt.Catalog.Table(a.table)
			if !ok {
				return step{}, fmt.Errorf("%s: unknown table %q", a.name, a.table)
			}
			result, err := analyze(a.rt, t, query)
			if err != nil {
				return step{}, fmt.Errorf("%s: %w", a.name, err)
			}
			linked := 1.0
			if len(inputs) == 0 {
				linked = 0.85 // missing grounding data context
			}
			return step{
				unit: comm.Info{
					Action:      action,
					Description: a.name + " completed for: " + query,
					Content:     result,
					Kind:        comm.KindText,
				},
				needed: 1, linked: linked,
				coin: "analyze", failure: failure,
				silent: true,
			}, nil
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
		skill: rt.Client.Profile().Reasoning,
		run: func(a *BIAgent, query string, inputs []comm.Info, attempt int) (step, error) {
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
			return step{
				unit: comm.Info{
					Action:      "synthesize_insights",
					Description: "synthesized findings for: " + query,
					Content:     strings.Join(parts, " "),
					Kind:        comm.KindText,
				},
				needed: 2, linked: linked,
				coin: "synthesize", failure: "insight agent: synthesis incoherent",
				silent: true,
			}, nil
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
