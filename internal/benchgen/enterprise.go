package benchgen

import (
	"fmt"
	"strings"

	"datalab/internal/dsl"
	"datalab/internal/knowledge"
	"datalab/internal/llm"
	"datalab/internal/table"
)

// columnTemplate is one cryptic warehouse column with its expert-known
// meaning — the raw material for enterprise schema synthesis.
type columnTemplate struct {
	cryptic string
	meaning string // the expert ground-truth description
	aliasIn string // how the meaning shows up as a script alias
	typ     string
	role    string // measure | dimension | time | id
	values  []string
}

var columnPool = []columnTemplate{
	{"shouldincome_after", "income after tax", "income_after_tax", "double", "measure", nil},
	{"gmv_val", "gross merchandise value", "gross_merchandise_value", "double", "measure", nil},
	{"cost_amt_rt", "operating cost amount", "operating_cost_amount", "double", "measure", nil},
	{"dau_cnt", "daily active users", "daily_active_users", "bigint", "measure", nil},
	{"vv_cnt", "video view count", "video_view_count", "bigint", "measure", nil},
	{"rfnd_amt", "refund amount", "refund_amount", "double", "measure", nil},
	{"imp_cnt", "impression count", "impression_count", "bigint", "measure", nil},
	{"conv_val", "conversion value", "conversion_value", "double", "measure", nil},
	{"sub_day_cnt", "subscription day count", "subscription_day_count", "bigint", "measure", nil},
	{"prod_class4_name", "product line name", "product_line_name", "string", "dimension",
		[]string{"TencentBI", "TencentCloud", "TencentAds", "TencentGames"}},
	{"chl_id", "sales channel identifier", "sales_channel", "string", "dimension",
		[]string{"direct", "agency", "reseller"}},
	{"bg_cd", "business group code", "business_group", "string", "dimension",
		[]string{"TEG", "WXG", "IEG", "CSIG"}},
	{"cty_lvl", "city tier level", "city_tier", "string", "dimension",
		[]string{"tier1", "tier2", "tier3"}},
	{"ftime", "partition date", "partition_date", "date", "time", nil},
	{"stat_dt", "statistics date", "statistics_date", "date", "time", nil},
	{"uin", "user identifier", "user_identifier", "bigint", "id", nil},
	{"oid_seq", "order sequence identifier", "order_sequence", "bigint", "id", nil},
}

// EnterpriseTable is one synthetic warehouse table with everything the
// knowledge pipeline consumes and everything evaluation needs.
type EnterpriseTable struct {
	Schema  knowledge.TableSchema
	Data    *table.Table
	Scripts []knowledge.Script
	Lineage []knowledge.LineageEdge
	// Expert ground truth (the paper's domain-expert annotations).
	ExpertTableDesc  string
	ExpertColumnDesc map[string]string
	// column roles for query synthesis
	measures, dimensions, timeCols []columnTemplate
}

// Jargon returns the enterprise glossary shared by all tables.
func Jargon() []knowledge.JargonEntry {
	return []knowledge.JargonEntry{
		{Term: "ARPU", Definition: "average revenue per user", Aliases: []string{"arppu", "avg revenue per user"}},
		{Term: "GMV", Definition: "gross merchandise value", Aliases: []string{"merch value"},
			MapsToColumn: "gmv_val"},
		{Term: "DAU", Definition: "daily active users", Aliases: []string{"daily actives"},
			MapsToColumn: "dau_cnt"},
		{Term: "income", Definition: "income after tax, the shouldincome_after column",
			MapsToColumn: "shouldincome_after"},
		{Term: "refunds", Definition: "refund amount paid back to customers",
			MapsToColumn: "rfnd_amt"},
	}
}

// GenerateEnterprise synthesizes nTables warehouse tables with script
// history, lineage, data, and expert annotations.
func GenerateEnterprise(seed string, nTables int) []EnterpriseTable {
	rng := llm.NewRand("enterprise:" + seed)
	out := make([]EnterpriseTable, 0, nTables)
	for i := 0; i < nTables; i++ {
		out = append(out, generateEnterpriseTable(i, rng))
	}
	// Lineage edges connect consecutive tables (downstream summaries).
	for i := 1; i < len(out); i++ {
		prev := &out[i-1]
		cur := &out[i]
		if len(prev.measures) > 0 && len(cur.measures) > 0 {
			cur.Lineage = append(cur.Lineage, knowledge.LineageEdge{
				FromTable:  prev.Schema.Name,
				FromColumn: prev.measures[0].cryptic,
				ToTable:    cur.Schema.Name,
				ToColumn:   cur.measures[0].cryptic,
				Transform:  "daily aggregation",
			})
		}
	}
	return out
}

func generateEnterpriseTable(idx int, rng *llm.Rand) EnterpriseTable {
	name := fmt.Sprintf("%d_business_tab_%02d", 20+idx, idx)
	et := EnterpriseTable{
		ExpertColumnDesc: map[string]string{},
	}

	// Sample 6-10 distinct columns: >=2 measures, >=2 dims, 1 time, 1 id.
	pick := func(role string, n int) []columnTemplate {
		var pool []columnTemplate
		for _, c := range columnPool {
			if c.role == role {
				pool = append(pool, c)
			}
		}
		perm := rng.Perm(len(pool))
		var out []columnTemplate
		for _, p := range perm {
			if len(out) == n {
				break
			}
			out = append(out, pool[p])
		}
		return out
	}
	et.measures = pick("measure", 2+rng.Intn(2))
	et.dimensions = pick("dimension", 2+rng.Intn(2))
	et.timeCols = pick("time", 1)
	ids := pick("id", 1)

	var cols []columnTemplate
	cols = append(cols, ids...)
	cols = append(cols, et.dimensions...)
	cols = append(cols, et.measures...)
	cols = append(cols, et.timeCols...)

	et.Schema = knowledge.TableSchema{Database: "sales_db", Name: name}
	names := make([]string, 0, len(cols))
	kinds := make([]table.Kind, 0, len(cols))
	for _, c := range cols {
		et.Schema.Columns = append(et.Schema.Columns, knowledge.ColumnSchema{Name: c.cryptic, Type: c.typ})
		et.ExpertColumnDesc[c.cryptic] = c.meaning
		names = append(names, c.cryptic)
		kinds = append(kinds, kindFor(c.typ))
	}
	et.ExpertTableDesc = fmt.Sprintf("business table tracking %s by %s",
		et.measures[0].meaning, et.dimensions[0].meaning)

	// Physical data.
	et.Data = table.MustNew(name, names, kinds)
	rows := 60 + rng.Intn(60)
	for r := 0; r < rows; r++ {
		vals := make([]table.Value, len(cols))
		for ci, c := range cols {
			switch c.role {
			case "id":
				vals[ci] = table.Int(int64(100000 + r))
			case "dimension":
				vals[ci] = table.Str(c.values[rng.Intn(len(c.values))])
			case "measure":
				f := float64(100+rng.Intn(9900)) + rng.Float64()
				if kinds[ci] == table.KindInt {
					vals[ci] = table.Int(int64(f))
				} else {
					vals[ci] = table.Float(f)
				}
			case "time":
				vals[ci] = table.Str(fmt.Sprintf("%d-%02d-%02d", 2022+rng.Intn(3), 1+rng.Intn(12), 1+rng.Intn(28)))
			}
		}
		et.Data.MustAppendRow(vals...)
	}

	// Script history: the semantic bridge. Aliases carry the meanings.
	et.Scripts = enterpriseScripts(name, et, rng)
	return et
}

func kindFor(typ string) table.Kind {
	switch typ {
	case "double":
		return table.KindFloat
	case "bigint":
		return table.KindInt
	case "date":
		return table.KindTime
	default:
		return table.KindString
	}
}

func enterpriseScripts(name string, et EnterpriseTable, rng *llm.Rand) []knowledge.Script {
	m0 := et.measures[0]
	d0 := et.dimensions[0]
	tc := et.timeCols[0]
	var scripts []knowledge.Script

	scripts = append(scripts, knowledge.Script{
		ID:       name + "/daily_report.sql",
		Language: knowledge.LangSQL,
		Text: fmt.Sprintf(`-- daily %s report by %s
SELECT %s AS %s,
       SUM(%s) AS %s,
       SUM(%s) / COUNT(%s) AS avg_%s
FROM %s
WHERE %s BETWEEN '2024-01-01' AND '2024-12-31' AND %s = '%s'
GROUP BY %s`,
			m0.meaning, d0.meaning,
			d0.cryptic, d0.aliasIn,
			m0.cryptic, m0.aliasIn,
			m0.cryptic, m0.cryptic, m0.aliasIn,
			name,
			tc.cryptic, d0.cryptic, d0.values[0],
			d0.cryptic),
	})

	if len(et.measures) > 1 {
		m1 := et.measures[1]
		scripts = append(scripts, knowledge.Script{
			ID:       name + "/margin.sql",
			Language: knowledge.LangSQL,
			Text: fmt.Sprintf(`-- derived margin metric combining %s and %s
SELECT %s AS %s, %s AS %s,
       %s - %s AS net_margin
FROM %s`,
				m0.meaning, m1.meaning,
				m0.cryptic, m0.aliasIn, m1.cryptic, m1.aliasIn,
				m0.cryptic, m1.cryptic,
				name),
		})
	}

	// Preprocessing scripts rename the columns analysts actually touch —
	// roughly 85% in practice; the rest stay cryptic (the paper's finding
	// that knowledge stays incomplete for a share of columns).
	var renames []string
	for _, c := range et.Schema.Columns {
		if rng.Float64() > 0.85 {
			continue
		}
		meaning := et.ExpertColumnDesc[c.Name]
		renames = append(renames, fmt.Sprintf("%q: %q", c.Name, meaning))
	}
	scripts = append(scripts, knowledge.Script{
		ID:       name + "/preprocess.py",
		Language: knowledge.LangPython,
		Text: fmt.Sprintf(`# preprocessing for %s
df = df.rename(columns={%s})
out = df.groupby("%s").agg({"%s": "sum"})
mask = df["%s"] == "%s"`,
			name,
			strings.Join(renames, ", "),
			d0.cryptic, m0.cryptic,
			d0.cryptic, d0.values[rng.Intn(len(d0.values))]),
	})
	return scripts
}

// LinkingPair is one schema-linking evaluation item: an NL query plus the
// cryptic columns a correct linker must surface.
type LinkingPair struct {
	Query    string
	Table    string
	Relevant []string
}

// SchemaLinkingPairs derives n query-table-column triples from the
// corpus (the paper's 439-pair dataset analogue).
func SchemaLinkingPairs(tables []EnterpriseTable, n int, seed string) []LinkingPair {
	rng := llm.NewRand("linking:" + seed)
	var out []LinkingPair
	for i := 0; i < n; i++ {
		et := tables[rng.Intn(len(tables))]
		m := et.measures[rng.Intn(len(et.measures))]
		d := et.dimensions[rng.Intn(len(et.dimensions))]
		tmpl := rng.Intn(4)
		var q string
		relevant := []string{m.cryptic, d.cryptic}
		switch tmpl {
		case 0:
			q = fmt.Sprintf("total %s by %s", m.meaning, d.meaning)
		case 1:
			q = fmt.Sprintf("show the %s for each %s this year", m.meaning, d.meaning)
		case 2:
			q = fmt.Sprintf("which %s has the highest %s", d.meaning, m.meaning)
		default:
			// Derived-metric vocabulary: only the full knowledge setting
			// carries net_margin's relationship to its base measure.
			if len(et.measures) > 1 {
				q = fmt.Sprintf("net margin for each %s", d.meaning)
				relevant = []string{et.measures[0].cryptic, d.cryptic}
			} else {
				q = fmt.Sprintf("total %s by %s", m.meaning, d.meaning)
			}
		}
		out = append(out, LinkingPair{
			Query:    q,
			Table:    et.Schema.Name,
			Relevant: relevant,
		})
	}
	return out
}

// DSLPair is one NL2DSL evaluation item.
type DSLPair struct {
	Query string
	Table string
	Gold  *dsl.Spec
	// NeedsDerived marks items whose gold answer requires derived-column
	// calculation logic (only LevelFull knowledge can solve these — the
	// S2 vs S3 gap of Table II).
	NeedsDerived bool
}

// NL2DSLPairs derives n query-DSL pairs (the 326-pair dataset analogue).
// Roughly a third require derived-column knowledge.
func NL2DSLPairs(tables []EnterpriseTable, n int, seed string) []DSLPair {
	rng := llm.NewRand("nl2dsl:" + seed)
	var out []DSLPair
	for i := 0; i < n; i++ {
		et := tables[rng.Intn(len(tables))]
		m := et.measures[rng.Intn(len(et.measures))]
		d := et.dimensions[rng.Intn(len(et.dimensions))]
		gold := &dsl.Spec{Table: et.Schema.Name}
		p := DSLPair{Table: et.Schema.Name}
		if len(et.measures) > 1 && rng.Float64() < 0.33 {
			// Derived metric question: net margin = m0 - m1.
			p.Query = fmt.Sprintf("net margin by %s", d.meaning)
			gold.MeasureList = []dsl.Measure{{Column: "net_margin", Aggregate: "sum", Alias: "net_margin"}}
			gold.DimensionList = []string{d.cryptic}
			p.NeedsDerived = true
		} else {
			p.Query = fmt.Sprintf("total %s by %s", m.meaning, d.meaning)
			gold.MeasureList = []dsl.Measure{{Column: m.cryptic, Aggregate: "sum"}}
			gold.DimensionList = []string{d.cryptic}
		}
		p.Gold = gold
		out = append(out, p)
	}
	return out
}

// ComplexQuestion is one multi-agent evaluation item for Table III.
type ComplexQuestion struct {
	ID    string
	Query string
	Table string
}

// ComplexQuestions derives n multi-step questions, each requiring at
// least three agents (SQL + two analyses + synthesis), mirroring the 100
// real-world questions of §VII-D.
func ComplexQuestions(tables []EnterpriseTable, n int, seed string) []ComplexQuestion {
	rng := llm.NewRand("complex:" + seed)
	intents := []string{
		"find anomalies in %s, explain why they happen, and plot %s by %s",
		"forecast %s for next month, check for unusual spikes, and summarize the insights by %s over %s",
		"analyze the correlation drivers of %s, detect outliers, and draw a chart of %s by %s",
		"detect anomalies in %s and forecast the trend, then report the analysis of %s by %s",
	}
	var out []ComplexQuestion
	for i := 0; i < n; i++ {
		et := tables[rng.Intn(len(tables))]
		m := et.measures[rng.Intn(len(et.measures))]
		d := et.dimensions[rng.Intn(len(et.dimensions))]
		tmpl := intents[rng.Intn(len(intents))]
		out = append(out, ComplexQuestion{
			ID:    fmt.Sprintf("cq-%03d", i),
			Query: fmt.Sprintf(tmpl, m.meaning, m.meaning, d.meaning),
			Table: et.Schema.Name,
		})
	}
	return out
}
