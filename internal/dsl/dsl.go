// Package dsl defines the domain-specific language DataLab translates NL
// queries into (§IV-C). A DSL specification names the relevant data and
// processing requirements — measures, dimensions, conditions — and compiles
// by fixed rules to SQL or to a chart specification, or seeds free-form
// code generation for complex tasks.
package dsl

import (
	"encoding/json"
	"fmt"
	"strings"

	"datalab/internal/viz"
)

// Measure is one numeric output: a column plus an aggregate.
type Measure struct {
	Column    string `json:"column"`
	Aggregate string `json:"aggregate"` // sum, avg, count, min, max, median
	Alias     string `json:"alias,omitempty"`
}

// Condition is one filter predicate.
type Condition struct {
	Column   string   `json:"column"`
	Operator string   `json:"operator"` // =, !=, >, >=, <, <=, like, in, between
	Value    string   `json:"value"`
	Value2   string   `json:"value2,omitempty"` // upper bound for between
	Values   []string `json:"values,omitempty"` // operands for in
}

// OrderBy is one output ordering criterion.
type OrderBy struct {
	Column string `json:"column"` // output column or measure alias
	Desc   bool   `json:"desc,omitempty"`
}

// Spec is the full DSL specification for one analytic request.
type Spec struct {
	Intent        string      `json:"intent,omitempty"` // free-text restatement
	Table         string      `json:"table"`
	MeasureList   []Measure   `json:"MeasureList"`
	DimensionList []string    `json:"DimensionList"`
	ConditionList []Condition `json:"ConditionList,omitempty"`
	OrderByList   []OrderBy   `json:"OrderByList,omitempty"`
	Limit         int         `json:"Limit,omitempty"`
	ChartType     string      `json:"ChartType,omitempty"` // bar, line, point, arc, area
}

// validAggregates and validOperators implement the JSON-Schema-style
// validation of §IV-C: generated specs are checked for syntactic and
// semantic correctness before use.
var validAggregates = map[string]bool{
	"sum": true, "avg": true, "mean": true, "count": true,
	"min": true, "max": true, "median": true, "": true,
}

var validOperators = map[string]bool{
	"=": true, "!=": true, ">": true, ">=": true, "<": true, "<=": true,
	"like": true, "in": true, "between": true,
}

// Validate checks structural and semantic legality of the spec.
func (s *Spec) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("dsl: missing table")
	}
	if len(s.MeasureList) == 0 && len(s.DimensionList) == 0 {
		return fmt.Errorf("dsl: spec selects nothing (no measures or dimensions)")
	}
	for i, m := range s.MeasureList {
		if m.Column == "" {
			return fmt.Errorf("dsl: measure %d has no column", i)
		}
		if !validAggregates[strings.ToLower(m.Aggregate)] {
			return fmt.Errorf("dsl: measure %d has invalid aggregate %q", i, m.Aggregate)
		}
	}
	for i, d := range s.DimensionList {
		if d == "" {
			return fmt.Errorf("dsl: dimension %d is empty", i)
		}
	}
	for i, c := range s.ConditionList {
		if c.Column == "" {
			return fmt.Errorf("dsl: condition %d has no column", i)
		}
		op := strings.ToLower(c.Operator)
		if !validOperators[op] {
			return fmt.Errorf("dsl: condition %d has invalid operator %q", i, c.Operator)
		}
		if op == "between" && (c.Value == "" || c.Value2 == "") {
			return fmt.Errorf("dsl: condition %d: between needs two bounds", i)
		}
		if op == "in" && len(c.Values) == 0 {
			return fmt.Errorf("dsl: condition %d: in needs values", i)
		}
	}
	if s.ChartType != "" && !viz.ValidMark(viz.Mark(s.ChartType)) {
		return fmt.Errorf("dsl: invalid chart type %q", s.ChartType)
	}
	if s.Limit < 0 {
		return fmt.Errorf("dsl: negative limit")
	}
	return nil
}

// JSON renders the spec as indented JSON (the wire format agents exchange).
func (s *Spec) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// measureSQL renders one measure as a SQL select item.
func measureSQL(m Measure) (expr, name string) {
	agg := strings.ToUpper(m.Aggregate)
	if agg == "MEAN" {
		agg = "AVG"
	}
	name = m.Alias
	if agg == "" {
		if name == "" {
			name = m.Column
		}
		return quoteIdent(m.Column), name
	}
	if name == "" {
		name = strings.ToLower(agg) + "_" + m.Column
	}
	return fmt.Sprintf("%s(%s)", agg, quoteIdent(m.Column)), name
}

// sqlReserved lists keywords that must be quoted when used as identifiers
// (business columns named "when", "order", "group" are common in practice).
var sqlReserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "as": true, "and": true,
	"or": true, "not": true, "in": true, "between": true, "like": true,
	"is": true, "null": true, "join": true, "inner": true, "left": true,
	"right": true, "full": true,
	"outer": true, "on": true, "asc": true, "desc": true, "distinct": true,
	"true": true, "false": true, "case": true, "when": true, "then": true,
	"else": true, "end": true, "offset": true,
	"over": true, "partition": true, "rows": true, "unbounded": true,
	"preceding": true, "current": true, "row": true,
}

func quoteIdent(s string) string {
	if s == "" {
		return "``"
	}
	if s[0] >= '0' && s[0] <= '9' {
		// Tencent-style table names like 23_customer_bg start with digits
		// and must be quoted to lex as identifiers.
		return "`" + s + "`"
	}
	if sqlReserved[strings.ToLower(s)] {
		return "`" + s + "`"
	}
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.') {
			return "`" + s + "`"
		}
	}
	return s
}

func sqlLiteral(v string) string {
	// Numbers pass through bare; everything else is quoted.
	if v == "" {
		return "''"
	}
	numeric := true
	dot := false
	for i, r := range v {
		if r == '-' && i == 0 {
			continue
		}
		if r == '.' && !dot {
			dot = true
			continue
		}
		if r < '0' || r > '9' {
			numeric = false
			break
		}
	}
	if numeric {
		return v
	}
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// ToSQL compiles the spec to a SELECT statement by the fixed rules the
// paper describes: dimensions become GROUP BY keys, measures become
// aggregates, conditions become WHERE predicates.
func (s *Spec) ToSQL() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	var items []string
	for _, d := range s.DimensionList {
		items = append(items, quoteIdent(d))
	}
	aliases := map[string]string{} // alias -> expression
	hasAgg := false
	for _, m := range s.MeasureList {
		expr, name := measureSQL(m)
		if expr != quoteIdent(m.Column) {
			hasAgg = true
		}
		items = append(items, fmt.Sprintf("%s AS %s", expr, quoteIdent(name)))
		aliases[name] = expr
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(quoteIdent(s.Table))

	if len(s.ConditionList) > 0 {
		var preds []string
		for _, c := range s.ConditionList {
			op := strings.ToLower(c.Operator)
			switch op {
			case "between":
				preds = append(preds, fmt.Sprintf("%s BETWEEN %s AND %s",
					quoteIdent(c.Column), sqlLiteral(c.Value), sqlLiteral(c.Value2)))
			case "in":
				vals := make([]string, len(c.Values))
				for i, v := range c.Values {
					vals[i] = sqlLiteral(v)
				}
				preds = append(preds, fmt.Sprintf("%s IN (%s)", quoteIdent(c.Column), strings.Join(vals, ", ")))
			case "like":
				preds = append(preds, fmt.Sprintf("%s LIKE %s", quoteIdent(c.Column), sqlLiteral(c.Value)))
			case "!=":
				preds = append(preds, fmt.Sprintf("%s <> %s", quoteIdent(c.Column), sqlLiteral(c.Value)))
			default:
				preds = append(preds, fmt.Sprintf("%s %s %s", quoteIdent(c.Column), c.Operator, sqlLiteral(c.Value)))
			}
		}
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if hasAgg && len(s.DimensionList) > 0 {
		keys := make([]string, len(s.DimensionList))
		for i, d := range s.DimensionList {
			keys[i] = quoteIdent(d)
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(keys, ", "))
	}
	if len(s.OrderByList) > 0 {
		var parts []string
		for _, o := range s.OrderByList {
			p := quoteIdent(o.Column)
			if o.Desc {
				p += " DESC"
			}
			parts = append(parts, p)
		}
		sb.WriteString(" ORDER BY ")
		sb.WriteString(strings.Join(parts, ", "))
	}
	if s.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String(), nil
}

// ToChart compiles the spec to a chart specification. The first dimension
// maps to x (or color for pies), the first measure to y (or theta).
func (s *Spec) ToChart() (*viz.Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mark := viz.Mark(s.ChartType)
	if s.ChartType == "" {
		mark = s.inferMark()
	}
	if len(s.MeasureList) == 0 {
		return nil, fmt.Errorf("dsl: chart needs at least one measure")
	}
	_, yName := measureSQL(s.MeasureList[0])

	spec := &viz.Spec{
		Title:    s.Intent,
		Mark:     mark,
		Data:     s.Table,
		Limit:    s.Limit,
		Encoding: map[string]*viz.Encoding{},
	}
	// The compiled chart binds to the *result table of ToSQL*, where the
	// measure is already aggregated into a column named yName.
	yEnc := &viz.Encoding{Field: yName, Type: viz.Quantitative}
	if mark == viz.MarkArc {
		spec.Encoding["theta"] = yEnc
		if len(s.DimensionList) == 0 {
			return nil, fmt.Errorf("dsl: pie chart needs a dimension")
		}
		spec.Encoding["color"] = &viz.Encoding{Field: s.DimensionList[0], Type: viz.Nominal}
	} else {
		if len(s.DimensionList) == 0 {
			return nil, fmt.Errorf("dsl: chart needs a dimension for the x axis")
		}
		xType := viz.Nominal
		if looksTemporalName(s.DimensionList[0]) {
			xType = viz.Temporal
		}
		spec.Encoding["x"] = &viz.Encoding{Field: s.DimensionList[0], Type: xType}
		spec.Encoding["y"] = yEnc
		if len(s.DimensionList) > 1 {
			spec.Encoding["color"] = &viz.Encoding{Field: s.DimensionList[1], Type: viz.Nominal}
		}
	}
	for _, o := range s.OrderByList {
		if strings.EqualFold(o.Column, yName) {
			dir := "ascending"
			if o.Desc {
				dir = "descending"
			}
			yEnc.Sort = dir
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// inferMark picks a chart type from the data shape, the heuristic used
// when the query does not name one.
func (s *Spec) inferMark() viz.Mark {
	if len(s.DimensionList) > 0 && looksTemporalName(s.DimensionList[0]) {
		return viz.MarkLine
	}
	return viz.MarkBar
}

func looksTemporalName(name string) bool {
	n := strings.ToLower(name)
	for _, kw := range []string{"time", "date", "day", "month", "year", "ftime", "dt"} {
		if strings.Contains(n, kw) {
			return true
		}
	}
	return false
}
