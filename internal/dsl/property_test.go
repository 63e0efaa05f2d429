package dsl

// Property-based tests of the pipeline invariant the platform rests on:
// every valid DSL specification compiles to SQL that parses and executes,
// and to a chart spec that validates and renders. Generated specs cover
// the full operator/aggregate surface with randomized composition.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"datalab/internal/llm"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
	"datalab/internal/viz"
)

// genTable builds a randomized table with at least one categorical, one
// numeric, and one temporal column.
func genTable(rng *llm.Rand, name string) *table.Table {
	t := table.MustNew(name,
		[]string{"cat", "num", "num2", "when"},
		[]table.Kind{table.KindString, table.KindFloat, table.KindInt, table.KindTime})
	cats := []string{"a", "b", "c", "d"}
	n := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		t.MustAppendRow(
			table.Str(cats[rng.Intn(len(cats))]),
			table.Float(rng.Float64()*1000),
			table.Int(int64(rng.Intn(100))),
			table.Str(fmt.Sprintf("202%d-%02d-%02d", rng.Intn(3)+2, rng.Intn(12)+1, rng.Intn(28)+1)),
		)
	}
	return t
}

// genSpec builds a random valid DSL spec over genTable's schema.
func genSpec(rng *llm.Rand, tableName string) *Spec {
	aggs := []string{"sum", "avg", "count", "min", "max", "median"}
	s := &Spec{Table: tableName}
	// 1-2 measures over the numeric columns.
	nm := 1 + rng.Intn(2)
	numCols := []string{"num", "num2"}
	for i := 0; i < nm; i++ {
		s.MeasureList = append(s.MeasureList, Measure{
			Column:    numCols[i%2],
			Aggregate: aggs[rng.Intn(len(aggs))],
			Alias:     fmt.Sprintf("m%d", i),
		})
	}
	if rng.Float64() < 0.8 {
		s.DimensionList = append(s.DimensionList, "cat")
	}
	// Random conditions across the operator surface.
	switch rng.Intn(5) {
	case 0:
		s.ConditionList = append(s.ConditionList, Condition{Column: "num", Operator: ">", Value: "100"})
	case 1:
		s.ConditionList = append(s.ConditionList, Condition{
			Column: "when", Operator: "between", Value: "2023-01-01", Value2: "2024-12-31"})
	case 2:
		s.ConditionList = append(s.ConditionList, Condition{
			Column: "cat", Operator: "in", Values: []string{"a", "b"}})
	case 3:
		s.ConditionList = append(s.ConditionList, Condition{Column: "cat", Operator: "like", Value: "%a%"})
	}
	if rng.Float64() < 0.5 {
		s.OrderByList = append(s.OrderByList, OrderBy{Column: "m0", Desc: rng.Float64() < 0.5})
	}
	if rng.Float64() < 0.4 {
		s.Limit = 1 + rng.Intn(10)
	}
	if len(s.DimensionList) > 0 && rng.Float64() < 0.5 {
		marks := []string{"bar", "line", "area", "point"}
		s.ChartType = marks[rng.Intn(len(marks))]
	}
	return s
}

func TestPropertyEverySpecCompilesAndExecutes(t *testing.T) {
	rng := llm.NewRand("dsl-property")
	for i := 0; i < 300; i++ {
		tbl := genTable(rng, fmt.Sprintf("t%03d", i))
		spec := genSpec(rng, tbl.Name)
		if err := spec.Validate(); err != nil {
			t.Fatalf("case %d: generated spec invalid: %v\n%s", i, err, spec.JSON())
		}
		sql, err := spec.ToSQL()
		if err != nil {
			t.Fatalf("case %d: ToSQL: %v\n%s", i, err, spec.JSON())
		}
		if _, err := sqlengine.Parse(sql); err != nil {
			t.Fatalf("case %d: compiled SQL does not parse: %v\n%s", i, err, sql)
		}
		cat := sqlengine.NewCatalog()
		cat.Register(tbl)
		res, err := query(cat, sql)
		if err != nil {
			t.Fatalf("case %d: compiled SQL does not execute: %v\n%s", i, err, sql)
		}
		if spec.Limit > 0 && res.NumRows() > spec.Limit {
			t.Fatalf("case %d: LIMIT %d violated (%d rows)", i, spec.Limit, res.NumRows())
		}
		// Grouped results never exceed the dimension's cardinality.
		if len(spec.DimensionList) > 0 && spec.Limit == 0 && res.NumRows() > 4 {
			t.Fatalf("case %d: %d groups from 4 categories", i, res.NumRows())
		}
	}
}

func TestPropertyChartsRenderWhenRequested(t *testing.T) {
	rng := llm.NewRand("dsl-chart-property")
	rendered := 0
	for i := 0; i < 200; i++ {
		tbl := genTable(rng, fmt.Sprintf("c%03d", i))
		spec := genSpec(rng, tbl.Name)
		if spec.ChartType == "" {
			continue
		}
		chart, err := spec.ToChart()
		if err != nil {
			t.Fatalf("case %d: ToChart: %v\n%s", i, err, spec.JSON())
		}
		sql, err := spec.ToSQL()
		if err != nil {
			t.Fatal(err)
		}
		cat := sqlengine.NewCatalog()
		cat.Register(tbl)
		data, err := query(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		r, err := viz.Render(chart, data)
		if err != nil {
			t.Fatalf("case %d: render: %v\nchart: %s\nsql: %s", i, err, chart.JSON(), sql)
		}
		// The chart presents the rows the SQL returned: each channel is
		// its field's column of the result, row for row.
		for ch, enc := range chart.Encoding {
			if got, want := r.Series[ch], data.Column(enc.Field).Values(); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d: channel %s = %v, want column %q = %v\nsql: %s", i, ch, got, enc.Field, want, sql)
			}
		}
		score := viz.Readability(chart, r)
		if score < 1 || score > 5 {
			t.Fatalf("case %d: readability %v out of range", i, score)
		}
		rendered++
	}
	if rendered < 30 {
		t.Fatalf("only %d charts exercised; generator too conservative", rendered)
	}
}

func TestPropertyJSONRoundTripPreservesSQL(t *testing.T) {
	rng := llm.NewRand("dsl-json-property")
	for i := 0; i < 200; i++ {
		spec := genSpec(rng, "t")
		var back Spec
		if err := json.Unmarshal([]byte(spec.JSON()), &back); err != nil {
			t.Fatalf("case %d: reparse: %v", i, err)
		}
		sql1, err1 := spec.ToSQL()
		sql2, err2 := back.ToSQL()
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: ToSQL errors: %v, %v", i, err1, err2)
		}
		if sql1 != sql2 {
			t.Fatalf("case %d: round trip changed SQL:\n%s\n%s", i, sql1, sql2)
		}
	}
}
