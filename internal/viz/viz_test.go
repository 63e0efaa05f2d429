package viz

import (
	"reflect"
	"testing"

	"datalab/internal/table"
)

func chartData(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.MustNew("sales",
		[]string{"region", "amount", "when"},
		[]table.Kind{table.KindString, table.KindFloat, table.KindTime})
	tbl.MustAppendRow(table.Str("east"), table.Float(100), table.Str("2023-01-01"))
	tbl.MustAppendRow(table.Str("east"), table.Float(50), table.Str("2023-02-01"))
	tbl.MustAppendRow(table.Str("west"), table.Float(75), table.Str("2023-01-01"))
	return tbl
}

// regionTotals is a pre-aggregated result table, the shape a chart spec's
// SQL returns: one (region, total) row per bar.
func regionTotals(rows ...any) *table.Table {
	tbl := table.MustNew("totals",
		[]string{"region", "total"},
		[]table.Kind{table.KindString, table.KindFloat})
	for i := 0; i < len(rows); i += 2 {
		tbl.MustAppendRow(table.Str(rows[i].(string)), table.Float(rows[i+1].(float64)))
	}
	return tbl
}

func barSpec() *Spec {
	return &Spec{
		Title: "Revenue by region",
		Mark:  MarkBar,
		Encoding: map[string]*Encoding{
			"x": {Field: "region", Type: Nominal},
			"y": {Field: "total", Type: Quantitative},
		},
	}
}

func TestValidateAcceptsGoodSpecs(t *testing.T) {
	if err := barSpec().Validate(); err != nil {
		t.Errorf("bar spec invalid: %v", err)
	}
	pie := &Spec{
		Mark: MarkArc,
		Encoding: map[string]*Encoding{
			"theta": {Field: "amount", Type: Quantitative},
			"color": {Field: "region", Type: Nominal},
		},
	}
	if err := pie.Validate(); err != nil {
		t.Errorf("pie spec invalid: %v", err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []*Spec{
		{Mark: "heatmap3d", Encoding: map[string]*Encoding{"x": {Field: "a"}}},
		{Mark: MarkBar},
		{Mark: MarkBar, Encoding: map[string]*Encoding{"x": {Field: "a"}}},                    // missing y
		{Mark: MarkArc, Encoding: map[string]*Encoding{"x": {Field: "a"}, "y": {Field: "b"}}}, // pie lacks theta
		{Mark: MarkBar, Encoding: map[string]*Encoding{"x": {Field: "a"}, "y": {Field: "b", Type: "fancy"}}},
		{Mark: MarkBar, Encoding: map[string]*Encoding{"x": {Field: "a"}, "y": {Field: ""}}},
		{Mark: MarkBar, Encoding: map[string]*Encoding{"x": {Field: "a"}, "y": {Field: "b"}, "w": {Field: "c"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

// TestRenderNoAggregatePassthrough: each channel presents its field's
// column row for row; sort and limit directives leave the rows alone.
func TestRenderNoAggregatePassthrough(t *testing.T) {
	s := &Spec{
		Mark: MarkPoint,
		Encoding: map[string]*Encoding{
			"x": {Field: "when", Type: Temporal},
			"y": {Field: "amount", Type: Quantitative, Sort: "descending"},
		},
		Limit: 1,
	}
	data := chartData(t)
	r, err := Render(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Series["y"], data.Column("amount").Values(); !reflect.DeepEqual(got, want) {
		t.Errorf("y = %v, want %v", got, want)
	}
	if got, want := r.Series["x"], data.Column("when").Values(); !reflect.DeepEqual(got, want) {
		t.Errorf("x = %v, want %v", got, want)
	}
}

func TestRenderUnknownField(t *testing.T) {
	s := barSpec()
	s.Encoding["x"].Field = "missing"
	if _, err := Render(s, regionTotals("east", 150.0)); err == nil {
		t.Error("expected unknown-field error")
	}
}

func TestEqualRenderedIgnoresOrder(t *testing.T) {
	r1, err := Render(barSpec(), regionTotals("east", 150.0, "west", 75.0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Render(barSpec(), regionTotals("west", 75.0, "east", 150.0))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualRendered(r1, r2) {
		t.Error("same data in different order should be equal")
	}
}

func TestEqualRenderedDetectsDifferences(t *testing.T) {
	totals := regionTotals("east", 150.0, "west", 75.0)
	r1, _ := Render(barSpec(), totals)
	lineSpec := barSpec()
	lineSpec.Mark = MarkLine
	r2, _ := Render(lineSpec, totals)
	if EqualRendered(r1, r2) {
		t.Error("different marks should not be equal")
	}
	r3, _ := Render(barSpec(), regionTotals("east", 75.0, "west", 75.0))
	if EqualRendered(r1, r3) {
		t.Error("different aggregated values should not be equal")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := barSpec()
	s.Encoding["y"].Sort = "descending"
	s.Limit = 5
	parsed, err := ParseSpec(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Mark != s.Mark || parsed.Title != s.Title {
		t.Error("round trip lost fields")
	}
	if parsed.Encoding["y"].Sort != "descending" || parsed.Limit != 5 {
		t.Error("round trip lost display directives")
	}
	if _, err := ParseSpec("{not json"); err == nil {
		t.Error("expected JSON error")
	}
}

func TestReadabilityRange(t *testing.T) {
	r, _ := Render(barSpec(), regionTotals("east", 150.0, "west", 75.0))
	score := Readability(barSpec(), r)
	if score < 1 || score > 5 {
		t.Errorf("score = %v out of range", score)
	}
	// A titled, well-typed bar chart should beat an untitled giant pie.
	big := table.MustNew("t", []string{"k", "v"}, []table.Kind{table.KindString, table.KindFloat})
	for i := 0; i < 40; i++ {
		big.MustAppendRow(table.Str(string(rune('a'+i%26))+string(rune('a'+i/26))), table.Float(float64(i)))
	}
	pie := &Spec{
		Mark: MarkArc,
		Encoding: map[string]*Encoding{
			"theta": {Field: "v", Type: Quantitative},
			"color": {Field: "k", Type: Nominal},
		},
	}
	pr, err := Render(pie, big)
	if err != nil {
		t.Fatal(err)
	}
	if Readability(pie, pr) >= score {
		t.Error("40-slice pie should score below titled bar chart")
	}
}
