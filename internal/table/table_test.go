package table

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleSales(t *testing.T) *Table {
	t.Helper()
	tbl := MustNew("sales",
		[]string{"region", "product", "amount", "qty"},
		[]Kind{KindString, KindString, KindFloat, KindInt})
	rows := [][]Value{
		{Str("east"), Str("widget"), Float(100), Int(2)},
		{Str("east"), Str("gadget"), Float(250), Int(1)},
		{Str("west"), Str("widget"), Float(75), Int(3)},
		{Str("west"), Str("gadget"), Float(300), Int(4)},
		{Str("west"), Str("widget"), Float(125), Int(1)},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r...)
	}
	return tbl
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	if _, err := New("t", []string{"a", "A"}, []Kind{KindInt, KindInt}); err == nil {
		t.Fatal("expected duplicate column error")
	}
	if _, err := New("t", []string{"a"}, []Kind{KindInt, KindInt}); err == nil {
		t.Fatal("expected arity mismatch error")
	}
}

func TestAppendRowCoerces(t *testing.T) {
	tbl := MustNew("t", []string{"n"}, []Kind{KindFloat})
	tbl.MustAppendRow(Str("3.5"))
	if got := tbl.Get(0, "n"); got.Kind != KindFloat || got.F != 3.5 {
		t.Errorf("coerced value = %v", got)
	}
}

func TestAppendRowArityError(t *testing.T) {
	tbl := MustNew("t", []string{"a", "b"}, []Kind{KindInt, KindInt})
	if err := tbl.AppendRow(Int(1)); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestColumnLookupCaseInsensitive(t *testing.T) {
	tbl := sampleSales(t)
	if tbl.ColumnIndex("AMOUNT") != 2 {
		t.Error("case-insensitive lookup failed")
	}
	if tbl.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
}

func TestFilterAndLimit(t *testing.T) {
	tbl := sampleSales(t)
	west := tbl.Filter(func(r int) bool { return tbl.Get(r, "region").S == "west" })
	if west.NumRows() != 3 {
		t.Fatalf("west rows = %d, want 3", west.NumRows())
	}
	if got := west.Limit(2).NumRows(); got != 2 {
		t.Errorf("limit = %d rows, want 2", got)
	}
	if got := west.Limit(-1).NumRows(); got != 3 {
		t.Errorf("negative limit should keep all rows, got %d", got)
	}
}

func TestSortMultiKey(t *testing.T) {
	tbl := sampleSales(t)
	sorted, err := tbl.Sort(SortKey{Column: "region"}, SortKey{Column: "amount", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	var amounts []float64
	for i := 0; i < sorted.NumRows(); i++ {
		amounts = append(amounts, sorted.Get(i, "amount").F)
	}
	want := []float64{250, 100, 300, 125, 75}
	if !reflect.DeepEqual(amounts, want) {
		t.Errorf("sorted amounts = %v, want %v", amounts, want)
	}
}

func TestSortUnknownColumn(t *testing.T) {
	tbl := sampleSales(t)
	if _, err := tbl.Sort(SortKey{Column: "nope"}); err == nil {
		t.Fatal("expected error for unknown sort column")
	}
}

func TestDistinct(t *testing.T) {
	tbl := MustNew("t", []string{"a"}, []Kind{KindInt})
	for _, v := range []int64{1, 2, 1, 3, 2} {
		tbl.MustAppendRow(Int(v))
	}
	d := tbl.Distinct()
	if d.NumRows() != 3 {
		t.Errorf("distinct rows = %d, want 3", d.NumRows())
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl := sampleSales(t)
	g, err := tbl.GroupBy([]string{"region"}, []Aggregation{
		{Func: AggSum, Column: "amount", As: "total"},
		{Func: AggCount, Column: "*", As: "n"},
		{Func: AggMax, Column: "amount", As: "peak"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", g.NumRows())
	}
	// Groups keep first-appearance order: east then west.
	if g.Get(0, "region").S != "east" {
		t.Errorf("first group = %v", g.Get(0, "region"))
	}
	if got := g.Get(0, "total").F; got != 350 {
		t.Errorf("east total = %v, want 350", got)
	}
	if got := g.Get(1, "n").I; got != 3 {
		t.Errorf("west count = %v, want 3", got)
	}
	if got := g.Get(1, "peak").F; got != 300 {
		t.Errorf("west peak = %v, want 300", got)
	}
}

func TestGroupByGlobalOnEmptyTable(t *testing.T) {
	tbl := MustNew("t", []string{"x"}, []Kind{KindInt})
	g, err := tbl.GroupBy(nil, []Aggregation{{Func: AggCount, Column: "*", As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 1 || g.Get(0, "n").I != 0 {
		t.Errorf("global aggregate over empty table = %v", g)
	}
}

func TestGroupByNullHandling(t *testing.T) {
	tbl := MustNew("t", []string{"k", "v"}, []Kind{KindString, KindFloat})
	tbl.MustAppendRow(Str("a"), Float(1))
	tbl.MustAppendRow(Str("a"), Null())
	tbl.MustAppendRow(Str("a"), Float(3))
	g, err := tbl.GroupBy([]string{"k"}, []Aggregation{
		{Func: AggCount, Column: "v", As: "cnt"},
		{Func: AggAvg, Column: "v", As: "avg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(0, "cnt").I != 2 {
		t.Errorf("COUNT(v) should skip nulls, got %v", g.Get(0, "cnt"))
	}
	if g.Get(0, "avg").F != 2 {
		t.Errorf("AVG(v) should skip nulls, got %v", g.Get(0, "avg"))
	}
}

func TestGroupByMedianAndStdDev(t *testing.T) {
	tbl := MustNew("t", []string{"v"}, []Kind{KindFloat})
	for _, f := range []float64{1, 2, 3, 4} {
		tbl.MustAppendRow(Float(f))
	}
	g, err := tbl.GroupBy(nil, []Aggregation{
		{Func: AggMedian, Column: "v", As: "med"},
		{Func: AggStdDev, Column: "v", As: "sd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Get(0, "med").F; got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	sd := g.Get(0, "sd").F
	if sd < 1.29 || sd > 1.30 {
		t.Errorf("stddev = %v, want ~1.291", sd)
	}
}

func TestGatherPairsNullMask(t *testing.T) {
	c := ColumnFromInts("x", []int64{10, 20, 30}, []bool{false, true, false})
	out := c.GatherPairs([]int{2, 0, 1, 0}, []bool{false, true, false, false})
	want := []any{int64(30), nil, nil, int64(10)} // masked, then storage NULL
	for i, w := range want {
		v := out.Value(i)
		if w == nil {
			if !v.IsNull() {
				t.Errorf("cell %d = %v, want NULL", i, v)
			}
			continue
		}
		if v.IsNull() || v.I != w.(int64) {
			t.Errorf("cell %d = %v, want %v", i, v, w)
		}
	}
	// nil mask degenerates to a plain gather.
	plain := c.GatherPairs([]int{1, 2}, nil)
	if !plain.Value(0).IsNull() || plain.Value(1).I != 30 {
		t.Errorf("nil-mask gather = %v, %v", plain.Value(0), plain.Value(1))
	}
}

func TestEqualDataIgnoresRowOrder(t *testing.T) {
	a := MustNew("a", []string{"x"}, []Kind{KindInt})
	a.MustAppendRow(Int(1))
	a.MustAppendRow(Int(2))
	b := MustNew("b", []string{"y"}, []Kind{KindInt})
	b.MustAppendRow(Int(2))
	b.MustAppendRow(Int(1))
	if !EqualData(a, b) {
		t.Error("permuted rows should be equal")
	}
	b.MustAppendRow(Int(1))
	if EqualData(a, b) {
		t.Error("different multiplicities should not be equal")
	}
}

func TestEqualDataFloatIntUnification(t *testing.T) {
	a := MustNew("a", []string{"x"}, []Kind{KindFloat})
	a.MustAppendRow(Float(3.0))
	b := MustNew("b", []string{"x"}, []Kind{KindInt})
	b.MustAppendRow(Int(3))
	if !EqualData(a, b) {
		t.Error("3.0 and 3 should compare equal under EX semantics")
	}
}

func TestValueCompareAcrossKinds(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 vs 2.0")
	}
	if Compare(Null(), Int(0)) != -1 {
		t.Error("NULL should sort first")
	}
	if Compare(Str("a"), Str("b")) != -1 {
		t.Error("string compare")
	}
	t1 := Time(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	t2 := Time(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	if Compare(t1, t2) != -1 {
		t.Error("time compare")
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"42", KindInt},
		{"3.14", KindFloat},
		{"true", KindBool},
		{"2023-05-01", KindTime},
		{"hello", KindString},
		{"", KindNull},
		{"  ", KindNull},
	}
	for _, c := range cases {
		if got := Infer(c.in).Kind; got != c.kind {
			t.Errorf("Infer(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestReadCSV(t *testing.T) {
	csvData := "region,amount,when\neast,100,2023-01-02\nwest,250.5,2023-02-03\n"
	tbl, err := ReadCSV("sales", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Column("when").Kind != KindTime {
		t.Errorf("when kind = %v, want time", tbl.Column("when").Kind)
	}
	if tbl.Get(1, "amount").Kind != KindFloat {
		t.Errorf("amount should promote to float")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleSales(t)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("sales", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualData(tbl, back) {
		t.Error("CSV round trip changed data")
	}
}

func TestProfileStats(t *testing.T) {
	tbl := sampleSales(t)
	stats := tbl.Profile(3)
	if len(stats) != 4 {
		t.Fatalf("stats for %d columns", len(stats))
	}
	amount := stats[2]
	if !amount.IsNumeric {
		t.Error("amount should be numeric")
	}
	if amount.Min.F != 75 || amount.Max.F != 300 {
		t.Errorf("amount min/max = %v/%v", amount.Min, amount.Max)
	}
	if amount.Mean != 170 {
		t.Errorf("amount mean = %v, want 170", amount.Mean)
	}
	region := stats[0]
	if !region.IsCategorical {
		t.Error("region should be categorical")
	}
	if region.Distinct != 2 {
		t.Errorf("region distinct = %d", region.Distinct)
	}
	if len(region.SampleValues) == 0 {
		t.Error("expected sample values")
	}
}

func TestProfileTemporalDetection(t *testing.T) {
	tbl := MustNew("t", []string{"ftime", "other"}, []Kind{KindString, KindString})
	tbl.MustAppendRow(Str("20230101"), Str("x"))
	stats := tbl.Profile(1)
	if !stats[0].IsTimeLike {
		t.Error("ftime should be detected as time-like by name")
	}
	if stats[1].IsTimeLike {
		t.Error("other should not be time-like")
	}
}

func TestSliceBounds(t *testing.T) {
	tbl := sampleSales(t)
	if got := tbl.Slice(-5, 100).NumRows(); got != 5 {
		t.Errorf("clamped slice rows = %d", got)
	}
	if got := tbl.Slice(4, 2).NumRows(); got != 0 {
		t.Errorf("inverted slice rows = %d", got)
	}
}
