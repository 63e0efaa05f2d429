package table

import (
	"math"
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
	if got := tbl.Column("n").Value(0); got.Kind != KindFloat || got.F != 3.5 {
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

func TestFilter(t *testing.T) {
	tbl := sampleSales(t)
	west := tbl.Filter(func(r int) bool { return tbl.Column("region").Value(r).S == "west" })
	if west.NumRows() != 3 {
		t.Fatalf("west rows = %d, want 3", west.NumRows())
	}
}

func TestGatherPadMask(t *testing.T) {
	c := ColumnFromInts("x", []int64{10, 20, 30}, []bool{false, true, false})
	out := c.Gather([]int{2, 0, 1, 0}, []bool{false, true, false, false})
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
	// A nil mask pads nothing.
	plain := c.Gather([]int{1, 2}, nil)
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
		{"9999-12-31", KindString},
		{"0001-01-01", KindString},
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
	if tbl.Column("amount").Value(1).Kind != KindFloat {
		t.Errorf("amount should promote to float")
	}
}

// TestCSVRoundTrip: WriteCSV's text reads back as the same cells, a time
// a fraction of a second past its second included.
func TestCSVRoundTrip(t *testing.T) {
	stamps := MustNew("stamps", []string{"at"}, []Kind{KindTime})
	for _, ns := range []int{0, 500_000_000, 1, 123_456_789} {
		stamps.MustAppendRow(Time(time.Date(2024, 6, 30, 0, 0, 0, ns, time.UTC)))
	}
	for _, tbl := range []*Table{sampleSales(t), stamps} {
		var sb strings.Builder
		if err := tbl.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(tbl.Name, strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualData(tbl, back) {
			t.Errorf("CSV round trip changed %s's data:\n%s", tbl.Name, sb.String())
		}
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
	if amount.StdDev < 99.05 || amount.StdDev > 99.06 { // sample stddev: sqrt(39250/4)
		t.Errorf("amount stddev = %v, want ~99.058", amount.StdDev)
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

// TestProfileDistinctFollowsEquals: Profile counts distinct values by the
// equality key, as COUNT(DISTINCT) does — -0 and 0 are one value, and two
// instants 500 ms apart are two, although each pair prints alike the other
// way round.
func TestProfileDistinctFollowsEquals(t *testing.T) {
	at := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	tbl := MustNew("t", []string{"x", "at"}, []Kind{KindFloat, KindTime})
	tbl.MustAppendRow(Float(0), Time(at))
	tbl.MustAppendRow(Float(math.Copysign(0, -1)), Time(at.Add(500*time.Millisecond)))
	tbl.MustAppendRow(Float(1.5), Time(at))
	stats := tbl.Profile(0)
	if x := stats[0]; x.Distinct != 2 || len(x.TopValues) != 2 || x.TopValues[0] != "0" {
		t.Errorf("x: distinct %d, top %q; want 2 values, 0 (twice) first", x.Distinct, x.TopValues)
	}
	if at := stats[1]; at.Distinct != 2 {
		t.Errorf("at: distinct %d, want 2 (top %q)", at.Distinct, at.TopValues)
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

// TestFromRecordsWidenedCellsKeepTheirText: a cell re-parsed into a column
// kind promote widened to is parsed from its own text, so a text column
// keeps every cell as written and a float column takes an int's value.
func TestFromRecordsWidenedCellsKeepTheirText(t *testing.T) {
	text := []string{"007", "1.50", "+5", "TRUE", "2024-01-01", " x ", "abc"}
	rows := make([][]string, len(text))
	for i, s := range text {
		rows[i] = []string{s, []string{"1", "2.5"}[i%2]}
	}
	tb, err := FromRecords("t", []string{"s", "f"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if s, f := tb.Columns[0].Kind, tb.Columns[1].Kind; s != KindString || f != KindFloat {
		t.Fatalf("kinds = %v, %v; want TEXT, REAL", s, f)
	}
	for i, s := range text {
		if got := tb.Columns[0].Value(i); got != Str(s) {
			t.Errorf("text cell %d = %v, want %q", i, got, s)
		}
		if got, want := tb.Columns[1].Value(i), Float([]float64{1, 2.5}[i%2]); got != want {
			t.Errorf("float cell %d = %v, want %v", i, got, want)
		}
	}
}
