package table

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// inferUnguarded is the reference Infer is pinned to: every parser tried on
// every cell, in the same order, with no first-byte checks.
func inferUnguarded(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(trimmed) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if t, ok := ParseTime(trimmed); ok && InTimeRange(t) {
		return Time(t)
	}
	return Str(s)
}

// sameValue is identity, not Compare: kinds must match, NaN equals NaN and
// -0 differs from 0.
func sameValue(a, b Value) bool {
	if a.Kind == KindFloat && b.Kind == KindFloat {
		return strconv.FormatFloat(a.F, 'g', -1, 64) == strconv.FormatFloat(b.F, 'g', -1, 64)
	}
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B
}

func FuzzInfer(f *testing.F) {
	for _, s := range []string{
		"inf", "-Inf", "NaN", ".5", "+3", "1e3", "0x10", " 12 ", "2024-01-05", "2024/01", "true", "T", "٣",
		"", "apac", "nordics", "na-east", "Infinity", "+infinity", "-nan", "0x1p4", "1_000", "-", "+", ".",
		"TRUE", "False", "falſe", "tRuE ", "20240105", "2024-01", "2024-01-05 10:11:12", "2024-01-05T10:11:12Z",
		"9223372036854775808", "-9223372036854775809", "1e400", "İnf", "\xffnan", "in", "na",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Infer(s), inferUnguarded(s); !sameValue(got, want) {
			t.Fatalf("Infer(%q) = %v (%v), unguarded chain gives %v (%v)", s, got, got.Kind, want, want.Kind)
		}
	})
}

func TestInferTextCellDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"apac", "nordics", "order", "enterprise", "12.34", "-0.5", "1e3"} {
		if n := testing.AllocsPerRun(100, func() { Infer(s) }); n != 0 {
			t.Errorf("Infer(%q) allocates %v times per call, want 0", s, n)
		}
	}
}

// FuzzKindParse: for any text and every kind, Parse never panics, accepts
// only NULL or a value of its kind, and a value it accepts re-parses from
// its canonical text to the identical value. That text is AsString, but
// RFC3339Nano for a time, whose AsString drops sub-second digits.
func FuzzKindParse(f *testing.F) {
	for _, s := range []string{
		"", "  ", "7", " -7 ", "007", "+5", "2.0", "1e3", "1.5", "-0", "1e300", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "-9.223372036854775808e18",
		"0x1p4", "NaN", "-Inf", ".5", "abc", "TRUE", "false", "falſe", "1", "20240101", "2024-01",
		"2024-01-05 10:11:12", "2024-01-01T10:00:00+02:00", "2024-01-01T10:00:00.123456789Z",
		"0000-01-01T00:00:00+01:00", "9999-12-31T23:00:00-02:00", "x",
		"1677-09-21T00:12:43.145224192Z", "2262-04-11T23:47:16.854775808Z",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, k := range [...]Kind{KindNull, KindInt, KindFloat, KindString, KindBool, KindTime} {
			v, ok := k.Parse(s)
			if !ok || v.IsNull() {
				if !ok && !v.IsNull() {
					t.Fatalf("%v.Parse(%q) refused but returned %v", k, s, v)
				}
				continue
			}
			if v.Kind != k {
				t.Fatalf("%v.Parse(%q) = %v of kind %v", k, s, v, v.Kind)
			}
			text := v.AsString()
			if v.Kind == KindTime {
				text = v.Time().Format(time.RFC3339Nano)
			}
			if again, ok := k.Parse(text); !ok || !sameValue(again, v) {
				t.Fatalf("%v.Parse(%q) = %v, but its text %q re-parses to %v (ok %v)", k, s, v, text, again, ok)
			}
		}
	})
}

// TestKindParseRules pins each kind's rule on the cells that tell them
// apart: what an int column takes besides decimal text, where each kind
// refuses, and that a time is held as its UTC Unix nanoseconds, so it takes
// both ends of their int64 range and refuses one nanosecond past either.
func TestKindParseRules(t *testing.T) {
	utc := func(s string) Value {
		tm, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatal(err)
		}
		return Time(tm)
	}
	for _, c := range []struct {
		k    Kind
		text string
		want Value
	}{
		{KindInt, " 7 ", Int(7)},
		{KindInt, "2.0", Int(2)},
		{KindInt, "1e3", Int(1000)},
		{KindInt, "-9.223372036854775808e18", Int(-1 << 63)},
		{KindFloat, "7", Float(7)},
		{KindFloat, "1e300", Float(1e300)},
		{KindBool, "TRUE", Bool(true)},
		{KindBool, "False", Bool(false)},
		{KindTime, "20240101", utc("2024-01-01T00:00:00Z")},
		{KindTime, "2024-01-01T10:00:00+02:00", utc("2024-01-01T08:00:00Z")},
		{KindTime, "1677-09-21T00:12:43.145224192Z", Value{Kind: KindTime, I: math.MinInt64}},
		{KindTime, "2262-04-11T23:47:16.854775807Z", Value{Kind: KindTime, I: math.MaxInt64}},
		{KindString, " 007 ", Str(" 007 ")},
		{KindNull, " ", Null()},
		{KindInt, "\t", Null()},
		{KindTime, "", Null()},
	} {
		got, ok := c.k.Parse(c.text)
		if !ok || !sameValue(got, c.want) {
			t.Errorf("%v.Parse(%q) = %v, %v; want %v", c.k, c.text, got, ok, c.want)
		}
	}
	for _, c := range []struct {
		k    Kind
		text string
	}{
		{KindInt, "1.5"}, {KindInt, "1e300"}, {KindInt, "9223372036854775808"}, {KindInt, "-9223372036854775809"},
		{KindInt, "abc"}, {KindInt, "true"}, {KindFloat, "abc"}, {KindBool, "falſe"}, {KindBool, "1"},
		{KindTime, "x"}, {KindNull, "x"},
		{KindTime, "1677-09-21T00:12:43.145224191Z"}, {KindTime, "2262-04-11T23:47:16.854775808Z"},
		{KindTime, "2262-04-11T23:47:16.854775807-00:01"}, {KindTime, "0001-01-01"}, {KindTime, "9999-12-31"},
	} {
		if got, ok := c.k.Parse(c.text); ok || !got.IsNull() {
			t.Errorf("%v.Parse(%q) = %v, %v; want it refused", c.k, c.text, got, ok)
		}
	}
}

// TestKindParseRefusalDoesNotAllocate: a cell whose first byte rules a kind
// out is refused without running a parser, so it costs no allocation.
func TestKindParseRefusalDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		text string
	}{{KindInt, "abc"}, {KindFloat, "apac"}, {KindBool, "yes"}, {KindTime, "x"}, {KindNull, "7"}} {
		if n := testing.AllocsPerRun(100, func() { c.k.Parse(c.text) }); n != 0 {
			t.Errorf("%v.Parse(%q) allocates %v times per call, want 0", c.k, c.text, n)
		}
	}
}

// TestTimeCellsHoldUTCNanoseconds: a column holding a BI sentinel like
// 9999-12-31, which no time cell holds, is TEXT; and a zoned instant,
// appended or set, is held and rendered as its UTC instant.
func TestTimeCellsHoldUTCNanoseconds(t *testing.T) {
	tbl, err := FromRecords("d", []string{"stat_dt"}, [][]string{{"2024-01-01"}, {"9999-12-31"}})
	if err != nil {
		t.Fatal(err)
	}
	if k := tbl.Column("stat_dt").Kind; k != KindString {
		t.Errorf("a column holding 9999-12-31 is %v, want TEXT", k)
	}

	zoned := time.Date(2024, 1, 1, 10, 0, 0, 5, time.FixedZone("+02", 2*3600))
	ts := MustNew("z", []string{"ts"}, []Kind{KindTime})
	ts.MustAppendRow(Time(zoned))
	ts.MustAppendRow(Null())
	ts.Columns[0].Set(1, Time(zoned))
	for i := 0; i < 2; i++ {
		v := ts.Columns[0].Value(i)
		if v.AsString() != "2024-01-01 08:00:00.000000005" || v.Time().Location() != time.UTC || !v.Time().Equal(zoned) {
			t.Errorf("row %d: zoned %s is held as %s (%v)", i, zoned, v.AsString(), v.Time())
		}
	}
}
