package table

import (
	"testing"
	"time"
)

// columnOf builds a column of the given kind from values, each NULL or of
// that kind.
func columnOf(name string, kind Kind, vals []Value) Column {
	c := NewColumn(name, kind)
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

func TestColumnTypedStorage(t *testing.T) {
	c := NewColumn("n", KindInt)
	c.Append(Int(1))
	c.AppendNull()
	c.Append(Int(3))
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	is, nulls, ok := c.Ints()
	if !ok || len(is) != 3 || is[0] != 1 || is[2] != 3 || !nulls[1] {
		t.Fatalf("Ints() = %v %v %v", is, nulls, ok)
	}
	if got := c.Value(1); !got.IsNull() {
		t.Errorf("Value(1) = %v, want NULL", got)
	}
	if got := c.Value(2); got.Kind != KindInt || got.I != 3 {
		t.Errorf("Value(2) = %v", got)
	}
	if _, _, ok := c.Floats(); ok {
		t.Error("Floats() should report ok=false on an int column")
	}
}

// TestColumnRefusesAnotherKind: a column holds one kind, so appending or
// setting a value of another kind, or appending a column of another kind,
// is a caller's bug and panics, leaving the cells as they were.
func TestColumnRefusesAnotherKind(t *testing.T) {
	c := NewColumn("m", KindInt)
	c.Append(Int(1))
	c.AppendNull()
	other := ColumnFromFloats("f", []float64{2.5}, nil)
	for name, f := range map[string]func(){
		"Append":       func() { c.Append(Float(2.5)) },
		"Set":          func() { c.Set(0, Str("x")) },
		"AppendColumn": func() { c.AppendColumn(&other) },
		"KindNull":     func() { n := NewColumn("n", KindNull); n.Append(Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of another kind did not panic", name)
				}
			}()
			f()
		}()
	}
	if c.Len() != 2 || c.Value(0) != Int(1) || !c.Value(1).IsNull() {
		t.Fatalf("refused writes changed the column: %v", c.Values())
	}
	c.Set(1, Int(9))
	if is, _, ok := c.Ints(); !ok || is[1] != 9 {
		t.Fatalf("Set of the column's kind = %v %v", is, ok)
	}
}

// TestKindCoerce pins the conversions Promote implies: NULL and a value of
// the kind stay, an int widens into a float, anything becomes its text in
// a string, and every other pair is refused.
func TestKindCoerce(t *testing.T) {
	when := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, c := range []struct {
		k      Kind
		v, out Value
		ok     bool
	}{
		{KindInt, Null(), Null(), true},
		{KindInt, Int(3), Int(3), true},
		{KindFloat, Int(3), Float(3), true},
		{KindString, Int(7), Str("7"), true},
		{KindString, Float(2.5), Str("2.5"), true},
		{KindString, Bool(true), Str("true"), true},
		{KindString, Time(when), Str("2024-01-02 03:04:05"), true},
		{KindInt, Float(3), Float(3), false},
		{KindFloat, Str("1"), Str("1"), false},
		{KindBool, Int(1), Int(1), false},
		{KindNull, Int(1), Int(1), false},
	} {
		out, ok := c.k.Coerce(c.v)
		if ok != c.ok || ok && (out.Kind != c.out.Kind || Compare(out, c.out) != 0) {
			t.Errorf("%v.Coerce(%v) = %v %v, want %v %v", c.k, c.v, out, ok, c.out, c.ok)
		}
	}
	for _, p := range [][3]Kind{
		{KindNull, KindInt, KindInt}, {KindFloat, KindNull, KindFloat}, {KindInt, KindFloat, KindFloat},
		{KindInt, KindString, KindString}, {KindBool, KindInt, KindString}, {KindTime, KindTime, KindTime},
	} {
		if got := Promote(p[0], p[1]); got != p[2] {
			t.Errorf("Promote(%v, %v) = %v, want %v", p[0], p[1], got, p[2])
		}
	}
}

func TestColumnGatherWithNullPadding(t *testing.T) {
	c := NewColumn("g", KindString)
	for _, s := range []string{"a", "b", "c"} {
		c.Append(Str(s))
	}
	out := c.Gather([]int{2, 0, 0, 0}, []bool{false, true, false, false})
	if out.Len() != 4 {
		t.Fatalf("len = %d", out.Len())
	}
	if v := out.Value(0); v.S != "c" {
		t.Errorf("out[0] = %v", v)
	}
	if !out.Value(1).IsNull() {
		t.Error("out[1] should be NULL (padded)")
	}
	if v := out.Value(3); v.S != "a" {
		t.Errorf("out[3] = %v", v)
	}
}

func TestColumnSliceAndCloneIndependence(t *testing.T) {
	c := NewColumn("i", KindInt)
	for i := 0; i < 5; i++ {
		c.Append(Int(int64(i)))
	}
	cp := c.CloneData()
	sl := c.GatherSel(NewSpanSelection(Span{1, 3}))
	c.Set(1, Int(99))
	if cp.Value(1).I != 1 {
		t.Error("CloneData must not share storage")
	}
	if sl.Value(0).I != 1 {
		t.Error("GatherSel must not share storage")
	}
	if sl.Len() != 2 || sl.Value(1).I != 2 {
		t.Errorf("slice = %v", sl.Values())
	}
}

func TestColumnConstructorsAndValues(t *testing.T) {
	fc := ColumnFromFloats("f", []float64{1.5, 0}, []bool{false, true})
	if fc.Kind != KindFloat || fc.Len() != 2 {
		t.Fatalf("bad float column: %+v", fc)
	}
	if !fc.Value(1).IsNull() {
		t.Error("null bitmap ignored")
	}
	vals := fc.Values()
	if len(vals) != 2 || vals[0].F != 1.5 {
		t.Errorf("Values() = %v", vals)
	}
	bc := ColumnFromBools("b", []bool{true, false}, nil)
	if v, ok := bc.Value(0).AsBool(); !ok || !v {
		t.Error("bool column roundtrip failed")
	}
	sc := ColumnFromStrings("s", []string{"x"}, nil)
	if sc.Value(0).S != "x" {
		t.Error("string column roundtrip failed")
	}
	ic := ColumnFromInts("i", []int64{7}, nil)
	if ic.Value(0).I != 7 {
		t.Error("int column roundtrip failed")
	}
}

func TestColumnFloatAt(t *testing.T) {
	c := NewColumn("x", KindInt)
	c.Append(Int(4))
	c.AppendNull()
	if f, ok := c.FloatAt(0); !ok || f != 4 {
		t.Errorf("FloatAt(0) = %v %v", f, ok)
	}
	if _, ok := c.FloatAt(1); ok {
		t.Error("FloatAt on NULL should be !ok")
	}
	s := NewColumn("s", KindString)
	s.Append(Str("2.5"))
	s.Append(Str("nope"))
	if f, ok := s.FloatAt(0); !ok || f != 2.5 {
		t.Errorf("FloatAt numeric string = %v %v", f, ok)
	}
	if _, ok := s.FloatAt(1); ok {
		t.Error("FloatAt on non-numeric string should be !ok")
	}
}

func TestColumnTimeStorage(t *testing.T) {
	c := NewColumn("t", KindTime)
	now := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	c.Append(Time(now))
	c.AppendNull()
	ts, nulls, ok := c.Times()
	if !ok || ts[0] != now.UnixNano() || !nulls[1] {
		t.Fatalf("Times() = %v %v %v", ts, nulls, ok)
	}
	if v := c.Value(0); !v.Time().Equal(now) {
		t.Errorf("Value(0) = %v", v)
	}
}

func TestTableStaysTypedThroughAppendRow(t *testing.T) {
	tb := MustNew("t", []string{"a", "b"}, []Kind{KindInt, KindString})
	// AppendRow parses a string into an int column's kind, so typed storage
	// survives string->int cells.
	tb.MustAppendRow(Str("42"), Str("x"))
	tb.MustAppendRow(Int(7), Null())
	is, _, ok := tb.Columns[0].Ints()
	if !ok || is[0] != 42 || is[1] != 7 {
		t.Fatalf("ints = %v %v", is, ok)
	}
}
