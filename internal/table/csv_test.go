package table

import (
	"fmt"
	"runtime"
	"testing"
)

// fromRecordsTwoPass is the reference FromRecords is pinned to: each
// column's cells inferred into a scratch slice first, its kind promoted
// over all of them, then every cell appended as that kind, re-parsed from
// its text when it inferred as another kind.
func fromRecordsTwoPass(name string, header []string, rows [][]string) (*Table, error) {
	t, err := New(name, header, make([]Kind, len(header)))
	if err != nil {
		return nil, err
	}
	cells := make([]Value, len(rows))
	for c := range t.Columns {
		kind := KindNull
		for i, row := range rows {
			cells[i] = Null()
			if c < len(row) {
				cells[i] = Infer(row[c])
				kind = Promote(kind, cells[i].Kind)
			}
		}
		if kind == KindNull {
			kind = KindString
		}
		col := &t.Columns[c]
		col.Kind = kind
		for i, v := range cells {
			if !v.IsNull() && v.Kind != kind {
				v, _ = kind.Parse(rows[i][c])
			}
			col.Append(v)
		}
	}
	return t, nil
}

// recordCells are the spellings FuzzFromRecords builds cells from, by
// kind: ints, floats, bools, timestamps, blanks and words.
var recordCells = [][]string{
	{"7", "-12", "+3", "0", "9223372036854775807"},
	{"1.5", "2e3", "NaN", "-0", "9223372036854775808"},
	{"true", "FALSE", " True "},
	{"2024-01-05", "2024-01-05 10:11:12", "2024-01-05T10:11:12Z"},
	{"", "  "},
	{"apac", " x ", "1_000", "0x10", "-"},
}

// records decodes spec into rows of up to three cells: each byte is one
// cell, its low bits the kind, its high bits the spelling, and 0xff ends
// a row early (its cells past that are missing).
func records(spec []byte) [][]string {
	var rows [][]string
	var row []string
	for _, b := range spec {
		if b == 0xff {
			rows, row = append(rows, row), nil
			continue
		}
		kind := recordCells[int(b&7)%len(recordCells)]
		row = append(row, kind[int(b>>3)%len(kind)])
		if len(row) == 3 {
			rows, row = append(rows, row), nil
		}
	}
	if row != nil {
		rows = append(rows, row)
	}
	return rows
}

// FuzzFromRecords: the one-pass FromRecords types every column as the
// two-pass reference does — kinds, NULL masks and cells identical —
// whether a column's kind widens at its first row, in the middle or at
// the last.
func FuzzFromRecords(f *testing.F) {
	int0, float0, bool0, time0, blank, word := byte(0), byte(1), byte(2), byte(3), byte(4), byte(5)
	for _, spec := range [][]byte{
		{float0, int0, word, int0, int0, int0, int0, int0, int0},                            // float, int and word columns from the first row
		{int0, bool0, time0, int0, bool0, time0, float0, word, int0, int0, bool0, time0},    // widening in the middle
		{int0, int0, blank, int0 | 8, int0, blank, float0, word, word},                      // widening at the last row
		{blank, blank, blank, 0xff, int0, 0xff, blank, time0, 0xff, blank, int0 | 16, 0xff}, // short rows and blank columns
		{time0, bool0, int0 | 32, time0 | 8, bool0 | 8, float0 | 16, time0 | 16, word, float0 | 32},
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		rows := records(spec)
		header := []string{"a", "b", "c"}
		got, err := FromRecords("r", header, rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fromRecordsTwoPass("r", header, rows)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want.Columns {
			g, w := &got.Columns[c], &want.Columns[c]
			if g.Kind != w.Kind || g.Len() != w.Len() {
				t.Fatalf("rows %q column %d: %v len %d, want %v len %d", rows, c, g.Kind, g.Len(), w.Kind, w.Len())
			}
			for i := 0; i < w.Len(); i++ {
				if gv, wv := g.Value(i), w.Value(i); g.IsNullAt(i) != w.IsNullAt(i) || !sameValue(gv, wv) {
					t.Fatalf("rows %q column %d row %d: %v (%v), want %v (%v)", rows, c, i, gv, gv.Kind, wv, wv.Kind)
				}
			}
		}
	})
}

// TestFromRecordsAllocatesNoScratch: FromRecords keeps no per-column
// []Value of the rows. What it allocates is the columns' own storage — 8
// bytes an id, 16 a kind, 8 a value and a NULL flag each, 35 a row — and
// far from the 72 bytes a row such a scratch slice adds.
func TestFromRecordsAllocatesNoScratch(t *testing.T) {
	const n, runs = 20_000, 5
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), []string{"view", "click", "buy"}[i%3], fmt.Sprintf("%d.25", i%100)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := FromRecords("r", []string{"id", "kind", "v"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / n; perRow >= 35+20 {
		t.Errorf("FromRecords allocates %.1f B a row, want < 35 + 20", perRow)
	} else {
		t.Logf("FromRecords allocates %.1f B a row", perRow)
	}
}
