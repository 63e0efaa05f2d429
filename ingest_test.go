package datalab

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"datalab/internal/table"
)

// ingestPlatform registers a small events table to append into.
func ingestPlatform(t *testing.T) *Platform {
	t.Helper()
	p := MustNew(WithSeed("ingest"))
	csv := "id,amount\n1,10\n2,20\n3,30\n"
	if err := p.LoadCSV("events", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAppendRecordsVisibleToNewQueries(t *testing.T) {
	p := ingestPlatform(t)
	if err := p.AppendRecords("events", [][]string{{"4", "40"}, {"5", "50"}}); err != nil {
		t.Fatal(err)
	}
	rows := queryStrings(t, p, "SELECT COUNT(*), SUM(amount) FROM events")
	if rows[0][0] != "5" || rows[0][1] != "150" {
		t.Fatalf("after append: %v", rows)
	}
	if err := p.AppendRecords("nope", nil); err == nil {
		t.Fatal("AppendRecords on unknown table should fail")
	}
}

func TestAppendDoesNotDisturbOpenResult(t *testing.T) {
	p := ingestPlatform(t)
	res, err := p.QueryCtx(context.Background(), "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	// Publish two more snapshots while the cursor is still open.
	for i := 0; i < 2; i++ {
		if err := p.AppendRecords("events", [][]string{{"9", "90"}}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for b := res.Next(); b != nil; b = res.Next() {
		seen += b.NumRows()
	}
	if seen != 3 {
		t.Fatalf("open cursor saw %d rows, want the 3 from its snapshot", seen)
	}
	rows := queryStrings(t, p, "SELECT COUNT(*) FROM events")
	if rows[0][0] != "5" {
		t.Fatalf("fresh query count = %v, want 5", rows[0][0])
	}
}

func TestIngestorBatchesUntilPublish(t *testing.T) {
	p := ingestPlatform(t)
	in, err := p.Ingest("events")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Append("6", "60"); err != nil {
		t.Fatal(err)
	}
	if err := in.Append("7"); err != nil { // short row: trailing NULL
		t.Fatal(err)
	}
	if got := in.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	rows := queryStrings(t, p, "SELECT COUNT(*) FROM events")
	if rows[0][0] != "3" {
		t.Fatalf("staged rows leaked into a query: count = %v", rows[0][0])
	}
	if total, err := in.PublishErr(); err != nil || total != 5 {
		t.Fatalf("PublishErr = %d, %v, want 5 rows", total, err)
	}
	rows = queryStrings(t, p, "SELECT COUNT(*), SUM(amount) FROM events WHERE amount IS NOT NULL")
	if rows[0][0] != "4" || rows[0][1] != "120" {
		t.Fatalf("after publish: %v", rows)
	}
	if _, err := p.Ingest("missing"); err == nil {
		t.Fatal("Ingest on unknown table should fail")
	}
}

// TestIngestorAppendAllocatesNothingPerRow: Append parses each cell by its
// column's kind into a reused scratch row and then into the table's arena
// under one lock, so all that is left is the arena's amortized growth; a
// missing cell is still NULL and an extra one still ignored.
func TestIngestorAppendAllocatesNothingPerRow(t *testing.T) {
	p := ingestPlatform(t)
	in, err := p.Ingest("events")
	if err != nil {
		t.Fatal(err)
	}
	row := []string{"7", "12"}
	if allocs := testing.AllocsPerRun(1000, func() { in.Append(row...) }); allocs >= 0.1 {
		t.Errorf("Append allocates %.3f times per row, want < 0.1", allocs)
	}
	if err := in.Append("8"); err != nil {
		t.Fatal(err)
	}
	if err := in.Append("9", "90", "extra"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.PublishErr(); err != nil {
		t.Fatal(err)
	}
	rows := queryStrings(t, p, "SELECT id, amount FROM events WHERE id >= 8")
	if len(rows) != 2 || rows[0][0] != "8" || rows[0][1] != "" || rows[1][0] != "9" || rows[1][1] != "90" {
		t.Fatalf(`short and long rows appended as %q, want ["8" ""] and ["9" "90"]`, rows)
	}
}

func TestNotebookAppendRecords(t *testing.T) {
	p := ingestPlatform(t)
	s := p.NewNotebook("ingest")
	id, err := s.AddSQL("SELECT COUNT(*) FROM events", "n")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRecords("events", [][]string{{"4", "40"}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunSQL(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Next()
	if v, ok := b.Int64(0, 0); !ok || v != 4 {
		t.Fatalf("re-run count = %v, want 4", v)
	}
}

// TestIngestorRefusesInexactCells: a cell its column's kind cannot store
// exactly refuses its whole row with a *table.CellError naming the column,
// stages nothing of the row, and leaves the table holding only the rows
// before it — through Append and through AppendRecords, which publishes
// those rows. A ParseTime layout without separators is a time, and a date
// outside the years a time cell holds (1677–2262) is refused.
func TestIngestorRefusesInexactCells(t *testing.T) {
	for _, bad := range []struct{ column, cell string }{
		{"id", "abc"}, {"id", "1.5"}, {"id", "1e300"}, {"id", "9223372036854775808"}, {"ts", "x"},
		{"ts", "0001-01-01"}, {"ts", "9999-12-31"},
	} {
		p := MustNew(WithSeed("ingest"))
		if err := p.LoadRecords("stamps", []string{"id", "ts"}, [][]string{{"1", "2024-01-01"}}); err != nil {
			t.Fatal(err)
		}
		in, err := p.Ingest("stamps")
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Append("2", "20240102"); err != nil {
			t.Fatalf("a separator-free date was refused: %v", err)
		}
		row := []string{"3", "2024-01-03"}
		if bad.column == "id" {
			row[0] = bad.cell
		} else {
			row[1] = bad.cell
		}
		err = in.Append(row...)
		var ce *table.CellError
		if !errors.As(err, &ce) || ce.Column != bad.column || ce.Cell != bad.cell {
			t.Fatalf("Append(%q) = %v, want a CellError for column %s cell %q", row, err, bad.column, bad.cell)
		}
		if got := in.Pending(); got != 1 {
			t.Fatalf("%q: %d rows pending after the refusal, want 1", bad.cell, got)
		}
		err = p.AppendRecords("stamps", [][]string{{"4", "2024-01-04"}, row, {"5", "2024-01-05"}})
		if !errors.As(err, &ce) || ce.Column != bad.column {
			t.Fatalf("AppendRecords with %q = %v, want a CellError for column %s", bad.cell, err, bad.column)
		}
		got := queryStrings(t, p, "SELECT id, ts FROM stamps ORDER BY id")
		want := [][]string{{"1", "2024-01-01 00:00:00"}, {"2", "2024-01-02 00:00:00"}, {"4", "2024-01-04 00:00:00"}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: table holds %q, want %q", bad.cell, got, want)
		}
	}
}
