package datalab

import (
	"context"
	"strings"
	"testing"
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

// TestIngestorAppendAllocatesNothingPerRow: Append infers and coerces each
// cell straight into the table's arena under one lock, so all that is left
// is the arena's amortized growth; a missing cell is still NULL and an
// extra one still ignored.
func TestIngestorAppendAllocatesNothingPerRow(t *testing.T) {
	p := ingestPlatform(t)
	in, err := p.Ingest("events")
	if err != nil {
		t.Fatal(err)
	}
	row := []string{"7", "12.75"}
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
