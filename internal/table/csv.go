package table

import (
	"encoding/csv"
	"fmt"
	"io"
)

// ReadCSV parses CSV data with a header row into a table; see FromRecords
// for how columns are typed.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csv %s: missing header row", name)
	}
	return FromRecords(name, records[0], records[1:])
}

// FromRecords builds a table from a header and string records. Each cell
// is parsed once (Infer). A column's kind is the narrowest that represents
// all of its non-empty cells — promoting along Int -> Float -> String when
// cells disagree, Time/Bool demoting to String on any mismatch, an
// all-blank column being String — and a cell inferred to another kind is
// re-parsed from its own text by the column's kind (Kind.Parse): an int
// widens to float, and a text column keeps every cell's text as written.
// Rows shorter than the header are padded with NULL.
//
// Each column is typed in one pass, appending with the kind seen so far;
// when a cell widens the kind (at most twice a column), the rows before it
// are typed again by the rule above.
func FromRecords(name string, header []string, rows [][]string) (*Table, error) {
	t, err := New(name, header, make([]Kind, len(header)))
	if err != nil {
		return nil, err
	}
	for c := range t.Columns {
		col := &t.Columns[c]
		for i, row := range rows {
			v := Null()
			if c < len(row) {
				v = Infer(row[c])
			}
			if kind := Promote(col.Kind, v.Kind); kind != col.Kind {
				*col = recordColumn(col.Name, kind, rows[:i], c, len(rows))
			}
			appendRecordCell(col, v, row, c)
		}
		if col.Kind == KindNull {
			*col = recordColumn(col.Name, KindString, rows, c, len(rows))
		}
	}
	return t, nil
}

// recordColumn types cell c of each of rows as a column of kind, with
// room for capacity cells.
func recordColumn(name string, kind Kind, rows [][]string, c, capacity int) Column {
	col := NewColumn(name, kind)
	col.Grow(capacity)
	for _, row := range rows {
		v := Null()
		if c < len(row) {
			v = Infer(row[c])
		}
		appendRecordCell(&col, v, row, c)
	}
	return col
}

// appendRecordCell appends v, cell c of row as Infer read it, to col: as
// col's kind parses the cell's text when Infer gave another kind.
func appendRecordCell(col *Column, v Value, row []string, c int) {
	if !v.IsNull() && v.Kind != col.Kind {
		// Promote made the kind a float or text column, and those take
		// the text of every cell that widened into them.
		v, _ = col.Kind.Parse(row[c])
	}
	col.Append(v)
}

// WriteCSV renders the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	for i, n := 0, t.NumRows(); i < n; i++ {
		rec := make([]string, len(t.Columns))
		for j := range t.Columns {
			rec[j] = t.Columns[j].Value(i).AsString()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
