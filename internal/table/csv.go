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
// all-blank column being String — and every cell is coerced to it. Rows
// shorter than the header are padded with NULL.
func FromRecords(name string, header []string, rows [][]string) (*Table, error) {
	t, err := New(name, header, make([]Kind, len(header)))
	if err != nil {
		return nil, err
	}
	cells := make([]Value, len(rows)) // one column's cells, reused per column
	for c := range t.Columns {
		kind := KindNull
		for i, row := range rows {
			cells[i] = Null()
			if c < len(row) {
				cells[i] = Infer(row[c])
				kind = promote(kind, cells[i].Kind)
			}
		}
		if kind == KindNull {
			kind = KindString
		}
		col := &t.Columns[c]
		col.Kind = kind
		col.Grow(len(rows))
		for _, v := range cells {
			col.Append(v.Coerce(kind))
		}
	}
	return t, nil
}

// promote unifies two observed cell kinds into the narrowest column kind
// that can represent both.
func promote(a, b Kind) Kind {
	if a == KindNull {
		return b
	}
	if b == KindNull || a == b {
		return a
	}
	if (a == KindInt && b == KindFloat) || (a == KindFloat && b == KindInt) {
		return KindFloat
	}
	return KindString
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
