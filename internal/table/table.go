package table

import (
	"fmt"
	"strings"
)

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []Column
}

// New creates an empty table with the given column names and kinds.
// names and kinds must have equal length.
func New(name string, names []string, kinds []Kind) (*Table, error) {
	if len(names) != len(kinds) {
		return nil, fmt.Errorf("table %s: %d names but %d kinds", name, len(names), len(kinds))
	}
	seen := make(map[string]bool, len(names))
	cols := make([]Column, len(names))
	for i, n := range names {
		key := strings.ToLower(n)
		if seen[key] {
			return nil, fmt.Errorf("table %s: duplicate column %q", name, n)
		}
		seen[key] = true
		cols[i] = Column{Name: n, Kind: kinds[i]}
	}
	return &Table{Name: name, Columns: cols}, nil
}

// MustNew is New that panics on error, for literals in tests and generators.
func MustNew(name string, names []string, kinds []Kind) *Table {
	t, err := New(name, names, kinds)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Columns) }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// ColumnIndex returns the index of the named column (case-insensitive),
// or -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// AppendRow appends one row. The number of values must match the column
// count. NULL, or a value of its column's kind, goes in as is; any other
// value goes in as its text would (Kind.Parse of its AsString), or the row
// is refused with a *CellError naming the column and nothing is appended.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: append %d values to %d columns", t.Name, len(vals), len(t.Columns))
	}
	var parsed []Value // a copy of vals, made at the first foreign-kind value
	for i := range t.Columns {
		col, v := &t.Columns[i], vals[i]
		if v.IsNull() || v.Kind == col.Kind {
			continue
		}
		text := v.AsString()
		p, ok := col.Kind.Parse(text)
		if !ok {
			return fmt.Errorf("table %s: %w", t.Name, &CellError{Column: col.Name, Kind: col.Kind, Cell: text})
		}
		if parsed == nil {
			parsed = append([]Value(nil), vals...)
		}
		parsed[i] = p
	}
	if parsed != nil {
		vals = parsed
	}
	for i := range t.Columns {
		t.Columns[i].Append(vals[i])
	}
	return nil
}

// MustAppendRow is AppendRow that panics on error.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Columns: make([]Column, len(t.Columns))}
	for i := range t.Columns {
		out.Columns[i] = t.Columns[i].CloneData()
	}
	return out
}

// SelectRows returns a new table containing the given row indices in order.
func (t *Table) SelectRows(idx []int) *Table {
	out := &Table{Name: t.Name, Columns: make([]Column, len(t.Columns))}
	for i := range t.Columns {
		out.Columns[i] = t.Columns[i].Gather(idx, nil)
	}
	return out
}

// Filter returns the rows for which pred returns true.
func (t *Table) Filter(pred func(row int) bool) *Table {
	var idx []int
	for i, n := 0, t.NumRows(); i < n; i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	return t.SelectRows(idx)
}

func (t *Table) rowKey(i int) string {
	var kb []byte
	for j := range t.Columns {
		kb = t.Columns[j].AppendKey(kb, i)
	}
	return string(kb)
}

// String renders a compact preview (up to 10 rows) for logs and examples.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d rows)\n", t.Name, t.NumRows())
	sb.WriteString(strings.Join(t.ColumnNames(), " | "))
	sb.WriteByte('\n')
	n := t.NumRows()
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		cells := make([]string, len(t.Columns))
		for j := range t.Columns {
			cells[j] = t.Columns[j].Value(i).AsString()
		}
		sb.WriteString(strings.Join(cells, " | "))
		sb.WriteByte('\n')
	}
	if t.NumRows() > 10 {
		fmt.Fprintf(&sb, "... %d more rows\n", t.NumRows()-10)
	}
	return sb.String()
}

// EqualData reports whether two tables hold the same rows as multisets,
// ignoring row order, column names, and table names — the execution-
// equivalence notion used by the EX metric. Column order matters (the
// benchmarks compare SELECT lists positionally).
func EqualData(a, b *Table) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	counts := make(map[string]int, a.NumRows())
	for i, n := 0, a.NumRows(); i < n; i++ {
		counts[a.rowKey(i)]++
	}
	for i, n := 0, b.NumRows(); i < n; i++ {
		key := b.rowKey(i)
		counts[key]--
		if counts[key] < 0 {
			return false
		}
	}
	return true
}
