package table

import (
	"fmt"
	"sort"
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
// count; values are coerced to the column kinds.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: append %d values to %d columns", t.Name, len(vals), len(t.Columns))
	}
	for i := range t.Columns {
		t.Columns[i].Append(vals[i].Coerce(t.Columns[i].Kind))
	}
	return nil
}

// MustAppendRow is AppendRow that panics on error.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Row materializes row i as a value slice.
func (t *Table) Row(i int) []Value {
	row := make([]Value, len(t.Columns))
	for j := range t.Columns {
		row[j] = t.Columns[j].Value(i)
	}
	return row
}

// Get returns the cell at (row, col name). NULL for unknown columns.
func (t *Table) Get(row int, col string) Value {
	idx := t.ColumnIndex(col)
	if idx < 0 || row < 0 || row >= t.NumRows() {
		return Null()
	}
	return t.Columns[idx].Value(row)
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Columns: make([]Column, len(t.Columns))}
	for i := range t.Columns {
		out.Columns[i] = t.Columns[i].CloneData()
	}
	return out
}

// Slice returns rows [lo, hi) as a new table sharing no storage.
func (t *Table) Slice(lo, hi int) *Table {
	n := t.NumRows()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	out := &Table{Name: t.Name, Columns: make([]Column, len(t.Columns))}
	for i := range t.Columns {
		out.Columns[i] = t.Columns[i].SliceRange(lo, hi)
	}
	return out
}

// SelectRows returns a new table containing the given row indices in order.
func (t *Table) SelectRows(idx []int) *Table {
	out := &Table{Name: t.Name, Columns: make([]Column, len(t.Columns))}
	for i := range t.Columns {
		out.Columns[i] = t.Columns[i].Gather(idx)
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

// SortKey describes one sort criterion.
type SortKey struct {
	Column string
	Desc   bool
}

// Sort returns a new table stably sorted by the given keys.
func (t *Table) Sort(keys ...SortKey) (*Table, error) {
	colIdx := make([]int, len(keys))
	for i, k := range keys {
		ci := t.ColumnIndex(k.Column)
		if ci < 0 {
			return nil, fmt.Errorf("table %s: sort on unknown column %q", t.Name, k.Column)
		}
		colIdx[i] = ci
	}
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for i, k := range keys {
			c := Compare(t.Columns[colIdx[i]].Value(ra), t.Columns[colIdx[i]].Value(rb))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return t.SelectRows(idx), nil
}

// Limit returns at most n leading rows.
func (t *Table) Limit(n int) *Table {
	if n < 0 || n >= t.NumRows() {
		return t.Clone()
	}
	return t.Slice(0, n)
}

// Distinct returns the table with duplicate rows removed, keeping first
// occurrences in order.
func (t *Table) Distinct() *Table {
	seen := make(map[string]bool)
	var idx []int
	for i, n := 0, t.NumRows(); i < n; i++ {
		key := t.rowKey(i)
		if !seen[key] {
			seen[key] = true
			idx = append(idx, i)
		}
	}
	return t.SelectRows(idx)
}

func (t *Table) rowKey(i int) string {
	var sb strings.Builder
	for j := range t.Columns {
		sb.WriteString(t.Columns[j].Value(i).Key())
		sb.WriteByte('\x1f')
	}
	return sb.String()
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
