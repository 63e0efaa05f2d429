package table

import "fmt"

// Column is a named vector of cells of one Kind stored columnar: one typed
// Go slice (selected by Kind) plus a null bitmap. Hot paths — vectorized
// filters, aggregates, joins — read the typed slices directly via
// Ints/Floats/Strings; row-at-a-time callers read and write Values through
// Value/Append/Set. Every non-NULL cell has the column's Kind: appending or
// setting a value of another kind is a caller's bug and panics
// (Kind.Coerce converts a value where a conversion is meant), and a
// KindNull column holds NULLs only.
type Column struct {
	Name string
	Kind Kind

	length int
	nulls  []bool // parallel to the active typed slice; true = NULL

	ints   []int64 // an int cell, or a time cell's UTC Unix nanoseconds
	floats []float64
	strs   []string
	bools  []bool

	// coding holds a published string column's dictionary codes beside
	// strs (see Codes). One pointer, not two slice headers: a Column is
	// copied into every view, snapshot and result.
	coding *coding
	// zones holds an Appender-published int column's per-block
	// min/max (see zoneMap), shared by every prefix view of it.
	zones *zoneMap
}

// coding is a string column's dictionary encoding: dict[codes[i]] is cell
// i's string, and a NULL cell has code 0. Only an Appender assigns codes,
// when it publishes (Appender.code); a view, gather or copy of a coded
// column carries them in a coding of its own.
type coding struct {
	codes []int32
	dict  []string
}

// slice returns the coding of cells [lo, hi) in a struct of its own — the
// codes sliced, the dictionary capped at its length — or nil when the
// codes do not cover them.
func (cd *coding) slice(lo, hi int) *coding {
	if cd == nil || hi > len(cd.codes) {
		return nil
	}
	return &coding{codes: cd.codes[lo:hi:hi], dict: cd.dict[:len(cd.dict):len(cd.dict)]}
}

// NewColumn returns an empty column with the given name and kind.
func NewColumn(name string, kind Kind) Column {
	return Column{Name: name, Kind: kind}
}

// ColumnFromInts builds an int64 column from raw storage. nulls may be nil
// (no NULLs); otherwise it must parallel vals. The slices are adopted, not
// copied.
func ColumnFromInts(name string, vals []int64, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindInt, length: len(vals), ints: vals, nulls: nulls}
}

// ColumnFromFloats builds a float64 column from raw storage (adopted).
func ColumnFromFloats(name string, vals []float64, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindFloat, length: len(vals), floats: vals, nulls: nulls}
}

// ColumnFromStrings builds a string column from raw storage (adopted).
func ColumnFromStrings(name string, vals []string, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindString, length: len(vals), strs: vals, nulls: nulls}
}

// ColumnFromBools builds a boolean column from raw storage (adopted).
func ColumnFromBools(name string, vals []bool, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindBool, length: len(vals), bools: vals, nulls: nulls}
}

// ColumnFromTimes builds a timestamp column from raw storage (adopted):
// each cell is its instant's UTC Unix nanoseconds.
func ColumnFromTimes(name string, vals []int64, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindTime, length: len(vals), ints: vals, nulls: nulls}
}

// Len returns the number of cells.
func (c *Column) Len() int { return c.length }

// Ints returns the typed storage of an int column: values, null bitmap, ok.
// ok is false for a column of another kind. Callers must not mutate.
func (c *Column) Ints() ([]int64, []bool, bool) {
	if c.Kind != KindInt {
		return nil, nil, false
	}
	return c.ints, c.nulls, true
}

// Floats returns the typed storage of a float column.
func (c *Column) Floats() ([]float64, []bool, bool) {
	if c.Kind != KindFloat {
		return nil, nil, false
	}
	return c.floats, c.nulls, true
}

// Strings returns the typed storage of a string column.
func (c *Column) Strings() ([]string, []bool, bool) {
	if c.Kind != KindString {
		return nil, nil, false
	}
	return c.strs, c.nulls, true
}

// Bools returns the typed storage of a boolean column.
func (c *Column) Bools() ([]bool, []bool, bool) {
	if c.Kind != KindBool {
		return nil, nil, false
	}
	return c.bools, c.nulls, true
}

// Times returns the typed storage of a timestamp column: each cell's UTC
// Unix nanoseconds.
func (c *Column) Times() ([]int64, []bool, bool) {
	if c.Kind != KindTime {
		return nil, nil, false
	}
	return c.ints, c.nulls, true
}

// Codes returns a typed string column's dictionary codes: dict[codes[i]] is
// cell i's string unless nulls[i] is set, in which case codes[i] is 0. ok
// is false unless the codes cover every cell — for every column no
// Appender published (see Appender.code), and once a cell was Set.
// Callers must not mutate.
func (c *Column) Codes() (codes []int32, dict []string, nulls []bool, ok bool) {
	if cd := c.coding; cd != nil && len(cd.codes) == c.length {
		return cd.codes, cd.dict, c.nulls, true
	}
	return nil, nil, nil, false
}

// Value returns cell i as a Value.
func (c *Column) Value(i int) Value {
	if c.nulls[i] {
		return Value{}
	}
	switch c.Kind {
	case KindInt, KindTime:
		return Value{Kind: c.Kind, I: c.ints[i]}
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.strs[i])
	case KindBool:
		return Bool(c.bools[i])
	default:
		return Value{}
	}
}

// Values materializes the column as a fresh []Value slice.
func (c *Column) Values() []Value {
	out := make([]Value, c.length)
	for i := range out {
		out[i] = c.Value(i)
	}
	return out
}

// Append appends one cell: NULL, or a value of the column's kind.
func (c *Column) Append(v Value) {
	if !v.IsNull() && v.Kind != c.Kind {
		c.refuse(v)
	}
	c.nulls = append(c.nulls, v.IsNull())
	switch c.Kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, v.I)
	case KindFloat:
		c.floats = append(c.floats, v.F)
	case KindString:
		c.strs = append(c.strs, v.S)
	case KindBool:
		c.bools = append(c.bools, v.B)
	}
	c.length++
}

// refuse panics for v, a value of another kind than c's.
func (c *Column) refuse(v Value) {
	panic(fmt.Sprintf("table: column %q of kind %s cannot hold the %s value %v", c.Name, c.Kind, v.Kind, v))
}

// AppendNull appends a NULL cell.
func (c *Column) AppendNull() { c.Append(Value{}) }

// AppendColumn appends every cell of src, slab-at-a-time on the raw
// slices. src must have c's kind.
func (c *Column) AppendColumn(src *Column) {
	if src.Kind != c.Kind {
		panic(fmt.Sprintf("table: column %q of kind %s cannot take the %s column %q", c.Name, c.Kind, src.Kind, src.Name))
	}
	c.nulls = append(c.nulls, src.nulls...)
	switch c.Kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, src.ints...)
	case KindFloat:
		c.floats = append(c.floats, src.floats...)
	case KindString:
		c.strs = append(c.strs, src.strs...)
	case KindBool:
		c.bools = append(c.bools, src.bools...)
	}
	c.length += src.length
}

// Set overwrites cell i with NULL or a value of the column's kind,
// dropping the column's codes and zones.
func (c *Column) Set(i int, v Value) {
	if !v.IsNull() && v.Kind != c.Kind {
		c.refuse(v)
	}
	c.coding, c.zones = nil, nil
	c.nulls[i] = v.IsNull()
	switch c.Kind {
	case KindInt, KindTime:
		c.ints[i] = v.I
	case KindFloat:
		c.floats[i] = v.F
	case KindString:
		c.strs[i] = v.S
	case KindBool:
		c.bools[i] = v.B
	}
}

// Grow preallocates capacity for n additional cells.
func (c *Column) Grow(n int) {
	c.nulls = append(make([]bool, 0, c.length+n), c.nulls...)
	switch c.Kind {
	case KindInt, KindTime:
		c.ints = append(make([]int64, 0, c.length+n), c.ints...)
	case KindFloat:
		c.floats = append(make([]float64, 0, c.length+n), c.floats...)
	case KindString:
		c.strs = append(make([]string, 0, c.length+n), c.strs...)
	case KindBool:
		c.bools = append(make([]bool, 0, c.length+n), c.bools...)
	}
}

// Gather returns a new column holding, for each output position j, cell
// idx[j] — or NULL where pad[j] is true, in which case idx[j] is ignored.
// A nil pad pads nothing. Padding is the only way to ask for a NULL: a
// negative index is out of range like any other. Outer joins and the
// empty global group pad this way. A coded column's codes are gathered
// too, a padded or NULL cell taking code 0.
func (c *Column) Gather(idx []int, pad []bool) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: len(idx)}
	out.nulls = make([]bool, len(idx))
	switch c.Kind {
	case KindInt, KindTime:
		out.ints = gatherTyped(c.ints, c.nulls, idx, pad, out.nulls)
	case KindFloat:
		out.floats = gatherTyped(c.floats, c.nulls, idx, pad, out.nulls)
	case KindString:
		out.strs = gatherTyped(c.strs, c.nulls, idx, pad, out.nulls)
		if codes, dict, _, ok := c.Codes(); ok {
			out.coding = &coding{codes: gatherTyped(codes, c.nulls, idx, pad, out.nulls), dict: dict[:len(dict):len(dict)]}
		}
	case KindBool:
		out.bools = gatherTyped(c.bools, c.nulls, idx, pad, out.nulls)
	default:
		for j := range out.nulls {
			out.nulls[j] = true
		}
	}
	return out
}

// gatherTyped is Gather's copy loop over one kind's typed slice: it
// returns vals at idx and sets nulls[j] where output j is padded or its
// source cell is NULL, leaving the zero value there.
func gatherTyped[T any](vals []T, srcNulls []bool, idx []int, pad, nulls []bool) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		if (pad != nil && pad[j]) || srcNulls[i] {
			nulls[j] = true
		} else {
			out[j] = vals[i]
		}
	}
	return out
}

// GatherSel returns a new column holding the selected cells in order. Span
// runs are copied range-at-a-time (memcpy on the typed slices) instead of
// cell-at-a-time; dense selections delegate to Gather. A nil selection
// selects nothing. Unlike View, the result owns its storage, all but a
// coded column's dictionary, which is shared read-only.
func (c *Column) GatherSel(s *Selection) Column {
	spans, ok := s.Spans()
	if !ok {
		return c.Gather(s.Indices(), nil)
	}
	return c.copySpans(spans, s.Len())
}

// copySpans returns a new column holding the cells of spans in order; n
// is the number of cells they cover.
func (c *Column) copySpans(spans []Span, n int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: n}
	out.nulls = copyTypedSpans(c.nulls, spans, n)
	switch c.Kind {
	case KindInt, KindTime:
		out.ints = copyTypedSpans(c.ints, spans, n)
	case KindFloat:
		out.floats = copyTypedSpans(c.floats, spans, n)
	case KindString:
		out.strs = copyTypedSpans(c.strs, spans, n)
		if codes, dict, _, ok := c.Codes(); ok {
			out.coding = &coding{codes: copyTypedSpans(codes, spans, n), dict: dict[:len(dict):len(dict)]}
		}
	case KindBool:
		out.bools = copyTypedSpans(c.bools, spans, n)
	}
	return out
}

// copyTypedSpans is copySpans' copy loop over one typed slice.
func copyTypedSpans[T any](vals []T, spans []Span, n int) []T {
	out := make([]T, 0, n)
	for _, sp := range spans {
		out = append(out, vals[sp.Lo:sp.Hi]...)
	}
	return out
}

// View returns a zero-copy view of cells [lo, hi): the result shares
// storage with c. Views are strictly read-only — appending to or setting a
// cell of a view would clobber (or race with) the parent column — and are
// only handed to code that treats relation columns as immutable. A coded
// column's view carries the codes of its cells, and a prefix view (lo 0)
// of a zoned column shares its zones, which a reader bounds by its own
// length.
func (c *Column) View(lo, hi int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: hi - lo}
	out.nulls = c.nulls[lo:hi:hi]
	switch c.Kind {
	case KindInt, KindTime:
		out.ints = c.ints[lo:hi:hi]
		if lo == 0 {
			out.zones = c.zones
		}
	case KindFloat:
		out.floats = c.floats[lo:hi:hi]
	case KindString:
		out.strs = c.strs[lo:hi:hi]
		out.coding = c.coding.slice(lo, hi)
	case KindBool:
		out.bools = c.bools[lo:hi:hi]
	}
	return out
}

// CloneData deep-copies the column.
func (c *Column) CloneData() Column {
	return c.copySpans([]Span{{0, c.length}}, c.length)
}

// IsNullAt reports whether cell i is NULL without making its Value.
func (c *Column) IsNullAt(i int) bool { return c.nulls[i] }

// AppendKey appends cell i's equality key to dst: the bytes
// AppendKey(dst, c.Value(i)) appends, read from typed storage (a bool
// cell, rarely a key, goes through its Value).
func (c *Column) AppendKey(dst []byte, i int) []byte {
	if !c.nulls[i] {
		switch c.Kind {
		case KindInt:
			return appendIntKey(dst, c.ints[i])
		case KindFloat:
			return appendRealKey(dst, c.floats[i])
		case KindString:
			return appendStringKey(dst, c.strs[i])
		case KindTime:
			return appendTimeKey(dst, c.ints[i])
		}
	}
	return AppendKey(dst, c.Value(i))
}

// FloatAt returns cell i as a float64, as Value.AsFloat converts it. ok is
// false for NULLs and non-numeric cells.
func (c *Column) FloatAt(i int) (float64, bool) {
	switch {
	case c.nulls[i]:
		return 0, false
	case c.Kind == KindInt:
		return float64(c.ints[i]), true
	case c.Kind == KindFloat:
		return c.floats[i], true
	}
	return c.Value(i).AsFloat()
}
