package table

import "time"

// Column is a named, typed vector of cells stored columnar: one typed Go
// slice (selected by Kind) plus a null bitmap, instead of a slice of boxed
// Value structs. Hot paths — vectorized filters, aggregates, joins — read
// the typed slices directly via Ints/Floats/Strings; row-at-a-time callers
// keep the boxed view through Value/Append/Set.
//
// A column whose cells all share the declared Kind stays in typed storage.
// Appending (or Setting) a non-null cell of a different kind degrades the
// column to boxed storage ([]Value), preserving the old heterogeneous
// semantics exactly; typed accessors then report ok=false and callers fall
// back to the scalar path.
type Column struct {
	Name string
	Kind Kind

	length int
	nulls  []bool // parallel to the active typed slice; true = NULL

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	times  []time.Time

	boxed []Value // non-nil => authoritative mixed-kind storage
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

// ColumnFromTimes builds a timestamp column from raw storage (adopted).
func ColumnFromTimes(name string, vals []time.Time, nulls []bool) Column {
	if nulls == nil {
		nulls = make([]bool, len(vals))
	}
	return Column{Name: name, Kind: KindTime, length: len(vals), times: vals, nulls: nulls}
}

// ColumnOf builds a column of the given kind from boxed values. Values of
// mismatched kinds degrade the column to boxed storage, preserving them
// exactly.
func ColumnOf(name string, kind Kind, vals []Value) Column {
	c := NewColumn(name, kind)
	c.Grow(len(vals))
	for _, v := range vals {
		c.Append(v)
	}
	return c
}

// Len returns the number of cells.
func (c *Column) Len() int { return c.length }

// IsTyped reports whether the column is in typed (non-boxed) storage.
func (c *Column) IsTyped() bool { return c.boxed == nil }

// Ints returns the typed storage of an int column: values, null bitmap, ok.
// ok is false for boxed or non-int columns. Callers must not mutate.
func (c *Column) Ints() ([]int64, []bool, bool) {
	if c.boxed != nil || c.Kind != KindInt {
		return nil, nil, false
	}
	return c.ints, c.nulls, true
}

// Floats returns the typed storage of a float column.
func (c *Column) Floats() ([]float64, []bool, bool) {
	if c.boxed != nil || c.Kind != KindFloat {
		return nil, nil, false
	}
	return c.floats, c.nulls, true
}

// Strings returns the typed storage of a string column.
func (c *Column) Strings() ([]string, []bool, bool) {
	if c.boxed != nil || c.Kind != KindString {
		return nil, nil, false
	}
	return c.strs, c.nulls, true
}

// Bools returns the typed storage of a boolean column.
func (c *Column) Bools() ([]bool, []bool, bool) {
	if c.boxed != nil || c.Kind != KindBool {
		return nil, nil, false
	}
	return c.bools, c.nulls, true
}

// Times returns the typed storage of a timestamp column.
func (c *Column) Times() ([]time.Time, []bool, bool) {
	if c.boxed != nil || c.Kind != KindTime {
		return nil, nil, false
	}
	return c.times, c.nulls, true
}

// Value returns cell i as a boxed Value.
func (c *Column) Value(i int) Value {
	if c.boxed != nil {
		return c.boxed[i]
	}
	return c.typedValue(i)
}

func (c *Column) typedValue(i int) Value {
	if c.nulls[i] {
		return Value{}
	}
	switch c.Kind {
	case KindInt:
		return Int(c.ints[i])
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.strs[i])
	case KindBool:
		return Bool(c.bools[i])
	case KindTime:
		return Time(c.times[i])
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

// degrade converts typed storage to boxed storage in place.
func (c *Column) degrade() {
	if c.boxed != nil {
		return
	}
	vals := make([]Value, c.length)
	for i := range vals {
		vals[i] = c.typedValue(i)
	}
	c.boxed = vals
	c.nulls, c.ints, c.floats, c.strs, c.bools, c.times = nil, nil, nil, nil, nil, nil
}

// Append appends one cell. Values whose kind matches the column kind go to
// typed storage; NULLs set the null bit; anything else degrades the column
// to boxed storage.
func (c *Column) Append(v Value) {
	if c.boxed == nil && c.Kind == KindNull && !v.IsNull() {
		c.degrade()
	}
	if c.boxed != nil {
		c.boxed = append(c.boxed, v)
		c.length++
		return
	}
	if !v.IsNull() && v.Kind != c.Kind {
		c.degrade()
		c.boxed = append(c.boxed, v)
		c.length++
		return
	}
	c.nulls = append(c.nulls, v.IsNull())
	switch c.Kind {
	case KindInt:
		c.ints = append(c.ints, v.I)
	case KindFloat:
		c.floats = append(c.floats, v.F)
	case KindString:
		c.strs = append(c.strs, v.S)
	case KindBool:
		c.bools = append(c.bools, v.B)
	case KindTime:
		c.times = append(c.times, v.T)
	}
	c.length++
}

// AppendNull appends a NULL cell.
func (c *Column) AppendNull() { c.Append(Value{}) }

// AppendColumn appends every cell of src, preserving each cell's stored
// kind. When both columns are typed with the same kind the copy is
// slab-at-a-time on the raw slices; otherwise it goes cell-at-a-time with
// the raw cell value, degrading c to boxed storage when kinds differ —
// exactly reproducing the state src was in.
func (c *Column) AppendColumn(src *Column) {
	if c.boxed == nil && src.boxed == nil && c.Kind == src.Kind {
		c.nulls = append(c.nulls, src.nulls...)
		switch c.Kind {
		case KindInt:
			c.ints = append(c.ints, src.ints...)
		case KindFloat:
			c.floats = append(c.floats, src.floats...)
		case KindString:
			c.strs = append(c.strs, src.strs...)
		case KindBool:
			c.bools = append(c.bools, src.bools...)
		case KindTime:
			c.times = append(c.times, src.times...)
		}
		c.length += src.length
		return
	}
	for i := 0; i < src.length; i++ {
		c.Append(src.Value(i))
	}
}

// Set overwrites cell i.
func (c *Column) Set(i int, v Value) {
	if c.boxed == nil && !v.IsNull() && v.Kind != c.Kind {
		c.degrade()
	}
	if c.boxed != nil {
		c.boxed[i] = v
		return
	}
	c.nulls[i] = v.IsNull()
	switch c.Kind {
	case KindInt:
		c.ints[i] = v.I
	case KindFloat:
		c.floats[i] = v.F
	case KindString:
		c.strs[i] = v.S
	case KindBool:
		c.bools[i] = v.B
	case KindTime:
		c.times[i] = v.T
	}
}

// Grow preallocates capacity for n additional cells.
func (c *Column) Grow(n int) {
	if c.boxed != nil {
		c.boxed = append(make([]Value, 0, c.length+n), c.boxed...)
		return
	}
	c.nulls = append(make([]bool, 0, c.length+n), c.nulls...)
	switch c.Kind {
	case KindInt:
		c.ints = append(make([]int64, 0, c.length+n), c.ints...)
	case KindFloat:
		c.floats = append(make([]float64, 0, c.length+n), c.floats...)
	case KindString:
		c.strs = append(make([]string, 0, c.length+n), c.strs...)
	case KindBool:
		c.bools = append(make([]bool, 0, c.length+n), c.bools...)
	case KindTime:
		c.times = append(make([]time.Time, 0, c.length+n), c.times...)
	}
}

// Gather returns a new column holding the cells at the given indices in
// order. A negative index yields NULL (used for outer-join padding).
func (c *Column) Gather(idx []int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: len(idx)}
	if c.boxed != nil {
		vals := make([]Value, len(idx))
		for j, i := range idx {
			if i >= 0 {
				vals[j] = c.boxed[i]
			}
		}
		out.boxed = vals
		return out
	}
	out.nulls = make([]bool, len(idx))
	switch c.Kind {
	case KindInt:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			if i < 0 || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.ints[j] = c.ints[i]
			}
		}
	case KindFloat:
		out.floats = make([]float64, len(idx))
		for j, i := range idx {
			if i < 0 || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.floats[j] = c.floats[i]
			}
		}
	case KindString:
		out.strs = make([]string, len(idx))
		for j, i := range idx {
			if i < 0 || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.strs[j] = c.strs[i]
			}
		}
	case KindBool:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			if i < 0 || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.bools[j] = c.bools[i]
			}
		}
	case KindTime:
		out.times = make([]time.Time, len(idx))
		for j, i := range idx {
			if i < 0 || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.times[j] = c.times[i]
			}
		}
	default:
		for j := range idx {
			out.nulls[j] = true
		}
	}
	return out
}

// GatherPairs returns a new column holding, for each output position j,
// cell idx[j] — or NULL where nulls[j] is true, in which case idx[j] is
// ignored. It is the join materialization primitive: outer joins express
// padding as an explicit null mask instead of sentinel indices, so idx
// stays a plain gather list of valid rows. A nil nulls mask means no
// padding and is equivalent to Gather over non-negative indices.
func (c *Column) GatherPairs(idx []int, nulls []bool) Column {
	if nulls == nil {
		return c.Gather(idx)
	}
	out := Column{Name: c.Name, Kind: c.Kind, length: len(idx)}
	if c.boxed != nil {
		vals := make([]Value, len(idx))
		for j, i := range idx {
			if !nulls[j] {
				vals[j] = c.boxed[i]
			}
		}
		out.boxed = vals
		return out
	}
	out.nulls = make([]bool, len(idx))
	switch c.Kind {
	case KindInt:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			if nulls[j] || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.ints[j] = c.ints[i]
			}
		}
	case KindFloat:
		out.floats = make([]float64, len(idx))
		for j, i := range idx {
			if nulls[j] || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.floats[j] = c.floats[i]
			}
		}
	case KindString:
		out.strs = make([]string, len(idx))
		for j, i := range idx {
			if nulls[j] || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.strs[j] = c.strs[i]
			}
		}
	case KindBool:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			if nulls[j] || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.bools[j] = c.bools[i]
			}
		}
	case KindTime:
		out.times = make([]time.Time, len(idx))
		for j, i := range idx {
			if nulls[j] || c.nulls[i] {
				out.nulls[j] = true
			} else {
				out.times[j] = c.times[i]
			}
		}
	default:
		for j := range idx {
			out.nulls[j] = true
		}
	}
	return out
}

// GatherSel returns a new column holding the selected cells in order. Span
// runs are copied range-at-a-time (memcpy on the typed slices) instead of
// cell-at-a-time; dense selections delegate to Gather. A nil selection
// selects nothing. Unlike View, the result always owns its storage.
func (c *Column) GatherSel(s *Selection) Column {
	spans, ok := s.Spans()
	if !ok {
		return c.Gather(s.Indices())
	}
	n := s.Len()
	out := Column{Name: c.Name, Kind: c.Kind, length: n}
	if c.boxed != nil {
		out.boxed = make([]Value, 0, n)
		for _, sp := range spans {
			out.boxed = append(out.boxed, c.boxed[sp.Lo:sp.Hi]...)
		}
		return out
	}
	out.nulls = make([]bool, 0, n)
	for _, sp := range spans {
		out.nulls = append(out.nulls, c.nulls[sp.Lo:sp.Hi]...)
	}
	switch c.Kind {
	case KindInt:
		out.ints = make([]int64, 0, n)
		for _, sp := range spans {
			out.ints = append(out.ints, c.ints[sp.Lo:sp.Hi]...)
		}
	case KindFloat:
		out.floats = make([]float64, 0, n)
		for _, sp := range spans {
			out.floats = append(out.floats, c.floats[sp.Lo:sp.Hi]...)
		}
	case KindString:
		out.strs = make([]string, 0, n)
		for _, sp := range spans {
			out.strs = append(out.strs, c.strs[sp.Lo:sp.Hi]...)
		}
	case KindBool:
		out.bools = make([]bool, 0, n)
		for _, sp := range spans {
			out.bools = append(out.bools, c.bools[sp.Lo:sp.Hi]...)
		}
	case KindTime:
		out.times = make([]time.Time, 0, n)
		for _, sp := range spans {
			out.times = append(out.times, c.times[sp.Lo:sp.Hi]...)
		}
	}
	return out
}

// View returns a zero-copy view of cells [lo, hi): the result shares
// storage with c. Views are strictly read-only — appending to or setting a
// cell of a view would clobber (or race with) the parent column — and are
// only handed to code that treats relation columns as immutable.
func (c *Column) View(lo, hi int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: hi - lo}
	if c.boxed != nil {
		out.boxed = c.boxed[lo:hi:hi]
		return out
	}
	out.nulls = c.nulls[lo:hi:hi]
	switch c.Kind {
	case KindInt:
		out.ints = c.ints[lo:hi:hi]
	case KindFloat:
		out.floats = c.floats[lo:hi:hi]
	case KindString:
		out.strs = c.strs[lo:hi:hi]
	case KindBool:
		out.bools = c.bools[lo:hi:hi]
	case KindTime:
		out.times = c.times[lo:hi:hi]
	}
	return out
}

// SliceRange returns a copy of cells [lo, hi).
func (c *Column) SliceRange(lo, hi int) Column {
	out := Column{Name: c.Name, Kind: c.Kind, length: hi - lo}
	if c.boxed != nil {
		out.boxed = append([]Value(nil), c.boxed[lo:hi]...)
		return out
	}
	out.nulls = append([]bool(nil), c.nulls[lo:hi]...)
	switch c.Kind {
	case KindInt:
		out.ints = append([]int64(nil), c.ints[lo:hi]...)
	case KindFloat:
		out.floats = append([]float64(nil), c.floats[lo:hi]...)
	case KindString:
		out.strs = append([]string(nil), c.strs[lo:hi]...)
	case KindBool:
		out.bools = append([]bool(nil), c.bools[lo:hi]...)
	case KindTime:
		out.times = append([]time.Time(nil), c.times[lo:hi]...)
	}
	return out
}

// CloneData deep-copies the column.
func (c *Column) CloneData() Column {
	return c.SliceRange(0, c.length)
}

// IsNullAt reports whether cell i is NULL without boxing it.
func (c *Column) IsNullAt(i int) bool {
	if c.boxed != nil {
		return c.boxed[i].IsNull()
	}
	return c.nulls[i]
}

// FloatAt returns cell i as a float64 using the typed storage when
// possible. ok is false for NULLs and non-numeric cells.
func (c *Column) FloatAt(i int) (float64, bool) {
	if c.boxed == nil {
		if c.nulls[i] {
			return 0, false
		}
		switch c.Kind {
		case KindInt:
			return float64(c.ints[i]), true
		case KindFloat:
			return c.floats[i], true
		}
	}
	v := c.Value(i)
	if v.IsNull() {
		return 0, false
	}
	return v.AsFloat()
}
