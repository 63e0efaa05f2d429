package table

import "math"

// Row order over typed columns. ColumnOrder turns one key column into a
// comparator over its positions, decided once per column rather than per
// row: a typed closure over the storage of an int, float, string, time or
// bool column, and "all equal" for a KindNull column, whose cells are all
// NULL. RowOrder chains such comparators key by key into the order an
// ORDER BY asks for.

// ColumnOrder returns the comparator over positions of c: Compare on the
// two cells, negated when desc, so NULLs sort first ascending and last
// descending. total is false when c is a float column holding a NaN:
// Compare makes NaN equal to every value, which is not an order a sort
// with a tie-break can rely on.
func ColumnOrder(c *Column, desc bool) (cmp func(a, b int) int, total bool) {
	sign := 1
	if desc {
		sign = -1
	}
	if vs, nulls, ok := c.Ints(); ok {
		return cellOrder(vs, nulls, sign), true
	}
	if vs, nulls, ok := c.Floats(); ok {
		total = true
		for j, f := range vs {
			if math.IsNaN(f) && !nulls[j] {
				total = false
				break
			}
		}
		return cellOrder(vs, nulls, sign), total
	}
	if vs, nulls, ok := c.Strings(); ok {
		return cellOrder(vs, nulls, sign), true
	}
	if vs, nulls, ok := c.Times(); ok {
		return cellOrder(vs, nulls, sign), true
	}
	if vs, nulls, ok := c.Bools(); ok {
		return boolOrder(vs, nulls, sign), true
	}
	return func(a, b int) int { return 0 }, true
}

// RowOrder returns the comparator over positions of the key columns cols,
// key i descending when desc[i]: negative when a sorts before b, zero when
// they are peers on every key — there is no position tie-break. total is
// false when any key's ColumnOrder is not total.
func RowOrder(cols []Column, desc []bool) (cmp func(a, b int) int, total bool) {
	total = true
	keys := make([]func(a, b int) int, len(cols))
	for i := range cols {
		var ok bool
		keys[i], ok = ColumnOrder(&cols[i], desc[i])
		total = total && ok
	}
	if len(keys) == 1 {
		return keys[0], total
	}
	return func(a, b int) int {
		for _, key := range keys {
			if c := key(a, b); c != 0 {
				return c
			}
		}
		return 0
	}, total
}

// cellOrder is Compare over one typed column's cells, times sign: NULL
// before every value, then ThreeWay's order, written out because the
// generic call is not inlined here: it took 12 % of the CPU of a top-K and
// a window statement.
func cellOrder[T int64 | float64 | string](vs []T, nulls []bool, sign int) func(a, b int) int {
	return func(a, b int) int {
		if nulls[a] || nulls[b] {
			return sign * nullOrder(nulls[a], nulls[b])
		}
		switch x, y := vs[a], vs[b]; {
		case x < y:
			return -sign
		case x > y:
			return sign
		}
		return 0
	}
}

// boolOrder is cellOrder for a bool column: false before true.
func boolOrder(vs []bool, nulls []bool, sign int) func(a, b int) int {
	return func(a, b int) int {
		if nulls[a] || nulls[b] {
			return sign * nullOrder(nulls[a], nulls[b])
		}
		return sign * nullOrder(!vs[a], !vs[b])
	}
}

// nullOrder orders two cells by whether they are NULL: a NULL before a
// value, two of a kind equal.
func nullOrder(na, nb bool) int {
	switch {
	case na == nb:
		return 0
	case na:
		return -1
	}
	return 1
}
