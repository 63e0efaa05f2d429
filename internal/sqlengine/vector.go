package sqlengine

import (
	"fmt"
	"strings"

	"datalab/internal/table"
)

// Vectorized expression evaluation, the engine's one evaluator: evalVec
// computes an expression over whole column vectors, optionally restricted
// by a selection vector. Every column it makes holds the node's kind, which
// kindOf (kind.go) decides from the operands' kinds. Where its operands'
// kinds allow, an operator runs one of two generic typed loops, zipColumn
// or mapColumn, over the per-cell definition eval.go's value-level library
// uses too; every other operand shape runs one per-row loop over the
// node's child columns that calls that library and builds the node's
// column through colBuilder. A child that a row-at-a-time walk would skip
// is evaluated only on the rows that reach it — AND/OR's right side on the
// rows the left leaves undecided, each CASE arm on the rows no earlier arm
// took, IN candidates on the rows not yet matched — so a child that raises
// on some rows raises exactly when a row walk would. Grouped statements
// evaluate over a relation of groups (vgroups, group.go). The differential
// tests check evalVec against a row-at-a-time oracle kept in the package's
// test files; the deliberate divergences are listed in docs/ARCHITECTURE.md.

// selLen returns the number of selected rows (sel == nil means all rows).
func selLen(rel *vrel, sel *table.Selection) int {
	if sel == nil {
		return rel.nrows
	}
	return sel.Len()
}

// evalVec evaluates e over the selected rows of rel, returning a column of
// length selLen(rel, sel). Columns returned for bare column references with
// a nil selection or a single-range selection share storage with rel (zero
// copy) and must be treated as read-only.
func evalVec(e Expr, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	switch x := e.(type) {
	case *Literal:
		return constColumn(x.Value, n), nil
	case *Param:
		v, err := bindAt(rel.x.binds, x)
		if err != nil {
			return table.Column{}, err
		}
		return constColumn(v, n), nil
	case *Subquery:
		return constColumn(rel.x.scalarSub(x.slot), n), nil
	case *ColumnRef:
		if rel.grp != nil {
			return rel.grp.firstRows(x.idx, sel, n), nil
		}
		i := x.idx
		if sel == nil {
			return rel.cols[i], nil
		}
		if lo, hi, ok := sel.AsRange(); ok {
			return rel.cols[i].View(lo, hi), nil
		}
		return rel.cols[i].GatherSel(sel), nil
	case *Binary:
		return evalVecBinary(x, rel, sel)
	case *Unary:
		return evalVecUnary(x, rel, sel)
	case *IsNull:
		col, err := evalVec(x.X, rel, sel)
		if err != nil {
			return table.Column{}, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = col.IsNullAt(i) != x.Not
		}
		return table.ColumnFromBools("", out, nil), nil
	case *Between:
		return evalVecBetween(x, rel, sel)
	case *In:
		return evalVecIn(x, rel, sel)
	case *CaseExpr:
		return evalVecCase(x, rel, sel)
	case *FuncCall:
		switch {
		case x.Over != nil:
			if rel.win == nil {
				return raiseOnRows(n, errWindowContext(x))
			}
			// Precomputed by the window stage over this same selection;
			// already positional, so it is the node's value column.
			return rel.win[x.slot], nil
		case isAggregate(x.Name):
			if rel.grp == nil {
				return raiseOnRows(n, errAggInRowContext(x))
			}
			return rel.grp.aggregate(x, sel, n)
		}
		return evalVecFunc(x, rel, sel)
	case Star:
		return raiseOnRows(n, fmt.Errorf("sql: '*' is only valid in SELECT list or COUNT(*)"))
	}
	return raiseOnRows(n, fmt.Errorf("sql: cannot evaluate %T", e))
}

// raiseOnRows is the value of a node that raises on every row it meets:
// the error when there are rows, an empty column when there are none.
func raiseOnRows(n int, err error) (table.Column, error) {
	if n > 0 {
		return table.Column{}, err
	}
	return nullColumn(table.KindNull, 0), nil
}

// evalOn evaluates e on the positions of sel that mask marks — count of
// them; a nil mask marks every position — and returns e's column over
// those positions, in order: the child of a node that a row walk reaches
// on some rows only. Window columns are positional, so they are cut down
// to the marked positions too.
func evalOn(e Expr, rel *vrel, sel *table.Selection, mask []bool, count int) (table.Column, error) {
	switch {
	case mask == nil || count == len(mask):
		return evalVec(e, rel, sel)
	case count == 0:
		return nullColumn(kindOf(e, rel), 0), nil
	}
	if rel.win != nil {
		pos := make([]int, 0, count)
		for i, m := range mask {
			if m {
				pos = append(pos, i)
			}
		}
		cut := *rel
		cut.win = make([]table.Column, len(rel.win))
		for k := range rel.win {
			cut.win[k] = rel.win[k].Gather(pos, nil)
		}
		rel = &cut
	}
	return evalVec(e, rel, sel.Pick(mask, nil))
}

// operand is one child's values over the positions a per-row loop visits:
// a column, or one constant for all of them — a literal, bound parameter
// or scalar subquery is never spread into a column there.
type operand struct {
	col   table.Column
	k     table.Value
	konst bool
}

func (o *operand) at(i int) table.Value {
	if o.konst {
		return o.k
	}
	return o.col.Value(i)
}

// evalOperand is evalOn for an operand of a per-row loop.
func evalOperand(e Expr, rel *vrel, sel *table.Selection, mask []bool, count int) (operand, error) {
	if k, ok := constExprValue(e, rel); ok {
		return operand{k: k, konst: true}, nil
	}
	col, err := evalOn(e, rel, sel, mask, count)
	return operand{col: col}, err
}

// evalRows is node e's per-row loop over n positions: f gets the
// operands' values at one position and returns e's value there.
func evalRows(e Expr, rel *vrel, n int, ops []operand, f func(args []table.Value) (table.Value, error)) (table.Column, error) {
	args := make([]table.Value, len(ops))
	b := newColBuilder(e, kindOf(e, rel), n)
	for i := 0; i < n; i++ {
		for k := range ops {
			args[k] = ops[k].at(i)
		}
		v, err := f(args)
		if err != nil {
			return table.Column{}, err
		}
		b.add(v)
	}
	return b.col, nil
}

// colBuilder appends node's values into a column of its kind, each
// converted by table.Kind.Coerce: an int widens into a float column, any
// value becomes its text in a string column. A value no conversion fits
// is an engine bug — the value library made a kind kindOf did not expect —
// and panics with the node's SQL.
type colBuilder struct {
	col  table.Column
	node Expr
}

func newColBuilder(node Expr, kind table.Kind, size int) colBuilder {
	b := colBuilder{col: table.NewColumn("", kind), node: node}
	b.col.Grow(size)
	return b
}

func (b *colBuilder) add(v table.Value) {
	if !v.IsNull() && v.Kind != b.col.Kind {
		c, ok := b.col.Kind.Coerce(v)
		if !ok {
			panic(fmt.Sprintf("sqlengine: %s made a %s value for its %s column", b.node.SQL(), v.Kind, b.col.Kind))
		}
		v = c
	}
	b.col.Append(v)
}

// nullColumn is n NULLs of kind k.
func nullColumn(k table.Kind, n int) table.Column {
	c := table.NewColumn("", k)
	c.Grow(n)
	for i := 0; i < n; i++ {
		c.AppendNull()
	}
	return c
}

// constExprValue resolves e to an execution-constant value when it is a
// literal, a bound parameter or a scalar subquery, letting the WHERE kernels
// and the typed LIKE/BETWEEN/IN loops accept them, and the per-row loops
// read them as one value.
func constExprValue(e Expr, rel *vrel) (table.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, true
	case *Param:
		v, err := bindAt(rel.x.binds, x)
		if err != nil {
			return table.Null(), false // not constant here; evalVec reports the error
		}
		return v, true
	case *Subquery:
		return rel.x.scalarSub(x.slot), true
	}
	return table.Null(), false
}

// constColumn materializes a constant as a constant vector.
func constColumn(v table.Value, n int) table.Column {
	switch v.Kind {
	case table.KindNull:
		return nullColumn(table.KindNull, n)
	case table.KindInt, table.KindTime:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v.I
		}
		if v.Kind == table.KindTime {
			return table.ColumnFromTimes("", vals, nil)
		}
		return table.ColumnFromInts("", vals, nil)
	case table.KindFloat:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = v.F
		}
		return table.ColumnFromFloats("", vals, nil)
	case table.KindString:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = v.S
		}
		return table.ColumnFromStrings("", vals, nil)
	}
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = v.B
	}
	return table.ColumnFromBools("", vals, nil)
}

// asFloats views a column as float64s when it is typed numeric (int or
// float). The returned slice is fresh for int columns and shared for float
// columns; callers must not mutate it.
func asFloats(c *table.Column) ([]float64, []bool, bool) {
	if fs, nulls, ok := c.Floats(); ok {
		return fs, nulls, true
	}
	if is, nulls, ok := c.Ints(); ok {
		fs := make([]float64, len(is))
		for i, v := range is {
			fs[i] = float64(v)
		}
		return fs, nulls, true
	}
	return nil, nil, false
}

func evalVecUnary(x *Unary, rel *vrel, sel *table.Selection) (table.Column, error) {
	col, err := evalVec(x.X, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	switch x.Op {
	case "NOT":
		if bs, nulls, ok := col.Bools(); ok {
			return mapColumn(bs, nulls, func(b bool) (bool, bool) { return !b, true }), nil
		}
	case "-":
		if is, nulls, ok := col.Ints(); ok {
			return mapColumn(is, nulls, func(v int64) (int64, bool) { return -v, true }), nil
		}
		if fs, nulls, ok := col.Floats(); ok {
			return mapColumn(fs, nulls, func(v float64) (float64, bool) { return -v, true }), nil
		}
	}
	return evalRows(x, rel, selLen(rel, sel), []operand{{col: col}}, func(a []table.Value) (table.Value, error) {
		return unaryValue(x.Op, a[0])
	})
}

func evalVecBinary(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	switch b.Op {
	case "AND", "OR":
		return evalVecLogic(b, rel, sel)
	case "LIKE":
		return evalVecLike(b, rel, sel)
	}
	lcol, err := evalCompared(b, b.L, b.R, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	rcol, err := evalCompared(b, b.R, b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	if out, ok := binaryVec(b.Op, &lcol, &rcol); ok {
		return out, nil
	}
	return evalRows(b, rel, selLen(rel, sel), []operand{{col: lcol}, {col: rcol}}, func(a []table.Value) (table.Value, error) {
		return binaryValue(b.Op, a[0], a[1])
	})
}

// evalCompared is evalVec of e, the operand of b whose other operand is
// other. When b compares and e is a constant, e is read as the comparison
// reads it (table.CompareOperand): a string against a time becomes its
// instant here, once per evaluation, for compareVec's time loop. A string
// that names no instant stays text, and binaryValue raises on the rows
// that reach it.
func evalCompared(b *Binary, e, other Expr, rel *vrel, sel *table.Selection) (table.Column, error) {
	if _, isCmp := cmpOpOf(b.Op); isCmp {
		if k, ok := constExprValue(e, rel); ok {
			if t, ok := table.CompareOperand(kindOf(other, rel), k); ok && t.Kind != k.Kind {
				return constColumn(t, selLen(rel, sel)), nil
			}
		}
	}
	return evalVec(e, rel, sel)
}

// evalVecLogic is three-valued AND/OR. The right side runs only on the rows
// the left leaves undecided — not known false for AND, not known true for
// OR — as a row walk's short circuit does.
func evalVecLogic(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	n := selLen(rel, sel)
	and := b.Op == "AND"
	lb, lknown := truthVec(&lcol, n)
	open := make([]bool, n)
	count := 0
	for i := range open {
		if !lknown[i] || lb[i] == and {
			open[i] = true
			count++
		}
	}
	rcol, err := evalOn(b.R, rel, sel, open, count)
	if err != nil {
		return table.Column{}, err
	}
	rb, rknown := truthVec(&rcol, count)
	out := make([]bool, n)
	nulls := make([]bool, n)
	for i, j := 0, 0; i < n; i++ {
		if !open[i] {
			out[i] = !and // decided by the left: AND false, OR true
			continue
		}
		switch {
		case lknown[i] && rknown[j]:
			out[i] = rb[j] // the left is AND's true or OR's false
		case rknown[j] && rb[j] != and:
			out[i] = !and
		default:
			nulls[i] = true
		}
		j++
	}
	return table.ColumnFromBools("", out, nulls), nil
}

// truthVec converts a column to truth values: known[i] is false where the
// cell is NULL or not interpretable as a boolean (matching Value.AsBool).
func truthVec(c *table.Column, n int) (b, known []bool) {
	if bs, nulls, ok := c.Bools(); ok {
		known = make([]bool, n)
		for i := range nulls {
			known[i] = !nulls[i]
		}
		return bs, known
	}
	b = make([]bool, n)
	known = make([]bool, n)
	for i := 0; i < n; i++ {
		v := c.Value(i)
		if v.IsNull() {
			continue
		}
		if bv, ok := v.AsBool(); ok {
			b[i], known[i] = bv, true
		}
	}
	return b, known
}

// zipColumn is the engine's typed binary loop: cell i of the result is
// f(a[i], b[i]), NULL where either cell is NULL or f reports !ok.
func zipColumn[T any, R cell](a []T, an []bool, b []T, bn []bool, f func(x, y T) (R, bool)) table.Column {
	out := make([]R, len(a))
	nulls := make([]bool, len(a))
	for i := range out {
		if an[i] || bn[i] {
			nulls[i] = true
			continue
		}
		var ok bool
		out[i], ok = f(a[i], b[i])
		nulls[i] = !ok
	}
	return typedColumn(out, nulls)
}

// mapColumn is zipColumn's unary twin: cell i is f(a[i]), NULL where a[i]
// is NULL or f reports !ok.
func mapColumn[T any, R cell](a []T, an []bool, f func(x T) (R, bool)) table.Column {
	return zipColumn(a, an, a, an, func(x, _ T) (R, bool) { return f(x) })
}

// cell is the element type of a typed column a typed loop produces.
type cell interface {
	int64 | float64 | string | bool
}

// typedColumn adopts a typed loop's output as an unnamed column.
func typedColumn[R cell](vals []R, nulls []bool) table.Column {
	switch v := any(vals).(type) {
	case []int64:
		return table.ColumnFromInts("", v, nulls)
	case []float64:
		return table.ColumnFromFloats("", v, nulls)
	case []string:
		return table.ColumnFromStrings("", v, nulls)
	}
	return table.ColumnFromBools("", any(vals).([]bool), nulls)
}

// binaryVec is a comparison, arithmetic or || over two typed columns, one
// zipColumn loop whose per-cell function is chosen here, once; ok=false
// for an operand pair no typed loop covers.
func binaryVec(op string, lcol, rcol *table.Column) (table.Column, bool) {
	if cmp, ok := cmpOpOf(op); ok {
		return compareVec(cmp, lcol, rcol)
	}
	if fa := floatArith(op); fa != nil {
		return arithVec(intArith(op), fa, lcol, rcol)
	}
	ls, lnulls, lok := lcol.Strings()
	rs, rnulls, rok := rcol.Strings()
	if op != "||" || !lok || !rok {
		return table.Column{}, false
	}
	return zipColumn(ls, lnulls, rs, rnulls, func(a, b string) (string, bool) { return a + b, true }), true
}

// compareVec compares two typed columns: int with int exactly, any other
// numeric pair as float64 (as table.Compare orders numbers), string with
// string, time with time. ok=false for any other pair.
func compareVec(op table.CmpOp, lcol, rcol *table.Column) (table.Column, bool) {
	if li, lnulls, ok := lcol.Ints(); ok {
		if ri, rnulls, ok := rcol.Ints(); ok {
			return zipColumn(li, lnulls, ri, rnulls, compareOrdered[int64](op)), true
		}
	}
	if lf, lnulls, ok := asFloats(lcol); ok {
		if rf, rnulls, ok := asFloats(rcol); ok {
			return zipColumn(lf, lnulls, rf, rnulls, compareOrdered[float64](op)), true
		}
	}
	if ls, lnulls, ok := lcol.Strings(); ok {
		if rs, rnulls, ok := rcol.Strings(); ok {
			return zipColumn(ls, lnulls, rs, rnulls, compareOrdered[string](op)), true
		}
	}
	if lt, lnulls, ok := lcol.Times(); ok {
		if rt, rnulls, ok := rcol.Times(); ok {
			return zipColumn(lt, lnulls, rt, rnulls, compareOrdered[int64](op)), true
		}
	}
	return table.Column{}, false
}

// arithVec is arithmetic over two typed numeric columns: fi over two int
// columns (fi is nil for /, which is always float), fa over any other
// numeric pair as float64. ok=false when either column is not typed
// numeric.
func arithVec(fi func(a, b int64) (int64, bool), fa func(a, b float64) (float64, bool), lcol, rcol *table.Column) (table.Column, bool) {
	if li, lnulls, ok := lcol.Ints(); ok && fi != nil {
		if ri, rnulls, ok := rcol.Ints(); ok {
			return zipColumn(li, lnulls, ri, rnulls, fi), true
		}
	}
	lf, lnulls, lok := asFloats(lcol)
	rf, rnulls, rok := asFloats(rcol)
	if !lok || !rok {
		return table.Column{}, false
	}
	return zipColumn(lf, lnulls, rf, rnulls, fa), true
}

// compareOrdered is comparison op over one ordered kind's three-way order.
func compareOrdered[T int64 | float64 | string](op table.CmpOp) func(a, b T) (bool, bool) {
	return func(a, b T) (bool, bool) { return op.Accepts(table.ThreeWay(a, b)), true }
}

// evalVecLike runs a constant pattern over a typed string column in one
// loop; any other operand shape goes row by row.
func evalVecLike(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	pat, err := evalOperand(b.R, rel, sel, nil, 0)
	if err != nil {
		return table.Column{}, err
	}
	if ls, lnulls, ok := lcol.Strings(); ok && pat.konst && pat.k.Kind == table.KindString {
		pattern := strings.ToLower(pat.k.S)
		return mapColumn(ls, lnulls, func(s string) (bool, bool) { return likeLower(strings.ToLower(s), pattern), true }), nil
	}
	return evalRows(b, rel, selLen(rel, sel), []operand{{col: lcol}, pat}, func(a []table.Value) (table.Value, error) {
		return binaryValue("LIKE", a[0], a[1])
	})
}

// evalVecBetween is X [NOT] BETWEEN lo AND hi. Against two constant bounds
// that SelectCompare covers for X's column it is the WHERE kernel's BETWEEN:
// X >= lo and X <= hi as one run, one pass over every position, and the
// survivors are the true rows (NULL where X is NULL, NOT flipping the known
// ones). Any other shape runs row by row.
func evalVecBetween(x *Between, rel *vrel, sel *table.Selection) (table.Column, error) {
	col, err := evalVec(x.X, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	lo, err := evalOperand(x.Lo, rel, sel, nil, 0)
	if err != nil {
		return table.Column{}, err
	}
	hi, err := evalOperand(x.Hi, rel, sel, nil, 0)
	if err != nil {
		return table.Column{}, err
	}
	// Constant bounds are read as in evalCompared, once (a column bound's k
	// is NULL, which stays).
	lo.k, _ = table.CompareOperand(col.Kind, lo.k)
	hi.k, _ = table.CompareOperand(col.Kind, hi.k)
	n := selLen(rel, sel)
	if !lo.konst || !hi.konst || !col.ComparesTyped(lo.k) || !col.ComparesTyped(hi.k) {
		return evalRows(x, rel, n, []operand{{col: col}, lo, hi}, func(a []table.Value) (table.Value, error) {
			return betweenValue(a[0], a[1], a[2], x.Not)
		})
	}
	run := [2]table.Cmp{{Op: table.CmpGe, K: lo.k}, {Op: table.CmpLe, K: hi.k}}
	in, _ := col.SelectCompare(run[:], table.NewSpanSelection(table.Span{Lo: 0, Hi: n}))
	out := make([]bool, n)
	in.ForEach(func(r int) { out[r] = true })
	nulls := make([]bool, n)
	for i := range out {
		if col.IsNullAt(i) {
			nulls[i] = true
		} else if x.Not {
			out[i] = !out[i]
		}
	}
	return table.ColumnFromBools("", out, nulls), nil
}

func isNumericLit(v table.Value) bool {
	return v.Kind == table.KindInt || v.Kind == table.KindFloat
}

// evalVecIn is X [NOT] IN (...). When every candidate is a constant — a
// literal, bound parameter or subquery row — typed numeric, string or time
// X tests membership in a hash set. Otherwise membership is tested row by
// row, as a row walk tests it: a NULL X is NULL and reaches no candidate,
// each candidate runs only on the rows no earlier one matched, and the
// subquery's rows come last. A NULL candidate never matches, but makes a
// row no candidate matched NULL rather than FALSE (so NOT IN is NULL, not
// TRUE, there): SQL's three-valued IN.
func evalVecIn(x *In, rel *vrel, sel *table.Selection) (table.Column, error) {
	col, err := evalVec(x.X, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	n := selLen(rel, sel)
	if x.Sub != nil && len(rel.x.subs[x.slot]) == 0 {
		// No candidate decides every row, a NULL X included: IN is FALSE
		// and NOT IN is TRUE.
		return constColumn(table.Bool(x.Not), n), nil
	}
	if lits, anyNull, ok := inConstants(x, col.Kind, rel); ok {
		if out, ok := inSet(&col, lits, anyNull, x.Not); ok {
			return out, nil
		}
	}
	found := make([]bool, n)
	sawNull := make([]bool, n) // a NULL candidate reached the row
	open := make([]bool, n)    // X is not NULL and no candidate matched yet
	count := 0
	for i := range open {
		if !col.IsNullAt(i) {
			open[i] = true
			count++
		}
	}
	match := func(i int, cv table.Value) error {
		if cv.IsNull() {
			sawNull[i] = true
			return nil
		}
		eq, err := compareValues(table.CmpEq, col.Value(i), cv)
		if eq.B {
			found[i], open[i] = true, false
			count--
		}
		return err
	}
	for _, cand := range x.Values {
		if count == 0 {
			break
		}
		op, err := evalOperand(cand, rel, sel, open, count)
		if err != nil {
			return table.Column{}, err
		}
		for i, j := 0, 0; i < n; i++ {
			if open[i] {
				if err := match(i, op.at(j)); err != nil {
					return table.Column{}, err
				}
				j++
			}
		}
	}
	if x.Sub != nil {
		list := rel.x.subs[x.slot]
		for i := 0; i < n; i++ {
			for k := 0; k < len(list) && open[i]; k++ {
				if err := match(i, list[k]); err != nil {
					return table.Column{}, err
				}
			}
		}
	}
	out := make([]bool, n)
	nulls := make([]bool, n)
	for i := range out {
		nulls[i] = col.IsNullAt(i) || !found[i] && sawNull[i]
		out[i] = !nulls[i] && found[i] != x.Not
	}
	return table.ColumnFromBools("", out, nulls), nil
}

// inConstants returns IN's non-NULL list entries — a subquery's rows
// included — and whether any entry is NULL, when every candidate is a
// constant; ok=false otherwise. Each entry is read as its comparison with
// an X of kind kind reads it, as in evalCompared.
func inConstants(x *In, kind table.Kind, rel *vrel) (lits []table.Value, anyNull, ok bool) {
	lits = make([]table.Value, 0, len(x.Values))
	add := func(v table.Value) {
		if v.IsNull() {
			anyNull = true
		} else {
			v, _ = table.CompareOperand(kind, v)
			lits = append(lits, v)
		}
	}
	for _, cand := range x.Values {
		v, ok := constExprValue(cand, rel)
		if !ok {
			return nil, false, false
		}
		add(v)
	}
	if x.Sub != nil {
		for _, v := range rel.x.subs[x.slot] {
			add(v)
		}
	}
	return lits, anyNull, true
}

// inSet is IN's typed loop: numeric X against an all-numeric list, string
// X against an all-string list, or time X against an all-time list. Any
// other membership (which compares through compareValues) reports
// ok=false. anyNull says the list also held a NULL, which makes a
// non-member NULL.
func inSet(col *table.Column, lits []table.Value, anyNull, not bool) (table.Column, bool) {
	if ss, nulls, ok := col.Strings(); ok {
		return inKeys(ss, nulls, lits, table.KindString, func(v table.Value) string { return v.S }, anyNull, not)
	}
	if ts, nulls, ok := col.Times(); ok {
		return inKeys(ts, nulls, lits, table.KindTime, func(v table.Value) int64 { return v.I }, anyNull, not)
	}
	is, nulls, isInt := col.Ints()
	fs, fnulls, isFloat := col.Floats()
	if !isInt && !isFloat {
		return table.Column{}, false
	}
	// Membership is table.Compare == 0 against some entry: an int pair is
	// exact in int64, any other pair compares as float64, and NaN — as a
	// cell or as an entry — equals every number.
	ints := map[int64]bool{}
	floats := map[float64]bool{}
	nanEntry := false
	for _, v := range lits {
		switch {
		case !isNumericLit(v):
			return table.Column{}, false
		case isInt && v.Kind == table.KindInt:
			ints[v.I] = true
		default:
			f, _ := v.AsFloat()
			floats[f] = true
			nanEntry = nanEntry || f != f
		}
	}
	if isInt {
		return mapColumn(is, nulls, func(v int64) (bool, bool) {
			found := ints[v] || floats[float64(v)] || nanEntry
			return found != not, found || !anyNull
		}), true
	}
	return mapColumn(fs, fnulls, func(f float64) (bool, bool) {
		found := floats[f] || f != f && len(lits) > 0 || nanEntry
		return found != not, found || !anyNull
	}), true
}

// inKeys is inSet over the cells of one kind whose = is equality of their
// key: every entry must be of that kind, and a cell is a member when its
// key is an entry's.
func inKeys[T comparable](vals []T, nulls []bool, lits []table.Value, kind table.Kind, key func(table.Value) T, anyNull, not bool) (table.Column, bool) {
	set := make(map[T]bool, len(lits))
	for _, v := range lits {
		if v.Kind != kind {
			return table.Column{}, false
		}
		set[key(v)] = true
	}
	return mapColumn(vals, nulls, func(x T) (bool, bool) {
		found := set[x]
		return found != not, found || !anyNull
	}), true
}

// evalVecCase is searched CASE (the parser desugars the simple form). Each
// WHEN runs on the rows no earlier WHEN took, each THEN on the rows its
// WHEN took and ELSE on the rest; the arms' values are then laid out in row
// order into a column of the CASE's kind, the arms' kinds promoted.
func evalVecCase(x *CaseExpr, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	arms := make([]operand, 0, len(x.Whens)+1)
	owner := make([]int32, n) // the arm giving each row its value; -1: NULL
	open := make([]bool, n)   // rows no WHEN has taken yet
	for i := range open {
		owner[i], open[i] = -1, true
	}
	count := n
	for _, w := range x.Whens {
		if count == 0 {
			break
		}
		cond, err := evalOn(w.Cond, rel, sel, open, count)
		if err != nil {
			return table.Column{}, err
		}
		cb, known := truthVec(&cond, count)
		took := make([]bool, n)
		taken := 0
		for i, j := 0, 0; i < n; i++ {
			if !open[i] {
				continue
			}
			if known[j] && cb[j] {
				took[i], open[i] = true, false
				owner[i] = int32(len(arms))
				taken++
			}
			j++
		}
		if taken == 0 {
			continue
		}
		count -= taken
		res, err := evalOperand(w.Result, rel, sel, took, taken)
		if err != nil {
			return table.Column{}, err
		}
		arms = append(arms, res)
	}
	if x.Else != nil && count > 0 {
		for i := range open {
			if open[i] {
				owner[i] = int32(len(arms))
			}
		}
		res, err := evalOperand(x.Else, rel, sel, open, count)
		if err != nil {
			return table.Column{}, err
		}
		arms = append(arms, res)
	}
	next := make([]int, len(arms))
	b := newColBuilder(x, kindOf(x, rel), n)
	for _, a := range owner {
		if a < 0 {
			b.add(table.Null())
			continue
		}
		b.add(arms[a].at(next[a]))
		next[a]++
	}
	return b.col, nil
}

// evalVecFunc applies a scalar function row by row over its arguments.
func evalVecFunc(f *FuncCall, rel *vrel, sel *table.Selection) (table.Column, error) {
	ops := make([]operand, len(f.Args))
	for i, a := range f.Args {
		var err error
		if ops[i], err = evalOperand(a, rel, sel, nil, 0); err != nil {
			return table.Column{}, err
		}
	}
	return evalRows(f, rel, selLen(rel, sel), ops, func(args []table.Value) (table.Value, error) {
		return scalarFunc(f.Name, args)
	})
}
