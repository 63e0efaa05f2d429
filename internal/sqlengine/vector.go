package sqlengine

import (
	"math"
	"strings"

	"datalab/internal/table"
)

// Vectorized expression evaluation: expressions are computed over whole
// column vectors (optionally restricted by a selection vector) in tight
// typed loops, instead of row-at-a-time tree walks. Any expression shape
// the vectorized paths do not cover falls back to a per-row loop around the
// scalar evaluator, so the two paths agree on results; the scalar evaluator
// itself remains available through Catalog.QueryScalar as the reference
// implementation for differential tests. The few deliberate divergences
// (error propagation in hash joins that skip non-matching pairs, natural
// kinds on empty outputs) are documented in docs/ARCHITECTURE.md.

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
		if col, ok, err := evalVecBetween(x, rel, sel); ok || err != nil {
			return col, err
		}
		return rowFallback(e, rel, sel)
	case *In:
		if col, ok, err := evalVecIn(x, rel, sel); ok || err != nil {
			return col, err
		}
		return rowFallback(e, rel, sel)
	case *FuncCall:
		if x.Over != nil && rel.win != nil {
			// Precomputed by executePlainVec over this same selection;
			// already positional, so it is the node's value column.
			return rel.win[x.slot], nil
		}
		return rowFallback(e, rel, sel)
	default:
		// CASE, scalar functions, aggregates-in-row-context (error), Star.
		return rowFallback(e, rel, sel)
	}
}

// rowFallback evaluates e row-at-a-time with the scalar evaluator over the
// columnar relation. It preserves scalar semantics exactly (including
// short-circuit error behaviour within the expression).
func rowFallback(e Expr, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	vals := make([]table.Value, n)
	env := &vecEnv{rel: rel}
	it := table.IterSelection(sel, rel.nrows)
	for i := 0; i < n; i++ {
		env.row, _ = it.Next()
		env.pos = i
		v, err := evalExpr(e, env)
		if err != nil {
			return table.Column{}, err
		}
		vals[i] = v
	}
	return columnOfValues(vals), nil
}

// columnOfValues builds an unnamed column from boxed values, typed by the
// first non-NULL one: later values of another kind degrade it to boxed
// storage, and an all-NULL (or empty) vector stays KindNull.
func columnOfValues(vals []table.Value) table.Column {
	kind := table.KindNull
	for _, v := range vals {
		if !v.IsNull() {
			kind = v.Kind
			break
		}
	}
	return table.ColumnOf("", kind, vals)
}

// vecEnv adapts the columnar relation to the scalar evaluator's env. row is
// the absolute row index in rel; pos is the row's position within the active
// selection — window columns are positional, so window indexes with pos, not
// row. A nested-loop join evaluates its ON clause over a candidate pair
// without materializing the combined row: cells past rel's width are
// right's, at rrow.
type vecEnv struct {
	rel   *vrel
	row   int
	pos   int
	right *vrel
	rrow  int
}

func (e *vecEnv) args() *execArgs { return e.rel.x }

func (e *vecEnv) column(i int) table.Value {
	if nl := len(e.rel.cols); i >= nl {
		return e.right.cols[i-nl].Value(e.rrow)
	}
	if e.row < 0 {
		return table.Null() // the empty global group has no first row
	}
	return e.rel.cols[i].Value(e.row)
}

func (e *vecEnv) aggregate(fn *FuncCall) (table.Value, error) {
	return table.Null(), errAggInRowContext(fn)
}

func (e *vecEnv) window(fn *FuncCall) (table.Value, error) {
	if e.rel.win == nil {
		return table.Null(), errWindowContext(fn)
	}
	return e.rel.win[fn.slot].Value(e.pos), nil
}

// constExprValue resolves e to an execution-constant value when it is a
// literal, a bound parameter or a scalar subquery, letting the WHERE kernels
// and the vectorized LIKE/BETWEEN/IN fast paths accept them without falling
// back to per-row loops.
func constExprValue(e Expr, rel *vrel) (table.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, true
	case *Param:
		v, err := bindAt(rel.x.binds, x)
		if err != nil {
			return table.Null(), false // fall back; the row path reports the error
		}
		return v, true
	case *Subquery:
		return rel.x.scalarSub(x.slot), true
	}
	return table.Null(), false
}

// constColumn materializes a literal as a constant vector.
func constColumn(v table.Value, n int) table.Column {
	switch v.Kind {
	case table.KindInt:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v.I
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
	case table.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = v.B
		}
		return table.ColumnFromBools("", vals, nil)
	default:
		vals := make([]table.Value, n)
		for i := range vals {
			vals[i] = v
		}
		return table.ColumnOf("", v.Kind, vals)
	}
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
			out := make([]bool, len(bs))
			outNulls := make([]bool, len(bs))
			for i := range bs {
				out[i] = !bs[i]
				outNulls[i] = nulls[i]
			}
			return table.ColumnFromBools("", out, outNulls), nil
		}
	case "-":
		if is, nulls, ok := col.Ints(); ok {
			out := make([]int64, len(is))
			for i := range is {
				out[i] = -is[i]
			}
			return table.ColumnFromInts("", out, copyBools(nulls)), nil
		}
		if fs, nulls, ok := col.Floats(); ok {
			out := make([]float64, len(fs))
			for i := range fs {
				out[i] = -fs[i]
			}
			return table.ColumnFromFloats("", out, copyBools(nulls)), nil
		}
	}
	return rowFallback(x, rel, sel)
}

func copyBools(b []bool) []bool {
	return append([]bool(nil), b...)
}

func evalVecBinary(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	switch b.Op {
	case "AND", "OR":
		return evalVecLogic(b, rel, sel)
	case "=", "<>", "<", "<=", ">", ">=":
		return evalVecCompare(b, rel, sel)
	case "+", "-", "*", "/", "%":
		return evalVecArith(b, rel, sel)
	case "LIKE":
		return evalVecLike(b, rel, sel)
	case "||":
		return evalVecConcat(b, rel, sel)
	}
	return rowFallback(b, rel, sel)
}

// evalVecLogic vectorizes AND/OR with three-valued logic. Both operands are
// evaluated for all rows; if the right side errors (the scalar evaluator
// might have short-circuited past the failing row), the whole node falls
// back to the row-at-a-time path, which short-circuits identically.
func evalVecLogic(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	rcol, err := evalVec(b.R, rel, sel)
	if err != nil {
		return rowFallback(b, rel, sel)
	}
	n := selLen(rel, sel)
	lb, lknown := truthVec(&lcol, n)
	rb, rknown := truthVec(&rcol, n)
	out := make([]bool, n)
	nulls := make([]bool, n)
	and := b.Op == "AND"
	for i := 0; i < n; i++ {
		switch {
		case and && lknown[i] && !lb[i]:
			out[i] = false
		case !and && lknown[i] && lb[i]:
			out[i] = true
		case lknown[i] && rknown[i]:
			if and {
				out[i] = lb[i] && rb[i]
			} else {
				out[i] = lb[i] || rb[i]
			}
		case and && rknown[i] && !rb[i]:
			out[i] = false
		case !and && rknown[i] && rb[i]:
			out[i] = true
		default:
			nulls[i] = true
		}
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

func evalVecCompare(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	rcol, err := evalVec(b.R, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	n := selLen(rel, sel)
	out := make([]bool, n)
	nulls := make([]bool, n)

	apply := func(cmp func(i int) int, lnulls, rnulls []bool) table.Column {
		for i := 0; i < n; i++ {
			if lnulls[i] || rnulls[i] {
				nulls[i] = true
				continue
			}
			c := cmp(i)
			switch b.Op {
			case "=":
				out[i] = c == 0
			case "<>":
				out[i] = c != 0
			case "<":
				out[i] = c < 0
			case "<=":
				out[i] = c <= 0
			case ">":
				out[i] = c > 0
			case ">=":
				out[i] = c >= 0
			}
		}
		return table.ColumnFromBools("", out, nulls)
	}

	// int = int stays in int64 (exact); any other numeric pair compares as
	// float64, mirroring table.Compare for numeric kinds.
	if li, lnulls, ok := lcol.Ints(); ok {
		if ri, rnulls, ok2 := rcol.Ints(); ok2 {
			return apply(func(i int) int {
				switch {
				case li[i] < ri[i]:
					return -1
				case li[i] > ri[i]:
					return 1
				}
				return 0
			}, lnulls, rnulls), nil
		}
	}
	if lf, lnulls, ok := asFloats(&lcol); ok {
		if rf, rnulls, ok2 := asFloats(&rcol); ok2 {
			return apply(func(i int) int {
				switch {
				case lf[i] < rf[i]:
					return -1
				case lf[i] > rf[i]:
					return 1
				}
				return 0
			}, lnulls, rnulls), nil
		}
	}
	if ls, lnulls, ok := lcol.Strings(); ok {
		if rs, rnulls, ok2 := rcol.Strings(); ok2 {
			return apply(func(i int) int {
				return strings.Compare(ls[i], rs[i])
			}, lnulls, rnulls), nil
		}
	}
	if lt, lnulls, ok := lcol.Times(); ok {
		if rt, rnulls, ok2 := rcol.Times(); ok2 {
			return apply(func(i int) int {
				switch {
				case lt[i].Before(rt[i]):
					return -1
				case lt[i].After(rt[i]):
					return 1
				}
				return 0
			}, lnulls, rnulls), nil
		}
	}
	return rowFallback(b, rel, sel)
}

func evalVecArith(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	rcol, err := evalVec(b.R, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	n := selLen(rel, sel)

	// int op int keeps integer arithmetic (except /, which is float).
	if li, lnulls, ok := lcol.Ints(); ok && b.Op != "/" {
		if ri, rnulls, ok2 := rcol.Ints(); ok2 {
			out := make([]int64, n)
			nulls := make([]bool, n)
			for i := 0; i < n; i++ {
				if lnulls[i] || rnulls[i] {
					nulls[i] = true
					continue
				}
				switch b.Op {
				case "+":
					out[i] = li[i] + ri[i]
				case "-":
					out[i] = li[i] - ri[i]
				case "*":
					out[i] = li[i] * ri[i]
				case "%":
					if ri[i] == 0 {
						nulls[i] = true
					} else {
						out[i] = li[i] % ri[i]
					}
				}
			}
			return table.ColumnFromInts("", out, nulls), nil
		}
	}
	lf, lnulls, lok := asFloats(&lcol)
	rf, rnulls, rok := asFloats(&rcol)
	if lok && rok {
		out := make([]float64, n)
		nulls := make([]bool, n)
		for i := 0; i < n; i++ {
			if lnulls[i] || rnulls[i] {
				nulls[i] = true
				continue
			}
			switch b.Op {
			case "+":
				out[i] = lf[i] + rf[i]
			case "-":
				out[i] = lf[i] - rf[i]
			case "*":
				out[i] = lf[i] * rf[i]
			case "/":
				if rf[i] == 0 {
					nulls[i] = true
				} else {
					out[i] = lf[i] / rf[i]
				}
			case "%":
				if rf[i] == 0 {
					nulls[i] = true
				} else {
					out[i] = math.Mod(lf[i], rf[i])
				}
			}
		}
		return table.ColumnFromFloats("", out, nulls), nil
	}
	return rowFallback(b, rel, sel)
}

func evalVecLike(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	pv, ok := constExprValue(b.R, rel)
	if !ok || pv.Kind != table.KindString {
		return rowFallback(b, rel, sel)
	}
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	ls, lnulls, ok := lcol.Strings()
	if !ok {
		return rowFallback(b, rel, sel)
	}
	pattern := strings.ToLower(pv.S)
	n := selLen(rel, sel)
	out := make([]bool, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		if lnulls[i] {
			nulls[i] = true
			continue
		}
		out[i] = likeRec(strings.ToLower(ls[i]), pattern)
	}
	return table.ColumnFromBools("", out, nulls), nil
}

func evalVecConcat(b *Binary, rel *vrel, sel *table.Selection) (table.Column, error) {
	lcol, err := evalVec(b.L, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	rcol, err := evalVec(b.R, rel, sel)
	if err != nil {
		return table.Column{}, err
	}
	ls, lnulls, lok := lcol.Strings()
	rs, rnulls, rok := rcol.Strings()
	if !lok || !rok {
		return rowFallback(b, rel, sel)
	}
	n := selLen(rel, sel)
	out := make([]string, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		if lnulls[i] || rnulls[i] {
			nulls[i] = true
			continue
		}
		out[i] = ls[i] + rs[i]
	}
	return table.ColumnFromStrings("", out, nulls), nil
}

// cmpFloat is table.Compare for two float64s: neither below nor above is
// equal, so NaN equals every number here exactly as it does there.
func cmpFloat(x, k float64) int {
	switch {
	case x < k:
		return -1
	case x > k:
		return 1
	}
	return 0
}

// cmpIntConst is table.Compare for an int cell against a numeric constant:
// exact in int64 against an int, as float64 against a float.
func cmpIntConst(x int64, k table.Value) int {
	if k.Kind == table.KindFloat {
		return cmpFloat(float64(x), k.F)
	}
	switch {
	case x < k.I:
		return -1
	case x > k.I:
		return 1
	}
	return 0
}

// evalVecBetween vectorizes X BETWEEN lo AND hi for typed numeric X with
// non-NULL numeric constant bounds (literals or bound parameters), bound by
// bound as table.Compare orders the pair. ok=false means the caller should
// fall back.
func evalVecBetween(x *Between, rel *vrel, sel *table.Selection) (table.Column, bool, error) {
	lo, ok1 := constExprValue(x.Lo, rel)
	hi, ok2 := constExprValue(x.Hi, rel)
	if !ok1 || !ok2 || !isNumericLit(lo) || !isNumericLit(hi) {
		return table.Column{}, false, nil
	}
	col, err := evalVec(x.X, rel, sel)
	if err != nil {
		return table.Column{}, true, err
	}
	n := selLen(rel, sel)
	out := make([]bool, n)
	nulls := make([]bool, n)
	if is, nullsIn, ok := col.Ints(); ok {
		for i, v := range is {
			if nullsIn[i] {
				nulls[i] = true
				continue
			}
			in := cmpIntConst(v, lo) >= 0 && cmpIntConst(v, hi) <= 0
			out[i] = in != x.Not
		}
	} else if fs, nullsIn, ok := col.Floats(); ok {
		lof, _ := lo.AsFloat()
		hif, _ := hi.AsFloat()
		for i, v := range fs {
			if nullsIn[i] {
				nulls[i] = true
				continue
			}
			in := cmpFloat(v, lof) >= 0 && cmpFloat(v, hif) <= 0
			out[i] = in != x.Not
		}
	} else {
		return table.Column{}, false, nil
	}
	return table.ColumnFromBools("", out, nulls), true, nil
}

func isNumericLit(v table.Value) bool {
	return v.Kind == table.KindInt || v.Kind == table.KindFloat
}

// evalVecIn vectorizes X IN (constants...) — literals, bound parameters or
// a subquery's rows — when X is typed numeric with an all-numeric list, or
// typed string with an all-string list. Mixed-kind membership (which
// compares through table.Equal's string forms) falls back. NULL list entries
// are ignored, matching the scalar evaluator.
func evalVecIn(x *In, rel *vrel, sel *table.Selection) (table.Column, bool, error) {
	lits := make([]table.Value, 0, len(x.Values))
	for _, cand := range x.Values {
		v, ok := constExprValue(cand, rel)
		if !ok {
			return table.Column{}, false, nil
		}
		if !v.IsNull() {
			lits = append(lits, v)
		}
	}
	if x.Sub != nil {
		for _, v := range rel.x.subs[x.slot] {
			if !v.IsNull() {
				lits = append(lits, v)
			}
		}
	}
	col, err := evalVec(x.X, rel, sel)
	if err != nil {
		return table.Column{}, true, err
	}
	n := selLen(rel, sel)

	is, nullsIn, isInt := col.Ints()
	fs, fnulls, isFloat := col.Floats()
	if isInt || isFloat {
		if isFloat {
			nullsIn = fnulls
		}
		// Membership is table.Compare == 0 against some entry: an int pair
		// is exact in int64, any other pair compares as float64, and NaN —
		// as a cell or as an entry — equals every number.
		ints := map[int64]bool{}
		floats := map[float64]bool{}
		nanEntry := false
		for _, v := range lits {
			switch {
			case !isNumericLit(v):
				return table.Column{}, false, nil
			case isInt && v.Kind == table.KindInt:
				ints[v.I] = true
			default:
				f, _ := v.AsFloat()
				floats[f] = true
				nanEntry = nanEntry || f != f
			}
		}
		out := make([]bool, n)
		nulls := make([]bool, n)
		for i := 0; i < n; i++ {
			if nullsIn[i] {
				nulls[i] = true
				continue
			}
			var found bool
			if isInt {
				found = ints[is[i]] || floats[float64(is[i])]
			} else {
				found = floats[fs[i]] || (fs[i] != fs[i] && len(lits) > 0)
			}
			out[i] = (found || nanEntry) != x.Not
		}
		return table.ColumnFromBools("", out, nulls), true, nil
	}
	if ss, nullsIn, ok := col.Strings(); ok {
		set := make(map[string]bool, len(lits))
		for _, v := range lits {
			if v.Kind != table.KindString {
				return table.Column{}, false, nil
			}
			set[v.S] = true
		}
		out := make([]bool, n)
		nulls := make([]bool, n)
		for i := 0; i < n; i++ {
			if nullsIn[i] {
				nulls[i] = true
				continue
			}
			out[i] = set[ss[i]] != x.Not
		}
		return table.ColumnFromBools("", out, nulls), true, nil
	}
	return table.Column{}, false, nil
}
