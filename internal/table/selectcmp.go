package table

// Compare-to-constant selection kernels: the WHERE fast path for a conjunct
// of the form `column <op> constant`. One typed loop reads the column's raw
// storage over the rows of an input selection and emits the passing rows
// straight into a Selection — no constant vector, no boolean result vector,
// nothing proportional to the rows scanned. The outcome per cell is, by
// construction, the operator applied to Compare's three-way result.

// CmpOp is a comparison operator, encoded as the set of three-way Compare
// results (less, equal, greater) it accepts.
type CmpOp uint8

const (
	// CmpLt is <.
	CmpLt CmpOp = 1 << iota
	// CmpEq is =.
	CmpEq
	// CmpGt is >.
	CmpGt
	// CmpLe is <=.
	CmpLe = CmpLt | CmpEq
	// CmpGe is >=.
	CmpGe = CmpGt | CmpEq
	// CmpNe is <>.
	CmpNe = CmpLt | CmpGt
)

// Flip returns the operator with its operands swapped: k op x ⇔ x Flip(op) k.
func (op CmpOp) Flip() CmpOp {
	return op&CmpEq | op&CmpLt<<2 | op&CmpGt>>2
}

// Accepts reports whether op holds for a three-way result c: -1 (less), 0
// (equal) or +1 (greater), as Compare and ThreeWay return it.
func (op CmpOp) Accepts(c int) bool {
	return op&(CmpLt<<uint(c+1)) != 0
}

// ThreeWay is Compare's result for two values of one ordered kind: -1, 0
// or +1. Neither < nor > is "equal", which is how Compare treats NaN.
func ThreeWay[T int64 | float64 | string](x, k T) int {
	switch {
	case x < k:
		return -1
	case x > k:
		return 1
	}
	return 0
}

// cmpForm is how a column's cells line up with a constant's kind.
type cmpForm uint8

const (
	cmpNone       cmpForm = iota // not covered: boxed, bool/time, NULL or cross-kind
	cmpInts                      // int column, int constant: exact in int64
	cmpFloats                    // float column, numeric constant: float64
	cmpIntsAsReal                // int column, float constant: float64(cell)
	cmpStrings                   // string column, string constant
)

func (c *Column) cmpFormWith(k Value) cmpForm {
	if c.boxed != nil {
		return cmpNone
	}
	switch {
	case c.Kind == KindInt && k.Kind == KindInt:
		return cmpInts
	case c.Kind == KindInt && k.Kind == KindFloat:
		return cmpIntsAsReal
	case c.Kind == KindFloat && (k.Kind == KindInt || k.Kind == KindFloat):
		return cmpFloats
	case c.Kind == KindString && k.Kind == KindString:
		return cmpStrings
	}
	return cmpNone
}

// ComparesTyped reports whether SelectCompare covers comparing the column's
// cells with k: a typed int, float or string column whose kind lines up with
// the constant's (int·int, any other int/float pair, string·string). Every
// other pairing — boxed storage, bool and time columns, a NULL constant, a
// string against a number — is left to the caller's general path.
func (c *Column) ComparesTyped(k Value) bool { return c.cmpFormWith(k) != cmpNone }

// SelectCompare returns the rows of in whose cell is non-NULL and compares
// to k as op demands — exactly the rows where op accepts Compare(cell, k),
// NaN's equal-to-every-number oddity included. sawNull reports whether any
// row of in held NULL (such a row never passes, but the comparison is not
// known false for it either). The representation of the result follows the
// density rule of SelectionFromBools. It panics unless c.ComparesTyped(k).
func (c *Column) SelectCompare(op CmpOp, k Value, in *Selection) (out *Selection, sawNull bool) {
	var b spanBuilder
	if in != nil {
		if in.idx != nil {
			c.scanCompare(&b, op, k, in.idx, 0, len(in.idx))
		}
		for _, sp := range in.spans {
			c.scanCompare(&b, op, k, nil, sp.Lo, sp.Hi)
		}
	}
	return b.selection(), b.sawNull
}

// scanCompare dispatches one row range (or index list) to the typed loop
// for the column/constant pairing.
func (c *Column) scanCompare(b *spanBuilder, op CmpOp, k Value, idx []int, lo, hi int) {
	switch c.cmpFormWith(k) {
	case cmpInts:
		scanCompare(b, c.ints, c.nulls, k.I, op, idx, lo, hi)
	case cmpFloats:
		kf, _ := k.AsFloat()
		scanCompare(b, c.floats, c.nulls, kf, op, idx, lo, hi)
	case cmpIntsAsReal:
		scanCompareAsReal(b, c.ints, c.nulls, k.F, op, idx, lo, hi)
	case cmpStrings:
		scanCompare(b, c.strs, c.nulls, k.S, op, idx, lo, hi)
	default:
		panic("table: SelectCompare on a column/constant pair ComparesTyped rejects")
	}
}

// spanBuilder accumulates ascending passing rows as maximal runs.
type spanBuilder struct {
	spans      []Span
	start, end int // the open run [start, end); empty when end == start
	count      int
	sawNull    bool
}

func (b *spanBuilder) add(r int) {
	if r != b.end {
		b.closeRun()
		b.start = r
	}
	b.end = r + 1
	b.count++
}

func (b *spanBuilder) closeRun() {
	if b.end > b.start {
		b.spans = append(b.spans, Span{b.start, b.end})
	}
}

// selection closes the open run and picks the representation by the density
// rule the mask-based constructors use: dense when runs are mostly single rows.
func (b *spanBuilder) selection() *Selection {
	b.closeRun()
	b.start = b.end
	if 2*len(b.spans) > b.count {
		return &Selection{idx: expandSpans(b.spans, b.count), count: b.count}
	}
	return &Selection{spans: b.spans, count: b.count}
}

// scanCompare feeds b the rows whose cell passes op against k. With idx nil
// the rows are lo..hi-1; otherwise they are idx[lo..hi-1].
func scanCompare[T int64 | float64 | string](b *spanBuilder, vals []T, nulls []bool, k T, op CmpOp, idx []int, lo, hi int) {
	sawNull := false
	for i := lo; i < hi; i++ {
		r := i
		if idx != nil {
			r = idx[i]
		}
		if nulls[r] {
			sawNull = true
		} else if op.Accepts(ThreeWay(vals[r], k)) {
			b.add(r)
		}
	}
	b.sawNull = b.sawNull || sawNull
}

// scanCompareAsReal is scanCompare for an int column against a float
// constant: each cell compares as float64(cell), Compare's rule for a mixed
// numeric pair (so integers beyond 2^53 round exactly as they do there).
func scanCompareAsReal(b *spanBuilder, vals []int64, nulls []bool, k float64, op CmpOp, idx []int, lo, hi int) {
	sawNull := false
	for i := lo; i < hi; i++ {
		r := i
		if idx != nil {
			r = idx[i]
		}
		if nulls[r] {
			sawNull = true
		} else if op.Accepts(ThreeWay(float64(vals[r]), k)) {
			b.add(r)
		}
	}
	b.sawNull = b.sawNull || sawNull
}
