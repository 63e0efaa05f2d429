package table

import (
	"math"
	"slices"
)

// Compare-to-constant selection kernels: the WHERE fast path for conjuncts
// of the form `column <op> constant`. A run of such comparisons on one
// column is decoded once into what a single loop tests, and that loop reads
// each cell of the input selection once and appends each stretch of passing
// rows to a Selection as one span — no constant vector, no boolean result
// vector, nothing proportional to the rows scanned. The outcome per cell is,
// by construction, every operator of the run applied to Compare's three-way
// result.

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

// Cmp is one comparison of a column's cells with a constant: cell Op K.
type Cmp struct {
	Op CmpOp
	K  Value
}

// ComparesTyped reports whether SelectCompare covers comparing the column's
// cells with k: a typed int, float or string column whose kind lines up with
// the constant's (int·int, any other int/float pair, string·string). Every
// other pairing — bool and time columns, a NULL constant, a string
// against a number — is left to the caller's general path.
func (c *Column) ComparesTyped(k Value) bool {
	switch c.Kind {
	case KindInt, KindFloat:
		return k.Kind == KindInt || k.Kind == KindFloat
	case KindString:
		return k.Kind == KindString
	}
	return false
}

// SelectCompare returns the rows of in whose cell is non-NULL and passes
// every comparison of run — exactly the rows where each Op accepts
// Compare(cell, K), NaN's equal-to-every-number oddity included. sawNull
// reports whether any row of in held NULL (such a row never passes, but the
// comparisons are not known false for it either). The run is one pass over
// in: an int column whose constants are all ints and whose operators exclude
// <> tests one interval per cell; every other run tests each comparison's
// three-way result (an int column's run that mixes a float constant with an
// int one past ±2^53 takes two passes, see scanIntRun). An interval over
// span input reads a published column's zone map (zone.go) to skip or take
// whole blocks. The representation of the result follows the density
// rule of SelectionFromBools. It panics on an empty run and unless
// c.ComparesTyped(K) for every comparison.
func (c *Column) SelectCompare(run []Cmp, in *Selection) (out *Selection, sawNull bool) {
	if len(run) == 0 {
		panic("table: SelectCompare with no comparison")
	}
	for _, cm := range run {
		if !c.ComparesTyped(cm.K) {
			panic("table: SelectCompare on a column/constant pair ComparesTyped rejects")
		}
	}
	var b spanBuilder
	if in == nil {
		return b.selection(), false
	}
	switch c.Kind {
	case KindInt:
		a, z, ok := intInterval(run)
		switch {
		case ok && a > z:
			b.sawNull = hasNull(c.nulls, in)
		case ok:
			scanInterval(&b, c.ints, c.nulls, c.zoneBlocks(), a, z, in)
		default:
			scanIntRun(&b, c.ints, c.nulls, run, in)
		}
	case KindFloat:
		var buf [4]bound[float64]
		bs := buf[:0]
		for _, cm := range run {
			kf, _ := cm.K.AsFloat()
			bs = append(bs, boundOf(kf, cm.Op))
		}
		scanThreeWay(&b, c.floats, c.nulls, bs, in)
	case KindString:
		var buf [4]bound[string]
		bs := buf[:0]
		for _, cm := range run {
			bs = append(bs, boundOf(cm.K.S, cm.Op))
		}
		scanThreeWay(&b, c.strs, c.nulls, bs, in)
	}
	return b.selection(), b.sawNull
}

// intInterval decodes a run of int·int comparisons into the inclusive
// interval [a, z] of the int64 cells that pass all of them: an operator
// that rejects "less" sets a lower bound, one that rejects "greater" an
// upper bound, and a strict bound moves by one. ok is false when a constant
// is a float or an operator is <>, which no interval expresses. A run that
// no cell passes (`> MaxInt64`, `< MinInt64`, `> 5 AND < 3`) yields a > z.
func intInterval(run []Cmp) (a, z int64, ok bool) {
	a, z = math.MinInt64, math.MaxInt64
	empty := false
	for _, cm := range run {
		op, k := cm.Op, cm.K.I
		if cm.K.Kind != KindInt || op == CmpNe {
			return 0, 0, false
		}
		strict := op&CmpEq == 0
		if op&CmpLt == 0 {
			switch {
			case !strict:
				a = max(a, k)
			case k == math.MaxInt64:
				empty = true
			default:
				a = max(a, k+1)
			}
		}
		if op&CmpGt == 0 {
			switch {
			case !strict:
				z = min(z, k)
			case k == math.MinInt64:
				empty = true
			default:
				z = min(z, k-1)
			}
		}
	}
	if empty {
		return 1, 0, true
	}
	return a, z, true
}

// scanInterval feeds b the rows of in whose cell is non-NULL and lies in
// [a, z]: one unsigned comparison per cell, x-a wrapping below a. Over
// spans, the rows of a full block that zones covers are skipped when the
// block's zone lies wholly outside [a, z], taken as one run when it lies
// wholly inside and the block holds no NULL, and read cell by cell
// otherwise, as are the rows past the last zone.
func scanInterval(b *spanBuilder, vals []int64, nulls []bool, zones []zone, a, z int64, in *Selection) {
	w := uint64(z - a)
	sawNull := false
	for _, r := range in.idx {
		if nulls[r] {
			sawNull = true
		} else if uint64(vals[r]-a) <= w {
			b.add(r)
		}
	}
	zoned := len(zones) * zoneRows
	for _, sp := range in.spans {
		lo := sp.Lo
		for lo < min(sp.Hi, zoned) {
			zn := zones[lo/zoneRows]
			hi := min(sp.Hi, (lo/zoneRows+1)*zoneRows)
			switch {
			case zn.max < a || zn.min > z:
				// A NULL in the block may lie outside a partial span.
				if zn.null && !sawNull {
					sawNull = hi-lo == zoneRows || slices.Contains(nulls[lo:hi], true)
				}
			case zn.min >= a && zn.max <= z && !zn.null:
				b.addRun(lo, hi)
			default:
				sawNull = scanIntervalSpan(b, vals, nulls, a, w, lo, hi) || sawNull
			}
			lo = hi
		}
		if lo < sp.Hi {
			sawNull = scanIntervalSpan(b, vals, nulls, a, w, lo, sp.Hi) || sawNull
		}
	}
	b.sawNull = b.sawNull || sawNull
}

// scanIntervalSpan is scanInterval over rows [lo, hi) cell by cell,
// reporting whether one was NULL. It alternates between skipping failing
// rows and extending a stretch of passing ones, which it appends as one run.
func scanIntervalSpan(b *spanBuilder, vals []int64, nulls []bool, a int64, w uint64, lo, hi int) (sawNull bool) {
	v := vals[lo:hi]
	nl := nulls[lo:hi]
	nl = nl[:len(v)]
	for i := 0; i < len(v); {
		if nl[i] {
			sawNull = true
			i++
			continue
		}
		if uint64(v[i]-a) > w {
			i++
			continue
		}
		s := i
		for i++; i < len(v) && !nl[i] && uint64(v[i]-a) <= w; i++ {
		}
		b.addRun(lo+s, lo+i)
	}
	return sawNull
}

// hasNull reports whether any row of in is NULL: all an empty interval has
// to read.
func hasNull(nulls []bool, in *Selection) bool {
	for _, r := range in.idx {
		if nulls[r] {
			return true
		}
	}
	for _, sp := range in.spans {
		if slices.Contains(nulls[sp.Lo:sp.Hi], true) {
			return true
		}
	}
	return false
}

// bound is one comparison decoded for the three-way loop: the constant in
// the cells' type and which of the three results — less, equal, greater —
// the operator accepts, so a cell costs at most two comparisons and no
// shift.
type bound[T int64 | float64 | string] struct {
	k          T
	lt, eq, gt bool
}

func boundOf[T int64 | float64 | string](k T, op CmpOp) bound[T] {
	return bound[T]{k, op&CmpLt != 0, op&CmpEq != 0, op&CmpGt != 0}
}

// accepts is op.Accepts(ThreeWay(x, k)): neither < nor > is "equal".
func (bd bound[T]) accepts(x T) bool {
	switch {
	case x < bd.k:
		return bd.lt
	case x > bd.k:
		return bd.gt
	}
	return bd.eq
}

// passes reports whether x passes every comparison of bs.
func passes[T int64 | float64 | string](x T, bs []bound[T]) bool {
	for _, bd := range bs {
		if !bd.accepts(x) {
			return false
		}
	}
	return true
}

// scanThreeWay is scanInterval's loop for a run of comparisons against
// constants of the cells' own type: it feeds b the rows of in whose cell
// is non-NULL and passes every bound of bs.
func scanThreeWay[T int64 | float64 | string](b *spanBuilder, vals []T, nulls []bool, bs []bound[T], in *Selection) {
	first, rest := bs[0], bs[1:] // the first bound stays in registers
	pass := func(x T) bool { return first.accepts(x) && passes(x, rest) }
	sawNull := false
	for _, r := range in.idx {
		if nulls[r] {
			sawNull = true
		} else if pass(vals[r]) {
			b.add(r)
		}
	}
	for _, sp := range in.spans {
		v := vals[sp.Lo:sp.Hi]
		nl := nulls[sp.Lo:sp.Hi]
		nl = nl[:len(v)]
		for i := 0; i < len(v); {
			if nl[i] {
				sawNull = true
				i++
				continue
			}
			if !pass(v[i]) {
				i++
				continue
			}
			s := i
			for i++; i < len(v) && !nl[i] && pass(v[i]); i++ {
			}
			b.addRun(sp.Lo+s, sp.Lo+i)
		}
	}
	b.sawNull = b.sawNull || sawNull
}

// scanIntRun runs a run on an int column that no interval expresses: one
// with a <> or a float constant. Against int constants only, the
// three-way loop compares exactly. A float constant compares with
// float64(cell), Compare's rule for a mixed numeric pair (so integers
// beyond 2^53 round exactly as they do there). An int constant within
// ±2^53 then joins the float ones, since float64 orders every int64 cell
// against it exactly as int64 does; one past 2^53 would not, and runs
// first as a pass of its own.
func scanIntRun(b *spanBuilder, vals []int64, nulls []bool, run []Cmp, in *Selection) {
	var exactBuf [4]bound[int64]
	var realBuf [4]bound[float64]
	exact, real := exactBuf[:0], realBuf[:0]
	mixed := slices.ContainsFunc(run, func(cm Cmp) bool { return cm.K.Kind == KindFloat })
	for _, cm := range run {
		switch k := cm.K; {
		case k.Kind == KindFloat:
			real = append(real, boundOf(k.F, cm.Op))
		case mixed && -1<<53 < k.I && k.I < 1<<53:
			real = append(real, boundOf(float64(k.I), cm.Op))
		default:
			exact = append(exact, boundOf(k.I, cm.Op))
		}
	}
	if len(real) == 0 {
		scanThreeWay(b, vals, nulls, exact, in)
		return
	}
	if len(exact) > 0 {
		var first spanBuilder
		scanThreeWay(&first, vals, nulls, exact, in)
		in, b.sawNull = first.selection(), first.sawNull
	}
	scanIntsAsReal(b, vals, nulls, real, in)
}

// scanIntsAsReal is scanThreeWay over float64(cell) for an int column: a
// loop of its own, so that scanThreeWay's carries no conversion.
func scanIntsAsReal(b *spanBuilder, vals []int64, nulls []bool, bs []bound[float64], in *Selection) {
	first, rest := bs[0], bs[1:]
	pass := func(x int64) bool { f := float64(x); return first.accepts(f) && passes(f, rest) }
	sawNull := false
	for _, r := range in.idx {
		if nulls[r] {
			sawNull = true
		} else if pass(vals[r]) {
			b.add(r)
		}
	}
	for _, sp := range in.spans {
		v := vals[sp.Lo:sp.Hi]
		nl := nulls[sp.Lo:sp.Hi]
		nl = nl[:len(v)]
		for i := 0; i < len(v); {
			if nl[i] {
				sawNull = true
				i++
				continue
			}
			if !pass(v[i]) {
				i++
				continue
			}
			s := i
			for i++; i < len(v) && !nl[i] && pass(v[i]); i++ {
			}
			b.addRun(sp.Lo+s, sp.Lo+i)
		}
	}
	b.sawNull = b.sawNull || sawNull
}

// spanBuilder accumulates ascending passing rows as maximal runs.
type spanBuilder struct {
	spans      []Span
	start, end int // the open run [start, end); empty when end == start
	count      int
	sawNull    bool
}

func (b *spanBuilder) add(r int) { b.addRun(r, r+1) }

// addRun appends the rows [lo, hi), lo >= every row added before.
func (b *spanBuilder) addRun(lo, hi int) {
	if lo != b.end {
		b.closeRun()
		b.start = lo
	}
	b.end = hi
	b.count += hi - lo
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
