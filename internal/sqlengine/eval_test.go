package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datalab/internal/table"
)

// The oracle's expression evaluator. evalExpr walks the tree once per row —
// AND/OR, CASE and IN short-circuit per row — and applies the value-level
// library in eval.go at every operator, the library evalVec's per-row
// loops call too, and converts a CASE's or COALESCE's value into the node's
// kind as evalVec's columns hold it (kindOf, table.Kind.Coerce). What the
// differential tests compare is therefore evaluation strategy: this row
// walk against evalVec's columns, typed kernels and selections.

// env supplies the current row's cells (and, in grouped evaluation,
// aggregate results) to the expression evaluator. Column references were
// resolved to indexes when the statement was planned, so reading a cell
// cannot fail.
type env interface {
	// args returns the execution's arguments: bound parameters and
	// subquery results.
	args() *execArgs
	// kinds is the relation's column kinds, for kindOf.
	kinds() *vrel
	// column returns cell i of the current row of the joined relation.
	column(i int) table.Value
	// aggregate returns the value of an aggregate call, or an error when
	// aggregates are not valid in this context.
	aggregate(fn *FuncCall) (table.Value, error)
	// window returns the current row's value of a window function call
	// (precomputed before projection), or an error when window functions
	// are not valid in this context.
	window(fn *FuncCall) (table.Value, error)
}

// evalExpr evaluates e in the given environment.
func evalExpr(e Expr, ev env) (table.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *Param:
		return bindAt(ev.args().binds, x)
	case *ColumnRef:
		return ev.column(x.idx), nil
	case *Unary:
		v, err := evalExpr(x.X, ev)
		if err != nil {
			return table.Null(), err
		}
		return unaryValue(x.Op, v)
	case *Binary:
		return evalBinary(x, ev)
	case *FuncCall:
		if x.Over != nil {
			return ev.window(x)
		}
		if isAggregate(x.Name) {
			return ev.aggregate(x)
		}
		return evalScalarFunc(x, ev)
	case *Subquery:
		return ev.args().scalarSub(x.slot), nil
	case *In:
		v, err := evalExpr(x.X, ev)
		if err != nil {
			return table.Null(), err
		}
		// A subquery with no rows leaves no candidate: NOT IN holds and IN
		// fails for every x, NULL too.
		if x.Sub != nil && len(ev.args().subs[x.slot]) == 0 {
			return table.Bool(x.Not), nil
		}
		if v.IsNull() {
			return table.Null(), nil
		}
		// Three-valued membership: TRUE on the first equal candidate,
		// NULL when none is equal but one was NULL, FALSE otherwise.
		unknown := false
		member := func(cv table.Value) (bool, error) {
			if cv.IsNull() {
				unknown = true
				return false, nil
			}
			eq, err := compareValues(table.CmpEq, v, cv)
			return eq.B, err
		}
		for _, cand := range x.Values {
			cv, err := evalExpr(cand, ev)
			if err != nil {
				return table.Null(), err
			}
			if in, err := member(cv); in || err != nil {
				return table.Bool(!x.Not), err
			}
		}
		if x.Sub != nil {
			for _, cv := range ev.args().subs[x.slot] {
				if in, err := member(cv); in || err != nil {
					return table.Bool(!x.Not), err
				}
			}
		}
		if unknown {
			return table.Null(), nil
		}
		return table.Bool(x.Not), nil
	case *Between:
		v, err := evalExpr(x.X, ev)
		if err != nil {
			return table.Null(), err
		}
		lo, err := evalExpr(x.Lo, ev)
		if err != nil {
			return table.Null(), err
		}
		hi, err := evalExpr(x.Hi, ev)
		if err != nil {
			return table.Null(), err
		}
		return betweenValue(v, lo, hi, x.Not)
	case *IsNull:
		v, err := evalExpr(x.X, ev)
		if err != nil {
			return table.Null(), err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return table.Bool(res), nil
	case *CaseExpr:
		for _, w := range x.Whens {
			c, err := evalExpr(w.Cond, ev)
			if err != nil {
				return table.Null(), err
			}
			if b, ok := c.AsBool(); ok && b {
				v, err := evalExpr(w.Result, ev)
				return ofKind(x, ev, v), err
			}
		}
		if x.Else != nil {
			v, err := evalExpr(x.Else, ev)
			return ofKind(x, ev, v), err
		}
		return table.Null(), nil
	case Star:
		return table.Null(), fmt.Errorf("sql: '*' is only valid in SELECT list or COUNT(*)")
	}
	return table.Null(), fmt.Errorf("sql: cannot evaluate %T", e)
}

func evalBinary(b *Binary, ev env) (table.Value, error) {
	// AND/OR use three-valued logic with short-circuiting.
	switch b.Op {
	case "AND", "OR":
		lv, err := evalExpr(b.L, ev)
		if err != nil {
			return table.Null(), err
		}
		lb, lok := lv.AsBool()
		if b.Op == "AND" && lok && !lb {
			return table.Bool(false), nil
		}
		if b.Op == "OR" && lok && lb {
			return table.Bool(true), nil
		}
		rv, err := evalExpr(b.R, ev)
		if err != nil {
			return table.Null(), err
		}
		rb, rok := rv.AsBool()
		switch {
		case lok && rok:
			if b.Op == "AND" {
				return table.Bool(lb && rb), nil
			}
			return table.Bool(lb || rb), nil
		case b.Op == "AND" && rok && !rb:
			return table.Bool(false), nil
		case b.Op == "OR" && rok && rb:
			return table.Bool(true), nil
		default:
			return table.Null(), nil
		}
	}

	lv, err := evalExpr(b.L, ev)
	if err != nil {
		return table.Null(), err
	}
	rv, err := evalExpr(b.R, ev)
	if err != nil {
		return table.Null(), err
	}
	return binaryValue(b.Op, lv, rv)
}

// evalScalarFunc evaluates the scalar (non-aggregate) function library.
func evalScalarFunc(f *FuncCall, ev env) (table.Value, error) {
	args := make([]table.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := evalExpr(a, ev)
		if err != nil {
			return table.Null(), err
		}
		args[i] = v
	}
	v, err := scalarFunc(f.Name, args)
	return ofKind(f, ev, v), err
}

// ofKind converts v, node e's value, into e's kind as evalVec's
// colBuilder does: it panics where no conversion fits.
func ofKind(e Expr, ev env, v table.Value) table.Value {
	k := kindOf(e, ev.kinds())
	c, ok := k.Coerce(v)
	if !ok {
		panic(fmt.Sprintf("oracle: %s made a %s value for its %s column", e.SQL(), v.Kind, k))
	}
	return c
}

// rowFallback evaluates e with the oracle, row by row, over the selected
// rows of a columnar relation: evalVec's reference for one expression.
func rowFallback(e Expr, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	vals := make([]table.Value, n)
	sr := &srel{width: len(rel.cols), x: rel.x, kinds: rel}
	it := table.IterSelection(sel, rel.nrows)
	for i := 0; i < n; i++ {
		r, _ := it.Next()
		row := make([]table.Value, len(rel.cols))
		for c := range rel.cols {
			row[c] = rel.cols[c].Value(r)
		}
		v, err := evalExpr(e, &rowEnv{rel: sr, row: row})
		if err != nil {
			return table.Column{}, err
		}
		vals[i] = v
	}
	b := newColBuilder(e, kindOf(e, rel), n)
	for _, v := range vals {
		b.add(v)
	}
	return b.col, nil
}

// likeRec is LIKE's recursive definition over case-folded text — the
// matcher likeLower replaced, exponential in the number of %s on a cell it
// cannot match — kept as likeLower's reference.
func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// TestLikeMatchesRecursiveDefinition: the iterative matcher agrees with the
// recursive definition, case folding included, on random strings and
// patterns over a, b, %, _ (and their upper cases).
func TestLikeMatchesRecursiveDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(max int) string {
		const alphabet = "abAB%_"
		b := make([]byte, rng.Intn(max+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 50_000; i++ {
		s, p := draw(10), draw(8)
		if got, want := likeMatch(s, p), likeRec(strings.ToLower(s), strings.ToLower(p)); got != want {
			t.Fatalf("%q LIKE %q = %v, the recursive definition says %v", s, p, got, want)
		}
	}
}

// TestLikeBacktrackingIsBounded: the recursive matcher took time
// exponential in the number of %s on a cell it could not match — seconds
// for one 40-byte cell, on a pool worker no context could stop. A 10 kB
// cell must now be answered within a second.
func TestLikeBacktrackingIsBounded(t *testing.T) {
	tb := table.MustNew("t", []string{"s"}, []table.Kind{table.KindString})
	tb.MustAppendRow(table.Str(strings.Repeat("a", 10_000)))
	c := NewCatalog()
	c.Register(tb)
	start := time.Now()
	out := mustQuery(t, c, "SELECT COUNT(*) FROM t WHERE s LIKE '%a%a%a%a%a%a%a%a%b'")
	if d := time.Since(start); d > time.Second {
		t.Errorf("LIKE over a 10 kB cell took %v", d)
	}
	if n := out.Columns[0].Value(0); n.I != 0 {
		t.Errorf("COUNT = %v, want 0", n)
	}
}

// TestRoundStaysFinite: ROUND returned NaN or ±Inf where 10^places, or the
// value scaled by it, left the float range. Both evaluators call the one
// function library; both are asked.
func TestRoundStaysFinite(t *testing.T) {
	tb := table.MustNew("t", []string{"x"}, []table.Kind{table.KindFloat})
	tb.MustAppendRow(table.Float(1.5))
	c := NewCatalog()
	c.Register(tb)
	const q = "SELECT ROUND(x, 400), ROUND(x, -400), ROUND(1e300, 10), ROUND(x), ROUND(-x, 1) FROM t"
	want := []float64{1.5, 0, 1e300, 2, -1.5}
	for name, run := range map[string]func(string) (*table.Table, error){
		"QueryCtx":    func(q string) (*table.Table, error) { return queryTable(c, q) },
		"QueryScalar": c.QueryScalar,
	} {
		out, err := run(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range want {
			if got := out.Columns[i].Value(0); got.Kind != table.KindFloat || got.F != w {
				t.Errorf("%s: %s = %v, want %v", name, out.Columns[i].Name, got, w)
			}
		}
	}
}

// TestOperatorDefinitions checks every comparison and arithmetic operator
// against literal expected values. evalVec's typed loops and binaryValue
// run the same per-cell definitions, so the differential harness cannot
// catch a wrong one; this table can. Each case runs through binaryValue and
// through evalVec over one-row typed columns, whose typed loop must cover
// the pair.
func TestOperatorDefinitions(t *testing.T) {
	const maxInt, minInt = int64(math.MaxInt64), int64(math.MinInt64)
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	t0 := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	null := table.Null()
	i, f := table.Int, table.Float
	// Comparison results in the order =, <>, <, <=, >, >=.
	cmpOps := []string{"=", "<>", "<", "<=", ">", ">="}
	less := [6]bool{false, true, true, true, false, false}
	equal := [6]bool{true, false, false, true, false, true}
	greater := [6]bool{false, true, false, false, true, true}
	comparisons := []struct {
		l, r table.Value
		want [6]bool
	}{
		{i(1), i(2), less},
		{i(3), i(3), equal},
		{i(1<<53 + 1), i(1 << 53), greater}, // exact in int64
		{i(-5), i(minInt), greater},
		{i(2), f(2.5), less},
		{i(1<<53 + 1), f(1 << 53), equal}, // float64(cell)
		{f(2.5), i(2), greater},
		{f(1.5), f(-0.5), greater},
		{f(negZero), f(0), equal},
		{f(nan), f(1), equal}, // NaN is neither < nor >: equal to every number
		{i(7), f(nan), equal},
		{f(nan), f(nan), equal},
		{table.Str("a"), table.Str("b"), less},
		{table.Time(t0), table.Time(t0.Add(time.Nanosecond)), less},
		{table.Time(t0.Add(time.Nanosecond)), table.Time(t0), greater},
		{table.Time(t0), table.Time(t0), equal},
	}
	type arith struct {
		l       table.Value
		op      string
		r, want table.Value
	}
	cases := []arith{
		{i(7), "+", i(2), i(9)},
		{i(7), "-", i(2), i(5)},
		{i(7), "*", i(2), i(14)},
		{i(7), "/", i(2), f(3.5)}, // / is always float
		{i(7), "%", i(2), i(1)},
		{i(-7), "%", i(2), i(-1)},
		{i(7), "/", i(0), null},
		{i(7), "%", i(0), null},
		{i(maxInt), "+", i(1), i(minInt)}, // int64 wraps
		{i(minInt), "-", i(1), i(maxInt)},
		{i(maxInt), "*", i(2), i(-2)},
		{i(minInt), "%", i(-1), i(0)},
		{i(7), "+", f(0.5), f(7.5)},
		{i(7), "%", f(2.5), f(2)},
		{i(7), "/", f(0), null},
		{i(7), "%", f(negZero), null},
		{f(0.5), "-", i(2), f(-1.5)},
		{f(1.5), "*", f(2), f(3)},
		{f(1), "/", f(4), f(0.25)},
		{f(-7.5), "%", f(2), f(-1.5)},
		{f(1.5), "/", f(negZero), null},
		{f(0), "%", f(0), null},
		{f(negZero), "+", f(0), f(0)},
		{f(negZero), "*", f(1), f(negZero)},
		{f(negZero), "-", f(0), f(negZero)},
		{f(nan), "+", f(1), f(nan)},
		{i(3), "*", f(nan), f(nan)},
	}
	for _, c := range comparisons {
		for k, op := range cmpOps {
			cases = append(cases, arith{c.l, op, c.r, table.Bool(c.want[k])})
		}
	}
	same := func(a, b table.Value) bool {
		if a.Kind == table.KindFloat && b.Kind == table.KindFloat {
			return math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F
		}
		return a.Kind == b.Kind && (a.IsNull() || table.Compare(a, b) == 0)
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v %s %v", c.l, c.op, c.r)
		got, err := binaryValue(c.op, c.l, c.r)
		if err != nil || !same(got, c.want) {
			t.Errorf("binaryValue: %s = %v (%v), want %v", name, got, err, c.want)
		}
		lcol, rcol := constColumn(c.l, 1), constColumn(c.r, 1)
		if _, ok := binaryVec(c.op, &lcol, &rcol); !ok {
			t.Errorf("evalVec: %s has no typed loop", name)
			continue
		}
		rel := &vrel{cols: []table.Column{lcol, rcol}, nrows: 1}
		out, err := evalVec(&Binary{Op: c.op, L: &ColumnRef{idx: 0}, R: &ColumnRef{idx: 1}}, rel, nil)
		if err != nil || out.Len() != 1 {
			t.Errorf("evalVec: %s: %v (%d rows)", name, err, out.Len())
			continue
		}
		if got := out.Value(0); !same(got, c.want) {
			t.Errorf("evalVec: %s = %v, want %v", name, got, c.want)
		}
	}
}
