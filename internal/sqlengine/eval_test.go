package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datalab/internal/table"
)

// The oracle's expression evaluator. evalExpr walks the tree once per row —
// AND/OR, CASE and IN short-circuit per row — and applies the value-level
// library in eval.go at every operator, the library evalVec's boxed loops
// call too. What the differential tests compare is therefore evaluation
// strategy: this row walk against evalVec's columns, typed kernels and
// selections.

// env supplies the current row's cells (and, in grouped evaluation,
// aggregate results) to the expression evaluator. Column references were
// resolved to indexes when the statement was planned, so reading a cell
// cannot fail.
type env interface {
	// args returns the execution's arguments: bound parameters and
	// subquery results.
	args() *execArgs
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
		if v.IsNull() {
			return table.Null(), nil
		}
		found := false
		for _, cand := range x.Values {
			cv, err := evalExpr(cand, ev)
			if err != nil {
				return table.Null(), err
			}
			if found = !cv.IsNull() && table.Equal(v, cv); found {
				break
			}
		}
		if x.Sub != nil {
			for _, cv := range ev.args().subs[x.slot] {
				if found = !cv.IsNull() && table.Equal(v, cv); found {
					break
				}
			}
		}
		return table.Bool(found != x.Not), nil
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
		return betweenValue(v, lo, hi, x.Not), nil
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
				return evalExpr(w.Result, ev)
			}
		}
		if x.Else != nil {
			return evalExpr(x.Else, ev)
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
	return scalarFunc(f.Name, args)
}

// rowFallback evaluates e with the oracle, row by row, over the selected
// rows of a columnar relation: evalVec's reference for one expression.
func rowFallback(e Expr, rel *vrel, sel *table.Selection) (table.Column, error) {
	n := selLen(rel, sel)
	vals := make([]table.Value, n)
	sr := &srel{width: len(rel.cols), x: rel.x}
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
	return columnOfValues(vals), nil
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
