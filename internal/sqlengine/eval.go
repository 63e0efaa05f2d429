package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"datalab/internal/table"
)

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
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return table.Null(), nil
			}
			b, ok := v.AsBool()
			if !ok {
				return table.Null(), fmt.Errorf("sql: NOT applied to non-boolean %v", v)
			}
			return table.Bool(!b), nil
		case "-":
			if v.IsNull() {
				return table.Null(), nil
			}
			if v.Kind == table.KindInt {
				return table.Int(-v.I), nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return table.Null(), fmt.Errorf("sql: negation of non-numeric %v", v)
			}
			return table.Float(-f), nil
		}
		return table.Null(), fmt.Errorf("sql: unknown unary op %q", x.Op)
	case *Binary:
		return evalBinary(x, ev)
	case *FuncCall:
		if x.Over != nil {
			return ev.window(x)
		}
		if _, isAgg := table.ParseAggFunc(x.Name); isAgg2(x.Name) || isAgg {
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
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return table.Null(), nil
		}
		in := table.Compare(v, lo) >= 0 && table.Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return table.Bool(in), nil
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

// isAgg2 recognizes aggregate names not covered by table.ParseAggFunc.
func isAgg2(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "MEDIAN":
		return true
	}
	return false
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
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if lv.IsNull() || rv.IsNull() {
			return table.Null(), nil
		}
		c := table.Compare(lv, rv)
		var res bool
		switch b.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return table.Bool(res), nil
	case "LIKE":
		if lv.IsNull() || rv.IsNull() {
			return table.Null(), nil
		}
		return table.Bool(likeMatch(lv.AsString(), rv.AsString())), nil
	case "||":
		if lv.IsNull() || rv.IsNull() {
			return table.Null(), nil
		}
		return table.Str(lv.AsString() + rv.AsString()), nil
	case "+", "-", "*", "/", "%":
		if lv.IsNull() || rv.IsNull() {
			return table.Null(), nil
		}
		lf, lok := lv.AsFloat()
		rf, rok := rv.AsFloat()
		if !lok || !rok {
			return table.Null(), fmt.Errorf("sql: arithmetic on non-numeric values %v %s %v", lv, b.Op, rv)
		}
		bothInt := lv.Kind == table.KindInt && rv.Kind == table.KindInt
		switch b.Op {
		case "+":
			if bothInt {
				return table.Int(lv.I + rv.I), nil
			}
			return table.Float(lf + rf), nil
		case "-":
			if bothInt {
				return table.Int(lv.I - rv.I), nil
			}
			return table.Float(lf - rf), nil
		case "*":
			if bothInt {
				return table.Int(lv.I * rv.I), nil
			}
			return table.Float(lf * rf), nil
		case "/":
			if rf == 0 {
				return table.Null(), nil
			}
			return table.Float(lf / rf), nil
		case "%":
			if rf == 0 {
				return table.Null(), nil
			}
			if bothInt {
				return table.Int(lv.I % rv.I), nil
			}
			return table.Float(math.Mod(lf, rf)), nil
		}
	}
	return table.Null(), fmt.Errorf("sql: unknown operator %q", b.Op)
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// (SQLite semantics, which the research NL2SQL benchmarks assume).
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

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
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "ABS":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		if args[0].Kind == table.KindInt {
			if args[0].I < 0 {
				return table.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		fv, ok := args[0].AsFloat()
		if !ok {
			return table.Null(), fmt.Errorf("sql: ABS of non-numeric")
		}
		return table.Float(math.Abs(fv)), nil
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return table.Null(), fmt.Errorf("sql: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		fv, ok := args[0].AsFloat()
		if !ok {
			return table.Null(), fmt.Errorf("sql: ROUND of non-numeric")
		}
		places := int64(0)
		if len(args) == 2 {
			places, _ = args[1].AsInt()
		}
		scale := math.Pow10(int(places))
		return table.Float(math.Round(fv*scale) / scale), nil
	case "LOWER":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		return table.Str(strings.ToLower(args[0].AsString())), nil
	case "UPPER":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		return table.Str(strings.ToUpper(args[0].AsString())), nil
	case "LENGTH", "LEN":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		return table.Int(int64(len(args[0].AsString()))), nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return table.Null(), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return table.Null(), fmt.Errorf("sql: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return table.Null(), nil
		}
		s := args[0].AsString()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return table.Str(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			length, _ := args[2].AsInt()
			if length < 0 {
				length = 0
			}
			if int(length) < len(out) {
				out = out[:length]
			}
		}
		return table.Str(out), nil
	case "YEAR":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		return timePart(args[0], "year")
	case "MONTH":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		return timePart(args[0], "month")
	case "DAY":
		if err := arity(1); err != nil {
			return table.Null(), err
		}
		return timePart(args[0], "day")
	case "NULLIF":
		if err := arity(2); err != nil {
			return table.Null(), err
		}
		if table.Equal(args[0], args[1]) {
			return table.Null(), nil
		}
		return args[0], nil
	}
	return table.Null(), fmt.Errorf("sql: unknown function %s", f.Name)
}

func timePart(v table.Value, part string) (table.Value, error) {
	if v.IsNull() {
		return table.Null(), nil
	}
	tv := v
	if tv.Kind != table.KindTime {
		tv = v.Coerce(table.KindTime)
		if tv.IsNull() {
			return table.Null(), fmt.Errorf("sql: %s() of non-temporal value %v", strings.ToUpper(part), v)
		}
	}
	switch part {
	case "year":
		return table.Int(int64(tv.T.Year())), nil
	case "month":
		return table.Int(int64(tv.T.Month())), nil
	default:
		return table.Int(int64(tv.T.Day())), nil
	}
}
