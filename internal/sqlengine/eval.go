package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"datalab/internal/table"
)

// The value-level operator and function library: what one operator or one
// scalar function does to one row's operand values. evalVec's per-row
// loops call it for every operand shape its typed loops do not
// cover, and the row-at-a-time oracle the differential tests check evalVec
// against calls it too — the two differ in evaluation strategy only, never
// in what an operator means.

// isAggregate reports whether name (upper-cased by the parser) is one of
// the engine's aggregate functions, the names aggAcc folds.
func isAggregate(name string) bool {
	_, ok := aggOps[name]
	return ok
}

// unaryValue applies NOT or arithmetic negation to one value.
func unaryValue(op string, v table.Value) (table.Value, error) {
	switch op {
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
	return table.Null(), fmt.Errorf("sql: unknown unary op %q", op)
}

// binaryValue applies a comparison, arithmetic, LIKE or || — every binary
// operator but AND and OR, whose right side depends on the left — to one
// pair of operand values. Comparisons and arithmetic decide each pair
// through the definitions below, which evalVec's typed loops run too.
func binaryValue(op string, lv, rv table.Value) (table.Value, error) {
	cmp, isCmp := cmpOpOf(op)
	fa := floatArith(op)
	if !isCmp && fa == nil && op != "LIKE" && op != "||" {
		return table.Null(), fmt.Errorf("sql: unknown operator %q", op)
	}
	switch {
	case lv.IsNull() || rv.IsNull():
		return table.Null(), nil
	case isCmp:
		return compareValues(cmp, lv, rv)
	case op == "LIKE":
		return table.Bool(likeMatch(lv.AsString(), rv.AsString())), nil
	case op == "||":
		return table.Str(lv.AsString() + rv.AsString()), nil
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		return table.Null(), fmt.Errorf("sql: arithmetic on non-numeric values %v %s %v", lv, op, rv)
	}
	if fi := intArith(op); fi != nil && lv.Kind == table.KindInt && rv.Kind == table.KindInt {
		if r, ok := fi(lv.I, rv.I); ok {
			return table.Int(r), nil
		}
		return table.Null(), nil
	}
	if r, ok := fa(lf, rf); ok {
		return table.Float(r), nil
	}
	return table.Null(), nil
}

// compareValues is a op b for two non-NULL values as table.Compare orders
// them, a string against a time read as its instant by
// table.CompareOperand; a string there that names no instant raises.
func compareValues(op table.CmpOp, a, b table.Value) (table.Value, error) {
	ta, aok := table.CompareOperand(b.Kind, a)
	tb, bok := table.CompareOperand(a.Kind, b)
	switch {
	case !aok:
		return table.Null(), fmt.Errorf("sql: %q is not a time", a.S)
	case !bok:
		return table.Null(), fmt.Errorf("sql: %q is not a time", b.S)
	}
	return table.Bool(op.Accepts(table.Compare(ta, tb))), nil
}

// cmpOpOf is the comparison operator op names; ok=false for any other
// operator.
func cmpOpOf(op string) (table.CmpOp, bool) {
	switch op {
	case "=":
		return table.CmpEq, true
	case "<>":
		return table.CmpNe, true
	case "<":
		return table.CmpLt, true
	case "<=":
		return table.CmpLe, true
	case ">":
		return table.CmpGt, true
	case ">=":
		return table.CmpGe, true
	}
	return 0, false
}

// intArith is arithmetic operator op over two integers, wrapping as int64
// does; ok=false — NULL — for a zero divisor of %. It is nil for /, which
// is always float, and for any operator that is not arithmetic.
func intArith(op string) func(a, b int64) (int64, bool) {
	switch op {
	case "+":
		return func(a, b int64) (int64, bool) { return a + b, true }
	case "-":
		return func(a, b int64) (int64, bool) { return a - b, true }
	case "*":
		return func(a, b int64) (int64, bool) { return a * b, true }
	case "%":
		return func(a, b int64) (int64, bool) {
			if b == 0 {
				return 0, false
			}
			return a % b, true
		}
	}
	return nil
}

// floatArith is arithmetic operator op over two float64s — any operand
// pair but two integers, and / always; ok=false — NULL — for a zero
// divisor of / or %. It is nil for any operator that is not arithmetic.
func floatArith(op string) func(a, b float64) (float64, bool) {
	switch op {
	case "+":
		return func(a, b float64) (float64, bool) { return a + b, true }
	case "-":
		return func(a, b float64) (float64, bool) { return a - b, true }
	case "*":
		return func(a, b float64) (float64, bool) { return a * b, true }
	case "/":
		return func(a, b float64) (float64, bool) {
			if b == 0 {
				return 0, false
			}
			return a / b, true
		}
	case "%":
		return func(a, b float64) (float64, bool) {
			if b == 0 {
				return 0, false
			}
			return math.Mod(a, b), true
		}
	}
	return nil
}

// betweenValue is v [NOT] BETWEEN lo AND hi for one row: NULL when any of
// the three is, otherwise v >= lo and v <= hi by compareValues. Both are
// compared, so a bound that names no instant raises on every row it meets.
func betweenValue(v, lo, hi table.Value, not bool) (table.Value, error) {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return table.Null(), nil
	}
	ge, err := compareValues(table.CmpGe, v, lo)
	if err != nil {
		return ge, err
	}
	le, err := compareValues(table.CmpLe, v, hi)
	return table.Bool((ge.B && le.B) != not), err
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// (SQLite semantics, which the research NL2SQL benchmarks assume).
func likeMatch(s, pattern string) bool {
	return likeLower(strings.ToLower(s), strings.ToLower(pattern))
}

// likeLower matches s against p, both already case-folded: % matches any
// run of bytes, _ exactly one byte, anything else itself. On a mismatch it
// backtracks to the last % seen and lets it take one more byte. Retrying
// an earlier % is never needed — whatever it could have taken, the last
// one can absorb — so a match costs O(len(s)·len(p)) on every input.
func likeLower(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // the last % (index in p) and where its run ends in s
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// scalarFunc applies the scalar (non-aggregate) function library to one
// row's argument values.
func scalarFunc(name string, args []table.Value) (table.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
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
		return table.Float(roundPlaces(fv, places)), nil
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
		// CASE WHEN a = b THEN NULL ELSE a END: the comparison's rule, so a
		// time against text that names no instant raises; a NULL operand
		// makes the comparison NULL, which keeps a.
		if args[0].IsNull() || args[1].IsNull() {
			return args[0], nil
		}
		eq, err := compareValues(table.CmpEq, args[0], args[1])
		if err != nil {
			return table.Null(), err
		}
		if eq.B {
			return table.Null(), nil
		}
		return args[0], nil
	}
	return table.Null(), fmt.Errorf("sql: unknown function %s", name)
}

// roundPlaces rounds f to places decimal digits (negative places round to
// tens, hundreds, ...) and stays finite wherever f is: when 10^places, or f
// scaled by it, overflows, f has no digit that far right and comes back
// as it is; when 10^places underflows to zero, f rounds to 0.
func roundPlaces(f float64, places int64) float64 {
	scale := math.Pow10(int(places))
	if scale == 0 {
		return 0
	}
	scaled := f * scale
	if math.IsInf(scale, 0) || math.IsInf(scaled, 0) {
		return f
	}
	return math.Round(scaled) / scale
}

// timePart is YEAR, MONTH or DAY of a time, or of text read as the
// instant a comparison with a time reads it (table.CompareOperand), in
// UTC; text that names no instant raises as it does there.
func timePart(v table.Value, part string) (table.Value, error) {
	if v.IsNull() {
		return table.Null(), nil
	}
	tv, ok := table.CompareOperand(table.KindTime, v)
	if !ok {
		return table.Null(), fmt.Errorf("sql: %q is not a time", v.S)
	}
	if tv.Kind != table.KindTime {
		return table.Null(), fmt.Errorf("sql: %s() of non-temporal value %v", strings.ToUpper(part), v)
	}
	t := tv.Time()
	switch part {
	case "year":
		return table.Int(int64(t.Year())), nil
	case "month":
		return table.Int(int64(t.Month())), nil
	default:
		return table.Int(int64(t.Day())), nil
	}
}
