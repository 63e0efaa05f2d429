package sqlengine

import "datalab/internal/table"

// The kind rule: an expression's kind follows from its operands' kinds,
// never from its values, so the column it makes holds one kind whichever
// rows reach it (docs/ENGINE.md has the rule as a table). A column
// reference has its column's kind, a literal, bound parameter or scalar
// subquery its value's; CASE arms and COALESCE/IFNULL arguments combine by
// table.Promote; every other node has the kind its value-library definition
// returns for those operand kinds — NULL, for an operator NULL whenever an
// operand is, over an operand of kind NULL. The typed loops make columns of
// these kinds by construction; colBuilder converts the value library's
// values into them.

// kindOf is the kind of e's values over rel. It reads the relation's
// column kinds and the execution's bound values, so it decides a node's
// kind once per evaluation, never per row.
func kindOf(e Expr, rel *vrel) table.Kind {
	switch x := e.(type) {
	case *Literal:
		return x.Value.Kind
	case *Param:
		v, _ := bindAt(rel.x.binds, x) // an unbound one raises in evalVec
		return v.Kind
	case *Subquery:
		return rel.x.scalarSub(x.slot).Kind
	case *ColumnRef:
		return rel.colKind(x.idx)
	case *Binary:
		if x.Op == "AND" || x.Op == "OR" {
			return table.KindBool
		}
		l, r := kindOf(x.L, rel), kindOf(x.R, rel)
		_, cmp := cmpOpOf(x.Op)
		switch {
		case l == table.KindNull || r == table.KindNull:
			return table.KindNull
		case cmp || x.Op == "LIKE":
			return table.KindBool
		case x.Op == "||":
			return table.KindString
		case l == table.KindInt && r == table.KindInt && intArith(x.Op) != nil:
			return table.KindInt
		}
		return table.KindFloat
	case *Unary:
		switch k := kindOf(x.X, rel); {
		case k == table.KindNull:
			return table.KindNull
		case x.Op == "NOT":
			return table.KindBool
		case k == table.KindInt:
			return table.KindInt
		}
		return table.KindFloat
	case *IsNull, *In:
		return table.KindBool
	case *Between:
		for _, o := range [...]Expr{x.X, x.Lo, x.Hi} {
			if kindOf(o, rel) == table.KindNull {
				return table.KindNull
			}
		}
		return table.KindBool
	case *CaseExpr:
		k := table.KindNull
		for _, w := range x.Whens {
			k = table.Promote(k, kindOf(w.Result, rel))
		}
		if x.Else != nil {
			k = table.Promote(k, kindOf(x.Else, rel))
		}
		return k
	case *FuncCall:
		return funcKind(x, rel)
	}
	return table.KindNull
}

// funcKind is kindOf for a function call: a window function, an aggregate
// or a scalar function.
func funcKind(f *FuncCall, rel *vrel) table.Kind {
	switch f.Name {
	case "ROW_NUMBER", "RANK", "DENSE_RANK":
		return table.KindInt
	case "COALESCE", "IFNULL":
		k := table.KindNull
		for _, a := range f.Args {
			k = table.Promote(k, kindOf(a, rel))
		}
		return k
	}
	if op, ok := aggOps[f.Name]; ok {
		if f.IsStar || len(f.Args) != 1 {
			return aggKind(op, table.KindInt) // COUNT(*); any other raises
		}
		return aggKind(op, kindOf(f.Args[0], rel))
	}
	if len(f.Args) == 0 {
		return table.KindNull // raises
	}
	arg := kindOf(f.Args[0], rel)
	if arg == table.KindNull {
		return table.KindNull // every scalar function is NULL over a NULL first argument
	}
	switch f.Name {
	case "ABS":
		if arg == table.KindInt {
			return table.KindInt
		}
		return table.KindFloat
	case "ROUND":
		return table.KindFloat
	case "LOWER", "UPPER", "SUBSTR", "SUBSTRING":
		return table.KindString
	case "LENGTH", "LEN", "YEAR", "MONTH", "DAY":
		return table.KindInt
	case "NULLIF":
		return arg
	}
	return table.KindNull // an unknown function raises
}

// aggKind is the kind of aggAcc's value for op over values of kind arg:
// COUNT is an int, MIN and MAX have their values' kind, and SUM, AVG,
// STDDEV and MEDIAN are floats — NULL over values that are all NULL.
func aggKind(op aggOp, arg table.Kind) table.Kind {
	switch {
	case op == aggCount:
		return table.KindInt
	case op == aggMin || op == aggMax || arg == table.KindNull:
		return arg
	}
	return table.KindFloat
}

// colKind is the kind of column ci: a group relation's is its base's, and
// a column a join left as pairs has its source's.
func (r *vrel) colKind(ci int) table.Kind {
	if r.grp != nil {
		return r.grp.base.colKind(ci)
	}
	if late := r.lateCol(ci); late != nil {
		return late.src.Kind
	}
	return r.cols[ci].Kind
}
