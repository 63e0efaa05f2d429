package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"datalab/internal/table"
)

// parseCalls counts Parse invocations — the observability hook behind
// ParseCalls, which tests and metrics use to prove that plan-cache hits
// and prepared-statement re-execution never re-enter the parser.
var parseCalls atomic.Int64

// ParseCalls reports the total number of Parse invocations in this
// process.
func ParseCalls() int64 { return parseCalls.Load() }

// Parse parses a single SELECT statement.
func Parse(sql string) (*SelectStmt, error) {
	parseCalls.Add(1)
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := validateSelect(stmt); err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokOp && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int

	params []string       // binding slot names in slot order ("" = positional)
	named  map[string]int // :name -> slot, so repeated names share a slot
}

// paramRef allocates (or, for a repeated :name, reuses) the binding slot
// for a placeholder token.
func (p *parser) paramRef(t token) *Param {
	if strings.HasPrefix(t.text, ":") {
		name := t.text[1:]
		if i, ok := p.named[name]; ok {
			return &Param{Index: i, Name: name}
		}
		if p.named == nil {
			p.named = map[string]int{}
		}
		idx := len(p.params)
		p.named[name] = idx
		p.params = append(p.params, name)
		return &Param{Index: idx, Name: name}
	}
	idx := len(p.params)
	p.params = append(p.params, "")
	return &Param{Index: idx}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, alias, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From, stmt.FromAs = name, alias

	// JOIN clauses.
	for {
		kind := table.JoinInner
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = table.JoinLeft
		case p.acceptKeyword("RIGHT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = table.JoinRight
		case p.acceptKeyword("FULL"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = table.JoinFull
		default:
			goto afterJoins
		}
		jname, jalias, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Kind: kind, Table: jname, Alias: jalias, On: on})
	}
afterJoins:

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n1, p1, err := p.parseLimitTerm()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(",") { // LIMIT offset, count (MySQL form)
			n2, p2, err := p.parseLimitTerm()
			if err != nil {
				return nil, err
			}
			stmt.Offset, stmt.OffsetParam = n1, p1
			stmt.Limit, stmt.LimitParam = n2, p2
		} else {
			stmt.Limit, stmt.LimitParam = n1, p1
		}
		if stmt.LimitParam != nil {
			stmt.Limit = -1 // resolved from the bindings at execute time
		}
	}
	if p.acceptKeyword("OFFSET") {
		n, prm, err := p.parseLimitTerm()
		if err != nil {
			return nil, err
		}
		stmt.Offset, stmt.OffsetParam = n, prm
	}
	stmt.Params = p.params
	return stmt, nil
}

// parseSubSelect parses a nested SELECT in a subquery position. The
// subquery shares the outer statement's binding-slot space (placeholders
// inside it allocate outer slots), so its own Params list is cleared —
// only the top-level statement declares slots; subquery execution passes
// the outer binding slice through unchecked (begin).
func (p *parser) parseSubSelect() (*SelectStmt, error) {
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := validateSelect(sub); err != nil {
		return nil, err
	}
	sub.Params = nil
	return sub, nil
}

// validateSelect enforces statement-level placement rules for window
// functions once a statement (or subquery) finishes parsing, so malformed
// shapes fail at parse time with targeted messages instead of deep in an
// executor.
func validateSelect(stmt *SelectStmt) error {
	for _, j := range stmt.Joins {
		if exprHasWindow(j.On) {
			return fmt.Errorf("sql: window functions are not allowed in JOIN ON")
		}
	}
	if stmt.Where != nil && exprHasWindow(stmt.Where) {
		return fmt.Errorf("sql: window functions are not allowed in WHERE")
	}
	for _, g := range stmt.GroupBy {
		if exprHasWindow(g) {
			return fmt.Errorf("sql: window functions are not allowed in GROUP BY")
		}
	}
	if stmt.Having != nil && exprHasWindow(stmt.Having) {
		return fmt.Errorf("sql: window functions are not allowed in HAVING")
	}
	wins := statementWindows(stmt.Items, stmt.OrderBy)
	if len(wins) == 0 {
		return nil
	}
	if len(stmt.GroupBy) > 0 || stmt.Having != nil || selectHasAggregate(stmt) {
		return fmt.Errorf("sql: window functions cannot be combined with GROUP BY or aggregates")
	}
	for _, fn := range wins {
		inner := append([]Expr{}, fn.Args...)
		inner = append(inner, fn.Over.PartitionBy...)
		for _, o := range fn.Over.OrderBy {
			inner = append(inner, o.Expr)
		}
		for _, e := range inner {
			if exprHasWindow(e) {
				return fmt.Errorf("sql: window functions cannot be nested")
			}
			if exprHasAggregate(e) {
				return fmt.Errorf("sql: aggregates are not allowed inside a window function")
			}
			if exprHasSubquery(e) {
				return fmt.Errorf("sql: subqueries are not allowed inside a window function")
			}
		}
	}
	return nil
}

// parseLimitTerm parses a LIMIT/OFFSET operand: a non-negative integer
// literal, or a placeholder resolved at execute time.
func (p *parser) parseLimitTerm() (int, *Param, error) {
	t := p.peek()
	if t.kind == tokParam {
		p.next()
		return 0, p.paramRef(t), nil
	}
	if t.kind != tokNumber {
		return 0, nil, fmt.Errorf("sql: expected number, found %q", t.text)
	}
	p.next()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, nil, fmt.Errorf("sql: bad integer %q", t.text)
	}
	return n, nil, nil
}

// literalFromNumber converts a number token's text to its literal value.
// It is shared by the parser and the fingerprint normalizer so extracted
// parameters carry exactly the value inline parsing would have produced.
func literalFromNumber(text string) (table.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return table.Null(), fmt.Errorf("sql: bad number %q", text)
		}
		return table.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return table.Null(), fmt.Errorf("sql: bad number %q", text)
	}
	return table.Int(i), nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Expr: Star{}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.kind != tokIdent && t.kind != tokString {
			return SelectItem{}, fmt.Errorf("sql: expected alias, found %q", t.text)
		}
		p.next()
		item.Alias = t.text
	} else if t := p.peek(); t.kind == tokIdent {
		// Bare alias: SELECT amount total FROM ...
		p.next()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (name, alias string, err error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", "", fmt.Errorf("sql: expected table name, found %q", t.text)
	}
	p.next()
	name = t.text
	// Optional db.table qualification collapses into the table name.
	if p.acceptOp(".") {
		t2 := p.peek()
		if t2.kind != tokIdent {
			return "", "", fmt.Errorf("sql: expected table after %q.", name)
		}
		p.next()
		name = name + "." + t2.text
	}
	if p.acceptKeyword("AS") {
		t2 := p.peek()
		if t2.kind != tokIdent {
			return "", "", fmt.Errorf("sql: expected alias, found %q", t2.text)
		}
		p.next()
		alias = t2.text
	} else if t2 := p.peek(); t2.kind == tokIdent {
		p.next()
		alias = t2.text
	}
	return name, alias, nil
}

// Expression grammar (precedence climbing):
//   expr    := orExpr
//   orExpr  := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | predicate
//   predicate := additive [cmpOp additive | IS [NOT] NULL | [NOT] IN (...) | [NOT] BETWEEN ... | [NOT] LIKE additive]
//   additive := multiplicative (("+"|"-"|"||") multiplicative)*
//   multiplicative := unary (("*"|"/"|"%") unary)*
//   unary   := "-" unary | primary
//   primary := literal | funcCall | columnRef | "(" expr ")" | CASE ...

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Not: not}, nil
	}
	not := false
	if p.atKeyword("NOT") {
		// Lookahead for NOT IN / NOT BETWEEN / NOT LIKE.
		p.next()
		if p.atKeyword("IN") || p.atKeyword("BETWEEN") || p.atKeyword("LIKE") {
			not = true
		} else {
			p.backup()
			return left, nil
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &In{X: left, Not: not}
		if p.atKeyword("SELECT") {
			sub, err := p.parseSubSelect()
			if err != nil {
				return nil, err
			}
			if len(sub.Items) != 1 {
				return nil, fmt.Errorf("sql: IN subquery must return exactly one column, got %d", len(sub.Items))
			}
			in.Sub = sub
		} else {
			for {
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.Values = append(in.Values, v)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&Binary{Op: "LIKE", L: left, R: pat})
		if not {
			like = &Unary{Op: "NOT", X: like}
		}
		return like, nil
	}
	// Comparison operators.
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			canonical := op
			if op == "!=" {
				canonical = "<>"
			}
			return &Binary{Op: canonical, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		case p.acceptOp("||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		v, err := literalFromNumber(t.text)
		if err != nil {
			return nil, err
		}
		return &Literal{Value: v}, nil
	case tokParam:
		p.next()
		return p.paramRef(t), nil
	case tokString:
		p.next()
		return &Literal{Value: table.Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: table.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: table.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: table.Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.next()
		// Function call?
		if p.acceptOp("(") {
			fn := &FuncCall{Name: strings.ToUpper(t.text)}
			if p.acceptOp("*") {
				fn.IsStar = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			} else {
				fn.Distinct = p.acceptKeyword("DISTINCT")
				if !p.acceptOp(")") {
					for {
						arg, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						fn.Args = append(fn.Args, arg)
						if !p.acceptOp(",") {
							break
						}
					}
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
				}
			}
			if p.acceptKeyword("OVER") {
				if err := p.parseWindowSpec(fn); err != nil {
					return nil, err
				}
			} else if rankingFuncs[fn.Name] {
				return nil, fmt.Errorf("sql: %s requires an OVER clause", fn.Name)
			}
			return fn, nil
		}
		// Qualified column?
		if p.acceptOp(".") {
			t2 := p.peek()
			if t2.kind == tokOp && t2.text == "*" {
				p.next()
				// t.* — treat as Star scoped to the table; the executor
				// expands it like a bare star over that table's columns.
				return &ColumnRef{Table: t.text, Name: "*"}, nil
			}
			if t2.kind != tokIdent {
				return nil, fmt.Errorf("sql: expected column after %q.", t.text)
			}
			p.next()
			return &ColumnRef{Table: t.text, Name: t2.text}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			p.next()
			if p.atKeyword("SELECT") {
				sub, err := p.parseSubSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				if len(sub.Items) != 1 {
					return nil, fmt.Errorf("sql: scalar subquery must return exactly one column, got %d", len(sub.Items))
				}
				return &Subquery{Stmt: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q in expression", t.text)
}

// rankingFuncs are window-only functions: they are meaningless without an
// OVER clause and take no arguments.
var rankingFuncs = map[string]bool{
	"ROW_NUMBER": true, "RANK": true, "DENSE_RANK": true,
}

// windowAggFuncs are the plain aggregates that may also run as window
// functions over a partition/frame.
var windowAggFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// parseWindowSpec parses the parenthesized OVER specification following a
// function call and validates the call/spec combination.
func (p *parser) parseWindowSpec(fn *FuncCall) error {
	if !p.acceptOp("(") {
		return fmt.Errorf("sql: expected ( after OVER, found %q", p.peek().text)
	}
	w := &WindowSpec{}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			w.OrderBy = append(w.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ROWS") {
		if len(w.OrderBy) == 0 {
			return fmt.Errorf("sql: ROWS frame requires ORDER BY in the OVER clause")
		}
		if err := p.expectKeyword("BETWEEN"); err != nil {
			return err
		}
		f := &WindowFrame{}
		if p.acceptKeyword("UNBOUNDED") {
			f.Unbounded = true
		} else {
			t := p.peek()
			if t.kind != tokNumber {
				return fmt.Errorf("sql: expected UNBOUNDED or a row count in ROWS frame, found %q", t.text)
			}
			p.next()
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return fmt.Errorf("sql: bad frame bound %q", t.text)
			}
			f.Preceding = n
		}
		if err := p.expectKeyword("PRECEDING"); err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		if err := p.expectKeyword("CURRENT"); err != nil {
			return err
		}
		if err := p.expectKeyword("ROW"); err != nil {
			return err
		}
		w.Frame = f
	}
	if !p.acceptOp(")") {
		return fmt.Errorf("sql: unclosed OVER ( — expected PARTITION BY, ORDER BY, ROWS, or ), found %q", p.peek().text)
	}
	fn.Over = w
	return validateWindowCall(fn)
}

// validateWindowCall checks argument and spec constraints per window
// function family.
func validateWindowCall(fn *FuncCall) error {
	switch {
	case rankingFuncs[fn.Name]:
		if len(fn.Args) > 0 || fn.IsStar {
			return fmt.Errorf("sql: %s() takes no arguments", fn.Name)
		}
		if len(fn.Over.OrderBy) == 0 {
			return fmt.Errorf("sql: %s() requires ORDER BY in its OVER clause", fn.Name)
		}
		if fn.Over.Frame != nil {
			return fmt.Errorf("sql: %s() does not accept a ROWS frame", fn.Name)
		}
	case windowAggFuncs[fn.Name]:
		if fn.Distinct {
			return fmt.Errorf("sql: DISTINCT is not supported in window function %s", fn.Name)
		}
		if fn.IsStar && fn.Name != "COUNT" {
			return fmt.Errorf("sql: %s(*) is not a valid window function", fn.Name)
		}
		if !fn.IsStar && len(fn.Args) != 1 {
			return fmt.Errorf("sql: window function %s takes exactly one argument", fn.Name)
		}
	default:
		return fmt.Errorf("sql: %s is not a supported window function", fn.Name)
	}
	return nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	// Simple form: CASE operand WHEN v THEN r ... — desugared to the
	// searched form with operand = v conditions.
	var operand Expr
	if !p.atKeyword("WHEN") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		operand = e
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &Binary{Op: "=", L: operand, R: cond}
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE without WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
