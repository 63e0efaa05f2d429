package pymini

import (
	"fmt"
)

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Assign is `targets = expr` (including chained a = b = expr, tuple
// unpacking, and augmented assignment).
type Assign struct {
	Targets []string // simple names bound by the assignment
	// Refs are the names read on the right-hand side, the base names of
	// attribute/subscript stores (df["x"] = ..., a.b = ...), and an
	// augmented assignment's targets.
	Refs []string
}

func (*Assign) stmt() {}

// FuncDef is `def name(params): body`.
type FuncDef struct {
	Name   string
	Params []string
	Body   []Stmt
}

func (*FuncDef) stmt() {}

// ClassDef is `class name(...): body`.
type ClassDef struct {
	Name string
	Body []Stmt
}

func (*ClassDef) stmt() {}

// Import binds module names: `import pandas as pd`, `from x import y, z`.
type Import struct {
	Bound []string // names introduced into the namespace
}

func (*Import) stmt() {}

// For is `for vars in iter: body`.
type For struct {
	Vars []string
	Refs []string
	Body []Stmt
}

func (*For) stmt() {}

// Cond covers if/elif/else and while: condition refs plus nested bodies.
type Cond struct {
	Refs   []string
	Bodies [][]Stmt
}

func (*Cond) stmt() {}

// ExprStmt is a bare expression (function call, method chain).
type ExprStmt struct {
	Refs []string
}

func (*ExprStmt) stmt() {}

// Module is a parsed cell.
type Module struct {
	Stmts []Stmt
}

// Parse lexes and parses source into a Module.
func Parse(source string) (*Module, error) {
	toks, err := Lex(source)
	if err != nil {
		return nil, err
	}
	p := &pyParser{toks: toks}
	stmts, err := p.parseBlock(false)
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("pymini: unexpected token %q at line %d", p.peek().Text, p.peek().Line)
	}
	return &Module{Stmts: stmts}, nil
}

type pyParser struct {
	toks []Token
	pos  int
}

func (p *pyParser) peek() Token { return p.toks[p.pos] }
func (p *pyParser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *pyParser) skipNewlines() {
	for p.peek().Kind == TokNewline {
		p.next()
	}
}

// parseBlock parses statements until DEDENT/EOF. When indented is true,
// the block was opened by an INDENT that this call consumes the matching
// DEDENT of.
func (p *pyParser) parseBlock(indented bool) ([]Stmt, error) {
	var stmts []Stmt
	for {
		p.skipNewlines()
		t := p.peek()
		if t.Kind == TokEOF {
			return stmts, nil
		}
		if t.Kind == TokDedent {
			if indented {
				p.next()
			}
			return stmts, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
}

func (p *pyParser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "def":
			return p.parseFuncDef()
		case "class":
			return p.parseClassDef()
		case "import", "from":
			return p.parseImport()
		case "for":
			return p.parseFor()
		case "if", "while", "elif", "else", "try", "except", "finally", "with":
			return p.parseCond()
		case "return", "pass", "break", "continue", "raise", "assert", "del", "global", "yield":
			p.next()
			refs := p.collectLineRefs()
			p.endStatement()
			return &ExprStmt{Refs: refs}, nil
		}
	}
	return p.parseSimple()
}

// parseSimple handles assignments and expression statements.
func (p *pyParser) parseSimple() (Stmt, error) {
	// Scan the logical line's tokens.
	var lineToks []Token
	for {
		t := p.peek()
		if t.Kind == TokNewline || t.Kind == TokEOF || t.Kind == TokDedent {
			break
		}
		lineToks = append(lineToks, p.next())
	}
	p.endStatement()
	if len(lineToks) == 0 {
		return nil, nil
	}
	// Find a top-level assignment operator.
	depth := 0
	assignIdx := -1
	augmented := false
	for i, t := range lineToks {
		if t.Kind == TokOp {
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				depth--
			case "=":
				if depth == 0 && assignIdx < 0 {
					assignIdx = i
				}
			case "+=", "-=", "*=", "/=", "//=", "**=":
				if depth == 0 && assignIdx < 0 {
					assignIdx = i
					augmented = true
				}
			case "==", "!=", "<=", ">=":
				// comparisons, not assignment
			}
		}
	}
	if assignIdx < 0 {
		return &ExprStmt{Refs: identRefs(lineToks)}, nil
	}
	lhs := lineToks[:assignIdx]
	rhs := lineToks[assignIdx+1:]
	a := &Assign{Refs: identRefs(rhs)}

	// LHS: simple names become targets; attribute/subscript stores read
	// their base name.
	i := 0
	for i < len(lhs) {
		t := lhs[i]
		if t.Kind != TokIdent {
			i++
			continue
		}
		// Peek at the follower to classify.
		isStore := i+1 >= len(lhs)
		if !isStore {
			nt := lhs[i+1]
			if nt.Kind == TokOp && (nt.Text == "," || nt.Text == "=") {
				isStore = true
			}
			if nt.Kind == TokOp && (nt.Text == "[" || nt.Text == ".") {
				a.Refs = append(a.Refs, t.Text)
				// Subscript expressions may reference other names.
				// Skip to the matching close.
				i++
				continue
			}
		}
		if isStore {
			a.Targets = append(a.Targets, t.Text)
		}
		i++
	}
	if augmented {
		a.Refs = append(a.Refs, a.Targets...)
	}
	return a, nil
}

func (p *pyParser) endStatement() {
	if p.peek().Kind == TokNewline {
		p.next()
	}
}

// collectLineRefs consumes tokens to end of line, returning ident refs.
func (p *pyParser) collectLineRefs() []string {
	var toks []Token
	for {
		t := p.peek()
		if t.Kind == TokNewline || t.Kind == TokEOF || t.Kind == TokDedent || t.Kind == TokIndent {
			break
		}
		toks = append(toks, p.next())
	}
	return identRefs(toks)
}

func (p *pyParser) parseFuncDef() (Stmt, error) {
	t := p.next() // def
	name := p.peek()
	if name.Kind != TokIdent {
		return nil, fmt.Errorf("pymini: expected function name at line %d", t.Line)
	}
	p.next()
	fd := &FuncDef{Name: name.Text}
	// Parameters between ( ).
	if p.peek().Kind == TokOp && p.peek().Text == "(" {
		p.next()
		depth := 1
		expectParam := true
		for depth > 0 {
			tok := p.next()
			if tok.Kind == TokEOF {
				return nil, fmt.Errorf("pymini: unterminated parameter list at line %d", t.Line)
			}
			if tok.Kind == TokOp {
				switch tok.Text {
				case "(", "[", "{":
					depth++
				case ")", "]", "}":
					depth--
				case ",":
					if depth == 1 {
						expectParam = true
					}
				case "=":
					expectParam = false
				}
				continue
			}
			if tok.Kind == TokIdent && depth == 1 && expectParam {
				fd.Params = append(fd.Params, tok.Text)
				expectParam = false
			}
		}
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *pyParser) parseClassDef() (Stmt, error) {
	t := p.next() // class
	name := p.peek()
	if name.Kind != TokIdent {
		return nil, fmt.Errorf("pymini: expected class name at line %d", t.Line)
	}
	p.next()
	// Skip base list.
	for {
		tok := p.peek()
		if tok.Kind == TokNewline || tok.Kind == TokEOF {
			break
		}
		if tok.Kind == TokOp && tok.Text == ":" {
			break
		}
		p.next()
	}
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	return &ClassDef{Name: name.Text, Body: body}, nil
}

func (p *pyParser) parseImport() (Stmt, error) {
	t := p.next() // import | from
	imp := &Import{}
	if t.Text == "from" {
		// from module import a [as b], c
		for p.peek().Kind == TokIdent || (p.peek().Kind == TokOp && p.peek().Text == ".") {
			p.next() // module path
		}
		if p.peek().Kind == TokKeyword && p.peek().Text == "import" {
			p.next()
		}
		imp.Bound = p.parseImportNames()
		p.endStatement()
		return imp, nil
	}
	// import a.b as c, d
	imp.Bound = p.parseImportNames()
	p.endStatement()
	return imp, nil
}

// parseImportNames reads `name[.sub]* [as alias]` lists, returning bound
// top-level names (alias if present, else first path segment).
func (p *pyParser) parseImportNames() []string {
	var bound []string
	for {
		if p.peek().Kind != TokIdent && !(p.peek().Kind == TokOp && p.peek().Text == "*") {
			break
		}
		first := p.next().Text
		// Swallow dotted path.
		for p.peek().Kind == TokOp && p.peek().Text == "." {
			p.next()
			if p.peek().Kind == TokIdent {
				p.next()
			}
		}
		name := first
		if p.peek().Kind == TokKeyword && p.peek().Text == "as" {
			p.next()
			if p.peek().Kind == TokIdent {
				name = p.next().Text
			}
		}
		if name != "*" {
			bound = append(bound, name)
		}
		if p.peek().Kind == TokOp && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}
	return bound
}

func (p *pyParser) parseFor() (Stmt, error) {
	t := p.next() // for
	f := &For{}
	// Loop variables until `in`.
	for {
		tok := p.peek()
		if tok.Kind == TokKeyword && tok.Text == "in" {
			p.next()
			break
		}
		if tok.Kind == TokNewline || tok.Kind == TokEOF {
			return nil, fmt.Errorf("pymini: for without in at line %d", t.Line)
		}
		if tok.Kind == TokIdent {
			f.Vars = append(f.Vars, tok.Text)
		}
		p.next()
	}
	// Iterable expression until ':'.
	var iterToks []Token
	for {
		tok := p.peek()
		if tok.Kind == TokOp && tok.Text == ":" {
			break
		}
		if tok.Kind == TokNewline || tok.Kind == TokEOF {
			break
		}
		iterToks = append(iterToks, p.next())
	}
	f.Refs = identRefs(iterToks)
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *pyParser) parseCond() (Stmt, error) {
	p.next() // if/while/...
	c := &Cond{}
	var condToks []Token
	for {
		tok := p.peek()
		if tok.Kind == TokOp && tok.Text == ":" {
			break
		}
		if tok.Kind == TokNewline || tok.Kind == TokEOF {
			break
		}
		condToks = append(condToks, p.next())
	}
	c.Refs = identRefs(condToks)
	body, err := p.parseSuite()
	if err != nil {
		return nil, err
	}
	c.Bodies = append(c.Bodies, body)
	// Chained elif/else/except/finally clauses attach to this Cond.
	for {
		p.skipNewlines()
		tok := p.peek()
		if tok.Kind != TokKeyword {
			break
		}
		switch tok.Text {
		case "elif", "else", "except", "finally":
			p.next()
			var extra []Token
			for {
				t2 := p.peek()
				if t2.Kind == TokOp && t2.Text == ":" {
					break
				}
				if t2.Kind == TokNewline || t2.Kind == TokEOF {
					break
				}
				extra = append(extra, p.next())
			}
			c.Refs = append(c.Refs, identRefs(extra)...)
			body, err := p.parseSuite()
			if err != nil {
				return nil, err
			}
			c.Bodies = append(c.Bodies, body)
		default:
			return c, nil
		}
	}
	return c, nil
}

// parseSuite parses `: NEWLINE INDENT block DEDENT` or `: simple-stmt`.
func (p *pyParser) parseSuite() ([]Stmt, error) {
	if p.peek().Kind == TokOp && p.peek().Text == ":" {
		p.next()
	}
	if p.peek().Kind == TokNewline {
		p.next()
		if p.peek().Kind == TokIndent {
			p.next()
			return p.parseBlock(true)
		}
		return nil, nil
	}
	// Inline suite: `if x: y = 1`
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

// identRefs extracts identifier references from a token run, skipping
// attribute names after '.' and keyword-argument names before '='.
func identRefs(toks []Token) []string {
	var refs []string
	for i, t := range toks {
		if t.Kind != TokIdent {
			continue
		}
		if i > 0 && toks[i-1].Kind == TokOp && toks[i-1].Text == "." {
			continue // attribute access: not a namespace reference
		}
		if i+1 < len(toks) && toks[i+1].Kind == TokOp && toks[i+1].Text == "=" &&
			i > 0 && toks[i-1].Kind == TokOp && (toks[i-1].Text == "(" || toks[i-1].Text == ",") {
			continue // keyword argument name
		}
		refs = append(refs, t.Text)
	}
	return refs
}
