package sqlengine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datalab/internal/table"
)

// The SQLite differential: the generator's statements and the fixed corpora
// run through this engine and through the installed sqlite3, an engine that
// shares no code with this one (the method of RAGS, Slutz VLDB 1998). The
// row oracle of the other differential tests shares the operator library,
// aggAcc and the window fold with the engine, so a meaning both get wrong
// is invisible to it; here it is a disagreement.
//
// The catalogs load through os/exec as a script — CREATE TABLE, INSERT, one
// statement a line — and sqlite3 answers in `.mode quote`, so no Go driver
// is needed. Both engines run the same text: the statement as this engine
// prints it back, its ORDER BY extended by every output position, so that
// rows tied on the statement's own keys come out in one order on both sides.
//
// Every disagreement fails unless an entry of sqliteExceptions explains
// it; each entry names the test that shows the difference on its own.

// sqliteException is one way the engine deliberately answers otherwise than
// SQLite, and the test that shows it.
type sqliteException struct {
	name, test string
}

var (
	// exRaise: the engine raises where SQLite coerces — arithmetic, NOT or
	// ABS on text, a scalar subquery with several rows.
	exRaise = sqliteException{"raise", "TestSQLiteCoercesWhereEngineRaises"}
	// exNaN: SQLite stores no NaN, so a NaN cell loads as NULL, and the
	// engine answers over the same catalog with its NaN cells NULL too.
	exNaN = sqliteException{"nan", "TestSQLiteStoresNaNAsNull"}
	// exTies: which of tied rows comes first is not SQL's to define, so
	// ROW_NUMBER and ROWS frames, whose values depend on it, are compared
	// only where their ORDER BY is unique — never, for the generator's
	// keys — and so is a DISTINCT statement ordered by a column it does
	// not output, whose rows order by whichever source row stands for them.
	exTies = sqliteException{"ties", "TestSQLiteTieOrderIsUnspecified"}
	// exFloatAgg: SUM and AVG add floats in another order (SQLite
	// compensates), so their cells compare at 9 significant digits and a
	// predicate over one is not compared.
	exFloatAgg = sqliteException{"float aggregate", "TestSQLiteFloatSumsDifferInLastBits"}
	// exMixedArms: a CASE or COALESCE whose arms mix a number and text is
	// TEXT here, while SQLite types each row; such a column compares as text
	// and, since the two order it differently, as a multiset of all rows.
	exMixedArms = sqliteException{"mixed arms", "TestSQLiteMixedArmsAreText"}

	sqliteExceptions = []*sqliteException{&exRaise, &exNaN, &exTies, &exFloatAgg, &exMixedArms}
)

// sqliteBinary returns the sqlite3 shell, skipping the test when none is
// installed; CI checks for one before it runs the tests, so there this
// test never passes by skipping.
func sqliteBinary(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("sqlite3")
	if err != nil {
		t.Skip("sqlite3 is not installed")
	}
	return path
}

// sqliteAnswer is sqlite3's answer to one statement: its rows, or the error
// it printed.
type sqliteAnswer struct {
	rows [][]table.Value
	err  string
}

// sqliteErrLine is the shell's report of a failed statement; the line is
// the script line the statement is on.
var sqliteErrLine = regexp.MustCompile(`^(?:Parse|Runtime) error near line (\d+): (.*)$`)

// runSQLite loads tables into a fresh in-memory sqlite3 and answers stmts,
// one statement a line.
func runSQLite(t *testing.T, bin string, tables []*table.Table, stmts []string) []sqliteAnswer {
	t.Helper()
	var script strings.Builder
	for _, tb := range tables {
		script.WriteString(sqliteLoad(tb))
	}
	script.WriteString(".mode quote\n")
	line := strings.Count(script.String(), "\n")
	lineOf := map[int]int{} // script line → statement
	for i, q := range stmts {
		if strings.ContainsAny(q, "\n;") {
			t.Fatalf("statement %q does not fit on one script line", q)
		}
		fmt.Fprintf(&script, ".print @@%d\n%s;\n", i, q)
		line += 2
		lineOf[line] = i
	}
	cmd := exec.Command(bin, ":memory:")
	cmd.Stdin = strings.NewReader(script.String())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	_ = cmd.Run() // the exit status is 1 when any statement failed
	out := make([]sqliteAnswer, len(stmts))
	cur := -1
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "@@") {
			cur, _ = strconv.Atoi(l[2:])
			continue
		}
		if l == "" || cur < 0 {
			continue
		}
		row, err := parseQuoteRow(l)
		if err != nil {
			t.Fatalf("sqlite3 row %q: %v", l, err)
		}
		out[cur].rows = append(out[cur].rows, row)
	}
	for _, l := range strings.Split(stderr.String(), "\n") {
		m := sqliteErrLine.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		i, ok := lineOf[n]
		if !ok {
			t.Fatalf("sqlite3 failed outside a statement: %s\n%s", l, stderr.String())
		}
		out[i].err = m[2]
	}
	return out
}

// sqliteLoad is the script that creates tb and inserts its rows: an int
// as INTEGER, a float as REAL written exactly (a NaN as NULL, exNaN), a
// string as TEXT, a bool as 1 or 0, and a time as its UTC instant in fixed
// width text, so text order is time order.
func sqliteLoad(tb *table.Table) string {
	var sb strings.Builder
	decl := make([]string, len(tb.Columns))
	for j, col := range tb.Columns {
		ty := "TEXT"
		switch col.Kind {
		case table.KindInt, table.KindBool:
			ty = "INTEGER"
		case table.KindFloat:
			ty = "REAL"
		}
		decl[j] = fmt.Sprintf("%q %s", col.Name, ty)
	}
	fmt.Fprintf(&sb, "CREATE TABLE %q(%s);\n", tb.Name, strings.Join(decl, ", "))
	for i := 0; i < tb.NumRows(); i++ {
		cells := make([]string, len(tb.Columns))
		for j := range tb.Columns {
			cells[j] = sqliteLiteral(tb.Columns[j].Value(i))
		}
		fmt.Fprintf(&sb, "INSERT INTO %q VALUES (%s);\n", tb.Name, strings.Join(cells, ", "))
	}
	return sb.String()
}

func sqliteLiteral(v table.Value) string {
	switch v.Kind {
	case table.KindInt:
		return strconv.FormatInt(v.I, 10)
	case table.KindFloat:
		if math.IsNaN(v.F) {
			return "NULL"
		}
		return strconv.FormatFloat(v.F, 'e', -1, 64)
	case table.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case table.KindBool:
		if v.B {
			return "1"
		}
		return "0"
	case table.KindTime:
		return "'" + v.Time().Format(sqliteTimeLayout) + "'"
	}
	return "NULL"
}

// sqliteTimeLayout is a time cell's text in SQLite: its UTC instant at
// fixed width, so that text order is time order.
const sqliteTimeLayout = "2006-01-02 15:04:05.000000000"

// parseQuoteRow splits one `.mode quote` line into cells: NULL, an
// integer, a real (it has a point or an exponent) or a quoted string.
func parseQuoteRow(l string) ([]table.Value, error) {
	var row []table.Value
	for len(l) > 0 {
		var cell string
		if l[0] == '\'' {
			var sb strings.Builder
			i := 1
			for ; i < len(l); i++ {
				if l[i] == '\'' {
					if i+1 < len(l) && l[i+1] == '\'' {
						sb.WriteByte('\'')
						i++
						continue
					}
					break
				}
				sb.WriteByte(l[i])
			}
			if i >= len(l) {
				return nil, fmt.Errorf("unterminated string")
			}
			row = append(row, table.Str(sb.String()))
			l = l[i+1:]
		} else {
			end := strings.IndexByte(l, ',')
			if end < 0 {
				end = len(l)
			}
			cell, l = l[:end], l[end:]
			switch {
			case cell == "NULL":
				row = append(row, table.Null())
			case strings.ContainsAny(cell, ".eE"):
				f, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, err
				}
				row = append(row, table.Float(f))
			default:
				i, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, err
				}
				row = append(row, table.Int(i))
			}
		}
		if len(l) > 0 {
			if l[0] != ',' {
				return nil, fmt.Errorf("expected ',' at %q", l)
			}
			l = l[1:]
		}
	}
	return row, nil
}

// withoutNaN returns c's tables with every NaN cell NULL (exNaN), and how
// many cells it nulled.
func withoutNaN(c *Catalog) (out []*table.Table, nulled int) {
	for _, name := range c.TableNames() {
		src, _ := c.Table(name)
		tb := src.Clone()
		for j := range tb.Columns {
			fs, _, ok := tb.Columns[j].Floats()
			if !ok {
				continue
			}
			for i, f := range fs {
				if math.IsNaN(f) {
					tb.Columns[j].Set(i, table.Null())
					nulled++
				}
			}
		}
		out = append(out, tb)
	}
	return out, nulled
}

// sqliteTally counts the statements each exception explained (for exNaN,
// the cells it nulled), and the disagreements none did.
type sqliteTally struct {
	compared    int
	explained   map[*sqliteException]int
	unexplained []string
}

// diffSQLite runs stmts over the tables through both engines and tallies
// the outcome.
func diffSQLite(t *testing.T, bin string, tables []*table.Table, stmts []string, tally *sqliteTally) {
	t.Helper()
	c := NewCatalog()
	for _, tb := range tables {
		c.Register(tb)
	}
	texts := make([]string, len(stmts))
	forms := make([]*sqliteForm, len(stmts))
	for i, q := range stmts {
		forms[i] = sqliteFormOf(c, q)
		texts[i] = forms[i].sqlite
	}
	answers := runSQLite(t, bin, tables, texts)
	for i, f := range forms {
		if f.skip != nil {
			tally.explained[f.skip]++
			continue
		}
		tally.compared++
		why, diff := f.agrees(c, answers[i])
		switch {
		case diff != "":
			tally.unexplained = append(tally.unexplained, fmt.Sprintf("%s\n  as run: %s\n  %s", stmts[i], f.text, diff))
		case why != nil:
			tally.explained[why]++
		}
	}
}

// sqliteForm is one statement as both engines run it, and what its shape
// says about comparing their answers.
type sqliteForm struct {
	text     string
	sqlite   string           // text, with the LIMIT SQLite needs before an OFFSET
	skip     *sqliteException // not compared, for this reason
	floatAgg []bool           // output columns compared at 9 digits (exFloatAgg)
	mixed    []bool           // output columns whose arms mix a number and text (exMixedArms)
}

// sqliteFormOf parses q and gives it a total ORDER BY: the statement's own
// keys, then every output position. A statement with a mixed-arm output
// column loses its LIMIT and OFFSET instead, since the two engines order
// that column differently (exMixedArms).
func sqliteFormOf(c *Catalog, q string) *sqliteForm {
	stmt, err := Parse(q)
	if err != nil {
		return &sqliteForm{text: q, sqlite: q}
	}
	f := &sqliteForm{floatAgg: make([]bool, len(stmt.Items)), mixed: mixedColumns(c, q)}
	star := false
	for i, it := range stmt.Items {
		if _, ok := it.Expr.(Star); ok {
			star = true
		}
		f.floatAgg[i] = anyExpr(it.Expr, func(e Expr) (bool, bool) {
			fn, ok := e.(*FuncCall)
			return ok && (fn.Name == "SUM" || fn.Name == "AVG"), true
		})
	}
	if slices.Contains(f.mixed, true) {
		stmt.Limit, stmt.Offset = -1, 0
	}
	for _, e := range stmtExprs(stmt) {
		walkExpr(e, func(e Expr) bool {
			if fn, ok := e.(*FuncCall); ok && fn.Over != nil && (fn.Name == "ROW_NUMBER" || fn.Over.Frame != nil) {
				f.skip = &exTies
			}
			return true
		})
	}
	if stmt.Distinct && !ordersByOutput(stmt) {
		f.skip = &exTies
	}
	for _, p := range []Expr{stmt.Where, stmt.Having} {
		if p != nil && f.skip == nil && floatAggregateIn(p) {
			f.skip = &exFloatAgg
		}
	}
	if !star {
		for i := range stmt.Items {
			stmt.OrderBy = append(stmt.OrderBy, OrderItem{Expr: &Literal{Value: table.Int(int64(i + 1))}})
		}
	}
	f.text = stmt.SQL()
	sqliteTimes(c, stmt)
	f.sqlite = stmt.SQL()
	if stmt.Limit < 0 && stmt.Offset > 0 {
		f.sqlite = strings.Replace(f.sqlite, " OFFSET ", " LIMIT -1 OFFSET ", 1)
	}
	return f
}

// sqliteTimes rewrites stmt for SQLite, which holds a time as its
// sqliteTimeLayout text: a string literal that a comparison sets against a
// time becomes the instant it names in that text, so SQLite's text order
// decides what the engine's instant order does, and YEAR, MONTH and DAY,
// which SQLite lacks, read their digits from the text. A literal that names
// no instant stays as it is; the engine refuses such a statement. stmt is
// left as it is when it does not resolve against c.
func sqliteTimes(c *Catalog, stmt *SelectStmt) {
	p, err := c.resolve(stmt)
	if err != nil {
		return
	}
	rel := planRel(p, nil)
	if rel == nil {
		return
	}
	instant := func(e, other Expr) Expr {
		lit, ok := e.(*Literal)
		if !ok {
			return e
		}
		if t, ok := table.CompareOperand(kindOf(other, rel), lit.Value); ok && t.Kind == table.KindTime {
			return &Literal{Value: table.Str(t.Time().Format(sqliteTimeLayout))}
		}
		return e
	}
	digits := map[string][2]int64{"YEAR": {1, 4}, "MONTH": {6, 2}, "DAY": {9, 2}}
	rewrite := func(e Expr) Expr {
		return rewriteExpr(e, func(e Expr) (Expr, bool) {
			switch x := e.(type) {
			case *Binary:
				if _, ok := cmpOpOf(x.Op); ok {
					return &Binary{Op: x.Op, L: instant(x.L, x.R), R: instant(x.R, x.L)}, true
				}
			case *Between:
				return &Between{X: x.X, Lo: instant(x.Lo, x.X), Hi: instant(x.Hi, x.X), Not: x.Not}, true
			case *In:
				vals := make([]Expr, len(x.Values))
				for i, v := range x.Values {
					vals[i] = instant(v, x.X)
				}
				return &In{X: x.X, Values: vals, Sub: x.Sub, Not: x.Not, slot: x.slot}, true
			case *FuncCall:
				if d, ok := digits[x.Name]; ok && len(x.Args) == 1 {
					from, n := &Literal{Value: table.Int(d[0])}, &Literal{Value: table.Int(d[1])}
					substr := &FuncCall{Name: "SUBSTR", Args: []Expr{x.Args[0], from, n}}
					return &Binary{Op: "+", L: substr, R: &Literal{Value: table.Int(0)}}, true
				}
			}
			return e, true
		})
	}
	for i := range stmt.Items {
		stmt.Items[i].Expr = rewrite(stmt.Items[i].Expr)
	}
	for i := range stmt.Joins {
		stmt.Joins[i].On = rewrite(stmt.Joins[i].On)
	}
	for i := range stmt.GroupBy {
		stmt.GroupBy[i] = rewrite(stmt.GroupBy[i])
	}
	for i := range stmt.OrderBy {
		stmt.OrderBy[i].Expr = rewrite(stmt.OrderBy[i].Expr)
	}
	if stmt.Where != nil {
		stmt.Where = rewrite(stmt.Where)
	}
	if stmt.Having != nil {
		stmt.Having = rewrite(stmt.Having)
	}
}

// ordersByOutput reports whether each ORDER BY key stmt wrote is one of
// its output columns. A DISTINCT statement ordered by another column
// orders each distinct row by whichever of its source rows stands for it —
// a tie SQL does not break (exTies).
func ordersByOutput(stmt *SelectStmt) bool {
	for _, o := range stmt.OrderBy {
		if lit, ok := o.Expr.(*Literal); ok && lit.Value.Kind == table.KindInt {
			continue
		}
		out := false
		for _, it := range stmt.Items {
			ref, isRef := o.Expr.(*ColumnRef)
			out = out || it.Expr.SQL() == o.Expr.SQL() || isRef && ref.Table == "" && strings.EqualFold(ref.Name, it.Alias)
		}
		if !out {
			return false
		}
	}
	return true
}

// mixedColumns marks q's output columns whose expression holds a CASE,
// COALESCE or IFNULL whose arms mix a number with text, by the kinds its
// plan gives them; nil when q does not plan or its subqueries fail.
func mixedColumns(c *Catalog, q string) []bool {
	items, rel := planKinds(c, q)
	out := make([]bool, len(items))
	for i, it := range items {
		out[i] = anyExpr(it.Expr, func(e Expr) (bool, bool) {
			var arms []Expr
			switch x := e.(type) {
			case *CaseExpr:
				for _, w := range x.Whens {
					arms = append(arms, w.Result)
				}
				if x.Else != nil {
					arms = append(arms, x.Else)
				}
			case *FuncCall:
				if x.Name == "COALESCE" || x.Name == "IFNULL" {
					arms = x.Args
				}
			}
			text, number := false, false
			for _, a := range arms {
				switch kindOf(a, rel) {
				case table.KindString:
					text = true
				case table.KindInt, table.KindFloat:
					number = true
				}
			}
			return text && number, true
		})
	}
	return out
}

// planKinds plans q over c and returns its select items and a relation
// with no rows whose columns have the kinds of the statement's joined
// relation, its subqueries run, for kindOf; nil when q does not plan or a
// subquery fails.
func planKinds(c *Catalog, q string) ([]SelectItem, *vrel) {
	p, binds, err := c.planQuery(q)
	if err != nil {
		return nil, nil
	}
	rel := planRel(p, binds)
	if rel == nil {
		return nil, nil
	}
	return p.items, rel
}

// planRel is a relation with no rows whose columns have the kinds of p's
// joined relation, its subqueries run over binds, for kindOf; nil when a
// subquery fails.
func planRel(p *plan, binds []table.Value) *vrel {
	x, err := start(context.Background(), p, binds, nil, executeScalarPlan)
	if err != nil {
		return nil
	}
	var cols []table.Column
	for _, a := range p.apps {
		cols = append(cols, a.Snapshot().Table().Columns...)
	}
	return kindsOf(cols, x)
}

// stmtExprs is every expression of stmt's own scope.
func stmtExprs(stmt *SelectStmt) []Expr {
	var out []Expr
	for _, it := range stmt.Items {
		out = append(out, it.Expr)
	}
	for _, j := range stmt.Joins {
		out = append(out, j.On)
	}
	out = append(out, stmt.Where, stmt.Having)
	out = append(out, stmt.GroupBy...)
	for _, o := range stmt.OrderBy {
		out = append(out, o.Expr)
	}
	var kept []Expr
	for _, e := range out {
		if e != nil {
			kept = append(kept, e)
		}
	}
	return kept
}

// floatAggregateIn reports whether e holds a SUM or AVG, in a subquery
// too: this engine's SUM and AVG are floats.
func floatAggregateIn(e Expr) bool {
	found := false
	var visit func(Expr) bool
	visit = func(e Expr) bool {
		switch x := e.(type) {
		case *FuncCall:
			if x.Name == "SUM" || x.Name == "AVG" {
				found = true
			}
		case *Subquery:
			for _, se := range stmtExprs(x.Stmt) {
				walkExpr(se, visit)
			}
		case *In:
			if x.Sub != nil {
				for _, se := range stmtExprs(x.Sub) {
					walkExpr(se, visit)
				}
			}
		}
		return true
	}
	walkExpr(e, visit)
	return found
}

// coercingRaise is the engine's error for a value SQLite would coerce.
var coercingRaise = regexp.MustCompile(`non-numeric|non-boolean|scalar subquery returned \d+ rows`)

// agrees compares the engine's answer to f with SQLite's: diff describes
// a disagreement no exception explains, and why is the exception a
// difference needed, nil for none.
func (f *sqliteForm) agrees(c *Catalog, sq sqliteAnswer) (why *sqliteException, diff string) {
	res, err := c.QueryCtx(context.Background(), f.text)
	switch {
	case err != nil && sq.err != "":
		return nil, ""
	case err != nil && coercingRaise.MatchString(err.Error()):
		return &exRaise, ""
	case err != nil:
		return nil, "engine error: " + err.Error()
	case sq.err != "":
		return nil, "sqlite3 error: " + sq.err
	}
	tb := res.Table("")
	got := make([]string, tb.NumRows())
	for i := range got {
		row := make([]table.Value, tb.NumCols())
		for j := range row {
			row[j] = tb.Columns[j].Value(i)
		}
		got[i] = f.rowKey(row)
	}
	want := make([]string, len(sq.rows))
	for i, row := range sq.rows {
		want[i] = f.rowKey(row)
	}
	if slices.Contains(f.mixed, true) {
		why = &exMixedArms
		sort.Strings(got)
		sort.Strings(want)
	} else if slices.Contains(f.floatAgg, true) {
		why = &exFloatAgg
	}
	if !slices.Equal(got, want) {
		return nil, fmt.Sprintf("engine rows\n%s\n  sqlite rows\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	return why, ""
}

// rowKey is a row's cells as equality keys: a float aggregate's number at
// 9 significant digits (exFloatAgg), and a mixed-arm column's cell as the
// value its text reads as (exMixedArms) — the engine's text and SQLite's
// typed cell alike, so 7 and '7' agree, and so do -0.0 and 0.0, which
// SQLite prints without its sign.
func (f *sqliteForm) rowKey(row []table.Value) string {
	var sb strings.Builder
	for j, v := range row {
		switch {
		case v.IsNull():
		case v.Kind == table.KindTime:
			v = table.Str(v.Time().Format(sqliteTimeLayout))
		case j < len(f.mixed) && f.mixed[j]:
			v = table.Infer(v.AsString())
		case j < len(f.floatAgg) && f.floatAgg[j] && (v.Kind == table.KindInt || v.Kind == table.KindFloat):
			x, _ := v.AsFloat()
			r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 9, 64), 64)
			v = table.Float(r)
		}
		sb.WriteString(cellKey(v) + "|")
	}
	return sb.String()
}

// TestSQLiteDifferential runs the generator's statements from 40 seeds and
// the fixed corpora through both engines — the time corpus without the
// statements the engine refuses — and every disagreement must be one of
// sqliteExceptions.
func TestSQLiteDifferential(t *testing.T) {
	bin := sqliteBinary(t)
	tally := &sqliteTally{explained: map[*sqliteException]int{}}
	load := func(c *Catalog) []*table.Table {
		tables, nulled := withoutNaN(c)
		tally.explained[&exNaN] += nulled
		return tables
	}
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randCatalog(rng, int(seed*37%650))
		stmts := make([]string, 24)
		for i := range stmts {
			stmts[i], _ = randStatement(rng)
		}
		diffSQLite(t, bin, load(c), stmts, tally)
	}
	diffSQLite(t, bin, load(namesCatalog()), unknownNameStatements(), tally)
	rng := rand.New(rand.NewSource(7))
	c := randCatalog(rng, 200)
	registerTailTable(c)
	diffSQLite(t, bin, load(c), append(tailStatements(), nearJoinStatements()...), tally)
	c = NewCatalog()
	registerTimeTables(c)
	var times []string
	for _, q := range timeStatements() {
		if _, err := c.QueryCtx(context.Background(), q); err == nil {
			times = append(times, q)
		}
	}
	diffSQLite(t, bin, load(c), times, tally)
	for _, u := range tally.unexplained {
		t.Errorf("unexplained disagreement: %s", u)
	}
	t.Logf("compared %d statements; unexplained %d", tally.compared, len(tally.unexplained))
	for _, ex := range sqliteExceptions {
		t.Logf("  %-15s %4d (%s)", ex.name, tally.explained[ex], ex.test)
	}
}

// sqliteTable is t(id, a, c, f): ids 1-4, a = 2, 10, 1 and NULL, c = 'x',
// 'y', NULL, 'z', and f four tenths beside 1e16, NaN and 0.1 (id 3).
func sqliteTable() *table.Table {
	tb := table.MustNew("t", []string{"id", "a", "c", "f"}, []table.Kind{table.KindInt, table.KindInt, table.KindString, table.KindFloat})
	tb.MustAppendRow(table.Int(1), table.Int(2), table.Str("x"), table.Float(0.1))
	tb.MustAppendRow(table.Int(2), table.Int(10), table.Str("y"), table.Float(0.2))
	tb.MustAppendRow(table.Int(3), table.Int(1), table.Null(), table.Float(math.NaN()))
	tb.MustAppendRow(table.Int(4), table.Null(), table.Str("z"), table.Float(0.3))
	return tb
}

// sqliteOne runs q through both engines over tables and returns SQLite's
// answer and the engine's rows or error.
func sqliteOne(t *testing.T, tables []*table.Table, q string) (sqliteAnswer, *table.Table, error) {
	t.Helper()
	sq := runSQLite(t, sqliteBinary(t), tables, []string{q})[0]
	c := NewCatalog()
	for _, tb := range tables {
		c.Register(tb)
	}
	got, err := queryTable(c, q)
	return sq, got, err
}

// TestSQLiteCoercesWhereEngineRaises: arithmetic, NOT and ABS on text, and
// a scalar subquery with two rows, raise here; SQLite reads the text as 0
// and takes the subquery's first row.
func TestSQLiteCoercesWhereEngineRaises(t *testing.T) {
	tables := []*table.Table{sqliteTable()}
	for _, q := range []string{
		"SELECT -c FROM t", "SELECT c + 1 FROM t", "SELECT id FROM t WHERE NOT c", "SELECT ABS(c) FROM t",
		"SELECT id FROM t WHERE id > (SELECT id FROM t WHERE id > 2)",
	} {
		sq, _, err := sqliteOne(t, tables, q)
		if err == nil || !coercingRaise.MatchString(err.Error()) || sq.err != "" || len(sq.rows) == 0 {
			t.Errorf("%s: engine %v; sqlite %d rows, error %q", q, err, len(sq.rows), sq.err)
		}
	}
}

// TestSQLiteStoresNaNAsNull: a NaN cell loads into SQLite as NULL, so the
// differential answers over catalogs whose NaN cells are NULL on both
// sides (withoutNaN).
func TestSQLiteStoresNaNAsNull(t *testing.T) {
	tables := []*table.Table{sqliteTable()}
	sq, got, err := sqliteOne(t, tables, "SELECT f FROM t WHERE id = 3")
	if err != nil || got.NumRows() != 1 || !math.IsNaN(got.Columns[0].Value(0).F) {
		t.Fatalf("engine: %v %v", got, err)
	}
	if len(sq.rows) != 1 || !sq.rows[0][0].IsNull() {
		t.Fatalf("sqlite: %v %q, want one NULL", sq.rows, sq.err)
	}
	nulled, n := withoutNaN(func() *Catalog { c := NewCatalog(); c.Register(sqliteTable()); return c }())
	if v := nulled[0].Columns[3].Value(2); !v.IsNull() || n != 1 {
		t.Fatalf("withoutNaN left %v", v)
	}
}

// TestSQLiteTieOrderIsUnspecified: the engine numbers tied rows in their
// input order and orders a DISTINCT row by its first source row; SQL
// leaves both open, so the differential leaves such statements out.
func TestSQLiteTieOrderIsUnspecified(t *testing.T) {
	c := NewCatalog()
	c.Register(sqliteTable())
	for _, q := range []string{
		"SELECT id, ROW_NUMBER() OVER (ORDER BY c IS NULL) FROM t",
		"SELECT id, SUM(a) OVER (ORDER BY c IS NULL ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM t",
		"SELECT DISTINCT c IS NULL FROM t ORDER BY id",
	} {
		if f := sqliteFormOf(c, q); f.skip != &exTies {
			t.Errorf("%s: not left out as a tie", q)
		}
	}
	got := mustQuery(t, c, "SELECT id, ROW_NUMBER() OVER (ORDER BY c IS NULL) FROM t ORDER BY id")
	for i, want := range []int64{1, 2, 4, 3} {
		if rn := got.Columns[1].Value(i).I; rn != want {
			t.Errorf("row %d numbered %d, want %d (input order among ties)", i+1, rn, want)
		}
	}
}

// TestSQLiteFloatSumsDifferInLastBits: the engine adds floats left to
// right, SQLite with compensation, so SUM(0.1, 0.2, 0.3) differs in its
// last bits and agrees at 9 significant digits.
func TestSQLiteFloatSumsDifferInLastBits(t *testing.T) {
	tables, _ := withoutNaN(func() *Catalog { c := NewCatalog(); c.Register(sqliteTable()); return c }())
	q := "SELECT SUM(f) FROM t"
	sq, got, err := sqliteOne(t, tables, q)
	if err != nil || len(sq.rows) != 1 {
		t.Fatalf("engine %v, sqlite %v %q", err, sq.rows, sq.err)
	}
	engine, lite := got.Columns[0].Value(0), sq.rows[0][0]
	if engine.F == lite.F {
		t.Fatalf("both sums are %v: the difference this exception explains is gone", engine.F)
	}
	f := sqliteFormOf(NewCatalog(), q)
	if f.rowKey([]table.Value{engine}) != f.rowKey([]table.Value{lite}) {
		t.Fatalf("%v and %v differ at 9 significant digits", engine.F, lite.F)
	}
}

// TestSQLiteMixedArmsAreText: a CASE mixing an int arm with a text arm is a
// TEXT column here, whichever arm each row takes, and SQLite gives each
// row its arm's type; the two agree cell by cell on the values the texts
// read as, and order the column differently ('10' before '2' here).
func TestSQLiteMixedArmsAreText(t *testing.T) {
	tables := []*table.Table{sqliteTable()}
	q := "SELECT CASE WHEN a > 1 THEN a ELSE c END FROM t ORDER BY 1"
	sq, got, err := sqliteOne(t, tables, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns[0].Kind != table.KindString {
		t.Fatalf("engine kind %v, want TEXT", got.Columns[0].Kind)
	}
	var engine, lite []string
	for i := 0; i < got.NumRows(); i++ {
		engine = append(engine, got.Columns[0].Value(i).String())
	}
	for _, row := range sq.rows {
		lite = append(lite, row[0].String())
	}
	if want := []string{"NULL", `"10"`, `"2"`, `"z"`}; !slices.Equal(engine, want) {
		t.Errorf("engine %v, want %v", engine, want)
	}
	if want := []string{"NULL", "2", "10", `"z"`}; !slices.Equal(lite, want) {
		t.Errorf("sqlite %v, want %v", lite, want)
	}
	c := NewCatalog()
	c.Register(sqliteTable())
	if f := sqliteFormOf(c, q); !slices.Equal(f.mixed, []bool{true}) {
		t.Errorf("mixed columns %v, want [true]", f.mixed)
	}
}
