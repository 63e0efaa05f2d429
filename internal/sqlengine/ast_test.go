package sqlengine

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"datalab/internal/table"
)

// contractTree hand-builds
//
//	CASE WHEN a BETWEEN ? AND 10 THEN SUM(b) OVER (PARTITION BY c ORDER BY d DESC)
//	     WHEN e IN (SELECT inner_only FROM u) THEN -f
//	     WHEN g IN (1, 2) OR h IS NULL THEN (SELECT inner_only FROM u)
//	     ELSE COUNT(*) END
//
// with one node of every Expr type, and returns the root, every node of
// the outer expression (each exactly once), and the column inside the
// nested SELECT, which belongs to another scope.
type contractTree struct {
	root     *CaseExpr
	between  *Between
	lo       *Param
	nodes    []Expr
	innerCol *ColumnRef
}

func newContractTree() contractTree {
	col := func(name string) *ColumnRef { return &ColumnRef{Name: name} }
	lit := func(i int64) *Literal { return &Literal{Value: table.Int(i)} }
	a, b, c, d, e, f, g, h := col("a"), col("b"), col("c"), col("d"), col("e"), col("f"), col("g"), col("h")
	lo, hi, one, two := &Param{Index: 0}, lit(10), lit(1), lit(2)
	between := &Between{X: a, Lo: lo, Hi: hi}
	win := &FuncCall{Name: "SUM", Args: []Expr{b}, Over: &WindowSpec{
		PartitionBy: []Expr{c},
		OrderBy:     []OrderItem{{Expr: d, Desc: true}},
	}}
	innerCol := col("inner_only")
	sub := &SelectStmt{Items: []SelectItem{{Expr: innerCol}}, From: "u", Limit: -1}
	inSub := &In{X: e, Sub: sub}
	neg := &Unary{Op: "-", X: f}
	inList := &In{X: g, Values: []Expr{one, two}}
	isNull := &IsNull{X: h}
	or := &Binary{Op: "OR", L: inList, R: isNull}
	scalarSub := &Subquery{Stmt: sub}
	star := Star{}
	count := &FuncCall{Name: "COUNT", Args: []Expr{star}}
	root := &CaseExpr{
		Whens: []WhenClause{{Cond: between, Result: win}, {Cond: inSub, Result: neg}, {Cond: or, Result: scalarSub}},
		Else:  count,
	}
	return contractTree{
		root: root, between: between, lo: lo, innerCol: innerCol,
		nodes: []Expr{
			root, between, a, lo, hi, win, b, c, d, inSub, e, neg, f,
			or, inList, g, one, two, isNull, h, scalarSub, count, star,
		},
	}
}

// TestAnalysesLatchAcrossSiblings pins the has-X analyses against the way
// walkExpr prunes: returning false skips one node's children, never its
// later siblings, so a hit must survive whatever is visited after it. Each
// statement carries the hit and a look-alike miss (a scalar function beside
// an aggregate, a plain IN-list beside a subquery) in both operand orders,
// and must then run identically on both engines.
func TestAnalysesLatchAcrossSiblings(t *testing.T) {
	c := randCatalog(rand.New(rand.NewSource(13)), 300)
	cases := []struct {
		name            string
		sql             string
		agg, sub, first bool // expected analyses; first: look at Items[0], else WHERE
	}{
		{"aggregate then scalar func", "SELECT SUM(a) + ABS(1) FROM data", true, false, true},
		{"scalar func then aggregate", "SELECT ABS(1) + SUM(a) FROM data", true, false, true},
		{"aggregate times round", "SELECT COUNT(*) * ROUND(1.5, 0) FROM data", true, false, true},
		{"aggregate in CASE then round", "SELECT CASE WHEN COUNT(*) > 0 THEN ROUND(1.0, 1) END FROM data", true, false, true},
		{"scalar funcs only", "SELECT ABS(a) + ROUND(b, 0) FROM data ORDER BY 1 LIMIT 5", false, false, true},
		{"subquery then IN-list",
			"SELECT a FROM data WHERE b > (SELECT AVG(score) FROM multi) AND c IN ('red', 'blue') ORDER BY a", false, true, false},
		{"IN-list then subquery",
			"SELECT a FROM data WHERE c IN ('red', 'blue') AND b > (SELECT AVG(score) FROM multi) ORDER BY a", false, true, false},
		{"IN subquery then IN-list",
			"SELECT a FROM data WHERE e IN (SELECT mkey FROM multi) AND a IN (1, 2, 3) ORDER BY a", false, true, false},
		{"IN-list then IN subquery",
			"SELECT a FROM data WHERE a IN (1, 2, 3) AND e IN (SELECT mkey FROM multi) ORDER BY a", false, true, false},
		{"IN-list only", "SELECT a FROM data WHERE a IN (1, 2, 3) ORDER BY a", false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			e := stmt.Where
			if tc.first {
				e = stmt.Items[0].Expr
			}
			if got := exprHasAggregate(e); got != tc.agg {
				t.Errorf("exprHasAggregate(%s) = %v, want %v", e.SQL(), got, tc.agg)
			}
			if got := exprHasSubquery(e); got != tc.sub {
				t.Errorf("exprHasSubquery(%s) = %v, want %v", e.SQL(), got, tc.sub)
			}
			p, err := c.resolve(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(p.subs) > 0; got != tc.sub {
				t.Errorf("plan has subqueries = %v, want %v", got, tc.sub)
			}
			if p.grouped != tc.agg {
				t.Errorf("plan.grouped = %v, want %v", p.grouped, tc.agg)
			}
			vec, err := queryTable(c, tc.sql)
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			sca, err := c.QueryScalar(tc.sql)
			if err != nil {
				t.Fatalf("scalar: %v", err)
			}
			if dv, ds := dumpTable(vec), dumpTable(sca); dv != ds {
				t.Fatalf("vectorized vs scalar mismatch\n-- vectorized --\n%s\n-- scalar --\n%s", dv, ds)
			}
			if tc.agg && vec.NumRows() != 1 {
				t.Errorf("ungrouped aggregate returned %d rows, want 1", vec.NumRows())
			}
		})
	}

	// The same for windows: a window call followed by a plain call.
	win, err := Parse("SELECT ROW_NUMBER() OVER (ORDER BY a) + ABS(1) FROM data")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := c.resolve(win); err != nil || !exprHasWindow(win.Items[0].Expr) || len(p.wins) != 1 {
		t.Errorf("window call followed by a scalar function was not seen (resolve: %v)", err)
	}
	if exprHasAggregate(win.Items[0].Expr) {
		t.Error("window call counted as a grouping aggregate")
	}
}

// isLeaf reports whether walkExpr has no children to offer below n.
func isLeaf(n Expr) bool {
	visits := 0
	walkExpr(n, func(Expr) bool { visits++; return true })
	return visits == 1
}

// TestTraversalContract pins the one walker and the one rewriter every
// statement analysis is a client of. The tree must hold every Expr node
// type declared in the package — a type added later fails here until it
// is added to the tree, and then fails the visit counts until walkExpr
// and rewriteExpr learn its children.
func TestTraversalContract(t *testing.T) {
	tr := newContractTree()

	t.Run("tree covers every node type", func(t *testing.T) {
		have := map[string]bool{}
		for _, n := range tr.nodes {
			ty := reflect.TypeOf(n)
			if ty.Kind() == reflect.Pointer {
				ty = ty.Elem()
			}
			have[ty.Name()] = true
		}
		// Every type in ast.go with a SQL() method is an Expr node, bar
		// the two that render a whole statement or an OVER clause.
		notNodes := map[string]bool{"SelectStmt": true, "WindowSpec": true}
		parsed, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range parsed.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "SQL" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if p, ok := recv.(*ast.StarExpr); ok {
				recv = p.X
			}
			if name := recv.(*ast.Ident).Name; !notNodes[name] && !have[name] {
				t.Errorf("node type %s is not in the contract tree", name)
			}
		}
	})

	t.Run("walk visits each node once", func(t *testing.T) {
		visits := map[Expr]int{}
		total := 0
		walkExpr(tr.root, func(e Expr) bool { visits[e]++; total++; return true })
		for _, n := range tr.nodes {
			if visits[n] != 1 {
				t.Errorf("%T %s visited %d times, want 1", n, n.SQL(), visits[n])
			}
		}
		if total != len(tr.nodes) {
			t.Errorf("%d visits for %d nodes", total, len(tr.nodes))
		}
		if visits[tr.innerCol] != 0 {
			t.Error("walk entered the nested SELECT's scope")
		}
	})

	t.Run("returning false skips the children", func(t *testing.T) {
		var seen []string
		walkExpr(tr.root.Whens[0].Result, func(e Expr) bool {
			seen = append(seen, e.SQL())
			return false
		})
		if len(seen) != 1 || !strings.HasPrefix(seen[0], "SUM(b) OVER") {
			t.Errorf("opting out at the window call still visited %v", seen)
		}
	})

	t.Run("identity rewrite returns the same pointer", func(t *testing.T) {
		got := rewriteExpr(tr.root, func(e Expr) (Expr, bool) { return e, true })
		if got != Expr(tr.root) {
			t.Fatal("identity rewrite copied the tree")
		}
	})

	t.Run("deep rewrite copies only the path", func(t *testing.T) {
		repl := &Literal{Value: table.Int(5)}
		got := rewriteExpr(tr.root, func(e Expr) (Expr, bool) {
			if e == Expr(tr.lo) {
				return repl, false
			}
			return e, true
		}).(*CaseExpr)
		nb, ok := got.Whens[0].Cond.(*Between)
		if got == tr.root || !ok || nb == tr.between || nb.Lo != Expr(repl) {
			t.Fatalf("path to the rewritten leaf was not copied: %s", got.SQL())
		}
		if tr.between.Lo != Expr(tr.lo) {
			t.Fatal("rewrite mutated the original tree")
		}
		if nb.X != tr.between.X || nb.Hi != tr.between.Hi {
			t.Error("BETWEEN's untouched operands were copied")
		}
		if got.Whens[0].Result != tr.root.Whens[0].Result || got.Whens[1] != tr.root.Whens[1] ||
			got.Whens[2] != tr.root.Whens[2] || got.Else != tr.root.Else {
			t.Error("sibling subtrees are not pointer-identical")
		}
	})

	t.Run("rewrite reaches every leaf", func(t *testing.T) {
		for _, leaf := range tr.nodes {
			if !isLeaf(leaf) {
				continue
			}
			marker := &Literal{Value: table.Str("marker")}
			out := rewriteExpr(tr.root, func(e Expr) (Expr, bool) {
				if e == leaf {
					return marker, false
				}
				return e, true
			})
			found := false
			walkExpr(out, func(e Expr) bool { found = found || e == Expr(marker); return true })
			if !found {
				t.Errorf("rewriteExpr never offered %T %s", leaf, leaf.SQL())
			}
		}
	})
}
