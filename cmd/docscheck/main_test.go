package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func write(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "REAL.md"), "# real")
	body := "[ok](docs/REAL.md) [anchor](docs/REAL.md#section) [ext](https://example.com) " +
		"[mail](mailto:a@b.c) [page](#local) [dead](docs/MISSING.md) [img](missing.png)"
	got := brokenLinks(dir, body)
	want := []string{"docs/MISSING.md", "missing.png"}
	if len(got) != len(want) {
		t.Fatalf("broken = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("broken[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCodeSpanIsNoLink: a `](x)` inside an inline code span is code; a
// link whose text is a code span is still a link.
func TestCodeSpanIsNoLink(t *testing.T) {
	dir := t.TempDir()
	body := "lex `digits[.digits](e|E)[+-]digits` as a number; see [`REAL.md`](MISSING.md)"
	if got := brokenLinks(dir, body); len(got) != 1 || got[0] != "MISSING.md" {
		t.Errorf("broken = %v, want only MISSING.md", got)
	}
}

func TestCheckTreeWalksAndResolvesRelative(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "[arch](docs/A.md)")
	write(t, filepath.Join(dir, "docs", "A.md"), "[back](../README.md) [gone](nope/B.md)")
	write(t, filepath.Join(dir, ".hidden", "SKIP.md"), "[never](checked.md)")
	broken, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 {
		t.Fatalf("broken = %v, want exactly the docs/A.md nope/B.md entry", broken)
	}
}

func TestCheckTreeCleanRepo(t *testing.T) {
	// The real repository must stay link-clean, guard-clean and
	// census-clean — this is the same check the CI docs job runs, kept as
	// a unit test so `go test ./...` catches a dead link, a guard
	// violation or an unused declaration before CI does.
	problems, err := checkTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("repository has broken markdown links, guard violations or census findings:\n%v", problems)
	}
}

// TestGuardsFire plants one violation per guard in non-test Go and checks
// that each guard reports it, while the same lines in a test file, in a
// guard's allowed path, or in docscheck's own source report nothing.
func TestGuardsFire(t *testing.T) {
	planted := []string{
		"	i := s.findColumn(ref, width)",
		"func (t *Table) Sort(keys []string) *Table {",
		"	plan, agents := agent.NewPlanner(rt).Plan(q, tbl)",
		"	v, err := evalExpr(e, env)",
		"func (c *Catalog) Query(sql string) (*table.Table, error) {",
		"	acc := newWindowAcc(fn)",
		"	pairs, err := loopJoinPairs(ctx, left, right, on, kind)",
		`	case "+", "-", "*", "/", "%":`,
		"	parts, err := partitionRows(ctx, keyCols, n)",
		"	ks := buildKeyset(specs, lo, hi)",
		"	kb = table.AppendKeyPart(kb, v)",
		`		"duration_ms": durationMS(time.Since(start)),`,
		"	if !c.IsTyped() {",
		"	T    time.Time // payload when Kind == KindTime",
		"	f, err := os.OpenFile(logPath(dir, gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)",
		"	for _, p := range staleFiles(m.dir, nextGen) {",
	}
	if len(planted) != len(guards) {
		t.Fatalf("%d planted lines for %d guards", len(planted), len(guards))
	}
	body := "package x\n\n" + strings.Join(planted, "\n") + "\n"
	dir := t.TempDir()
	write(t, filepath.Join(dir, "internal", "x", "x.go"), body)
	write(t, filepath.Join(dir, "internal", "x", "x_test.go"), body)
	write(t, filepath.Join(dir, "cmd", "docscheck", "guards.go"), body)
	write(t, filepath.Join(dir, "internal", "sqlengine", "plan.go"), "package sqlengine\n\n"+planted[0]+"\n")
	write(t, filepath.Join(dir, "internal", "agent", "planner.go"), "package agent\n\n"+planted[2]+"\n")
	write(t, filepath.Join(dir, "internal", "wal", "fs.go"), "package wal\n\n"+planted[14]+"\n")
	write(t, filepath.Join(dir, "bench", "main.go"), "package main\n\n"+planted[14]+"\n")
	problems, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guards {
		var hits []string
		for _, p := range problems {
			if strings.Contains(p, "("+g.reason+")") {
				hits = append(hits, p)
			}
		}
		want := filepath.Join(dir, "internal", "x", "x.go") + ":" + strconv.Itoa(i+3) + ":"
		if len(hits) != 1 || !strings.HasPrefix(hits[0], want) {
			t.Errorf("guard %q: hits %q, want one at %s", g.reason, hits, want)
		}
	}
	if len(problems) != len(guards) {
		t.Errorf("problems = %q, want one per guard", problems)
	}
}

// TestCensusFires plants four declarations in a temporary module with a
// nested bench module and checks that the census reports exactly the two
// nothing in non-test Go uses: an unreferenced func in an internal package
// and a func only a _test.go file calls. A method that satisfies
// fmt.Stringer and a func only bench/ calls are uses. A keep entry hides
// its finding, and one that hides nothing is reported.
func TestCensusFires(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module m\n\ngo 1.24\n")
	write(t, filepath.Join(dir, "main.go"), "package main\n\nimport (\n\t\"fmt\"\n\n\t\"m/internal/x\"\n)\n\nfunc main() { fmt.Println(x.T{}) }\n")
	write(t, filepath.Join(dir, "internal", "x", "x.go"), "package x\n\ntype T struct{}\n\nfunc (T) String() string { return \"t\" }\n\nfunc Unused() {}\n\nfunc TestOnly() {}\n")
	write(t, filepath.Join(dir, "internal", "x", "x_test.go"), "package x\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) { TestOnly() }\n")
	write(t, filepath.Join(dir, "pub", "pub.go"), "package pub\n\nfunc BenchOnly() {}\n")
	write(t, filepath.Join(dir, "bench", "go.mod"), "module m/bench\n\ngo 1.24\n\nrequire m v0.0.0\n\nreplace m => ../\n")
	write(t, filepath.Join(dir, "bench", "main.go"), "package main\n\nimport \"m/pub\"\n\nfunc main() { pub.BenchOnly() }\n")

	problems, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, p := range problems {
		if strings.HasSuffix(p, "(no non-test Go uses it)") {
			found = append(found, p)
		}
	}
	x := filepath.Join(dir, "internal", "x", "x.go")
	want := []string{x + ":7: x.Unused (no non-test Go uses it)", x + ":9: x.TestOnly (no non-test Go uses it)"}
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("census found %q, want %q", found, want)
	}

	dirs := []string{dir, filepath.Join(dir, "bench"), filepath.Join(dir, "internal", "x"), filepath.Join(dir, "pub")}
	got, err := census(dir, dirs, []kept{{"x.Unused", "planted"}, {"x.Gone", "planted"}})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"keep x.Gone: the census finds no such unused symbol (planted)", want[1]}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("census with a keep table = %q, want %q", got, want)
	}
}

// TestStaleCINamesFire plants a workflow whose -run and -fuzz patterns
// name two tests that exist (one by prefix) and two that do not, beside a
// match-nothing pattern, and checks that exactly the two missing names are
// reported, on their lines.
func TestStaleCINamesFire(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "internal", "x", "x_test.go"),
		"package x\n\nimport \"testing\"\n\nfunc TestRealThing(t *testing.T) {}\n\nfunc FuzzReal(f *testing.F) {}\n")
	write(t, filepath.Join(dir, ".github", "workflows", "ci.yml"),
		"steps:\n"+
			"  - run: go test -run 'TestReal|TestGone' ./...\n"+
			"  - run: go test -run '^$' -fuzz=FuzzReal -fuzztime=10s ./internal/x\n"+
			"  - run: go test -run xxx -bench=. ./...\n"+
			"  - run: go test -run '^$' -fuzz=FuzzGone ./internal/x\n")
	problems, err := checkTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	ci := filepath.Join(dir, ".github", "workflows", "ci.yml")
	want := []string{
		ci + ":2: TestGone (no test function begins with it)",
		ci + ":5: FuzzGone (no test function begins with it)",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems = %q, want %q", problems, want)
	}
}
