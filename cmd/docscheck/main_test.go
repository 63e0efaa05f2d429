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
	// The real repository must stay link-clean and guard-clean — this is
	// the same check the CI docs job runs, kept as a unit test so
	// `go test ./...` catches a dead link or a guard violation before CI
	// does.
	problems, err := checkTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("repository has broken markdown links or guard violations:\n%v", problems)
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
