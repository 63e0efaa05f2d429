package main

import (
	"os"
	"path/filepath"
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
	// The real repository's docs must stay link-clean — this is the same
	// check the CI docs job runs, kept as a unit test so `go test ./...`
	// catches a dead link before CI does.
	broken, err := checkTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Errorf("repository has broken markdown links:\n%v", broken)
	}
}
