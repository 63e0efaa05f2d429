// Command docscheck verifies intra-repo markdown links: it walks every
// .md file under the root, extracts relative link targets, and fails when
// a target file does not exist. CI runs it in the docs job as a fast
// first gate, so architecture/engine/performance docs cannot drift into
// dead cross-references as files move between PRs.
//
// Usage:
//
//	docscheck [-root dir]
//
// External links (http, https, mailto) and pure in-page anchors (#...)
// are skipped; a fragment on a relative link is stripped before the
// existence check. Exit status is 1 when any link is broken, with one
// "file: target" line per break.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target); images ![...](...)
// share the suffix shape and are matched too.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// codeSpanRe matches an inline code span within one line. Its text is code,
// not markdown — `[0-9](e|E)` there is a pattern, no link — so spans are
// blanked before links are extracted.
var codeSpanRe = regexp.MustCompile("`[^`\n]+`")

func main() {
	root := flag.String("root", ".", "repository root to scan")
	flag.Parse()
	broken, err := checkTree(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, b := range broken {
		fmt.Println(b)
	}
	if len(broken) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s)\n", len(broken))
		os.Exit(1)
	}
}

// checkTree scans every .md file under root (skipping dot-directories)
// and returns one "file: target" entry per broken relative link.
func checkTree(root string) ([]string, error) {
	var broken []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip dot-directories (.git, caches) — but never the walk
			// root itself, whose own name may start with a dot (".", "..").
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, target := range brokenLinks(filepath.Dir(path), string(data)) {
			broken = append(broken, fmt.Sprintf("%s: %s", path, target))
		}
		return nil
	})
	return broken, err
}

// brokenLinks returns the relative link targets in one document body that
// do not resolve to an existing file or directory relative to dir.
func brokenLinks(dir, body string) []string {
	var out []string
	for _, m := range linkRe.FindAllStringSubmatch(codeSpanRe.ReplaceAllString(body, "``"), -1) {
		target := m[1]
		if skipTarget(target) {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
			out = append(out, m[1])
		}
	}
	return out
}

// skipTarget reports link targets outside docscheck's scope: external
// URLs, mail links, and in-page anchors.
func skipTarget(t string) bool {
	return strings.HasPrefix(t, "http://") ||
		strings.HasPrefix(t, "https://") ||
		strings.HasPrefix(t, "mailto:") ||
		strings.HasPrefix(t, "#")
}
