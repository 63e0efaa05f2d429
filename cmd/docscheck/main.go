// Command docscheck is the docs job's fast first gate. It walks the tree
// once and fails on four kinds of drift:
//
//   - a broken intra-repo markdown link: a relative link target in a .md
//     file that does not exist, so architecture/engine/performance docs
//     cannot drift into dead cross-references as files move between PRs;
//   - a guard violation: a line of non-test Go matching one of the guards
//     below outside the paths that guard allows — code a simplification
//     removed, kept from growing back;
//   - a census finding, when the root holds a go.mod: a package-level
//     declaration, method or named-struct field that no non-test Go uses
//     (see census), unless the keep table names it and who needs it;
//   - a stale test name in .github/workflows/ci.yml: an alternative of a
//     -run or -fuzz pattern that spells a Test or Fuzz name no such
//     function in a _test.go file begins with, so a renamed test cannot
//     drop out of the job that selects it by name.
//
// Usage:
//
//	docscheck [-root dir]
//
// External links (http, https, mailto) and pure in-page anchors (#...)
// are skipped; a fragment on a relative link is stripped before the
// existence check. Exit status is 1 when anything fails, with one
// "file: target" line per broken link, one "file:line: text (reason)"
// line per guard violation, one "file:line: symbol (no non-test Go uses
// it)" line per census finding and one "file:line: name (no test
// function begins with it)" line per stale CI test name.
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

// A guard forbids a pattern in the repository's non-test Go, except under
// the allowed paths (slash-separated prefixes relative to the root).
type guard struct {
	pattern *regexp.Regexp
	allowed []string
	reason  string
}

var guards = []guard{
	{
		regexp.MustCompile(`findColumn\(`),
		[]string{"internal/sqlengine/plan.go"},
		"names resolve once, when a statement becomes a plan; no executor looks a name up",
	},
	{
		regexp.MustCompile(`func \(\w+ \*Table\) (GroupBy|Sort)\(|table\.Aggregation`),
		nil,
		"the engine groups and sorts; a chart renders the rows its SQL returned",
	},
	{
		regexp.MustCompile(`NewPlanner\(|comm\.NewProxy\(`),
		[]string{"internal/agent/", "bench/"},
		"Ask and Table III run one pipeline, agent.Run",
	},
	{
		regexp.MustCompile(`evalExpr\(|rowFallback|vecEnv|vGroupEnv|type env interface|QueryScalar|ExecuteScalarBound`),
		nil,
		"the engine has one evaluator, evalVec; the row-at-a-time oracle lives in test files",
	},
	{
		regexp.MustCompile(`func \(\w+ \*Catalog\) (Query|Execute)\(|func (executeCtxBound|newTableResult|applyDistinctOffsetLimit|cloneStmt)\(|func \(\w+ \*Table\) (Distinct|Slice|Limit)\(`),
		nil,
		"every execution ends as one Result; DISTINCT/OFFSET/LIMIT narrow its selection",
	},
	{
		regexp.MustCompile(`[wW]indowAcc|finishAggregate|finishNumericAggregate|gatherFloats|minMaxOverColumn|betweenNumeric|cmpIntConst|cmpFloat\b`),
		nil,
		"aggregates fold through aggAcc; typed constant comparisons run through table.SelectCompare",
	},
	{
		regexp.MustCompile(`loopJoinPairs|probeJoinPairs|emitMatch\(|emitPad\(|PadLeft\(`),
		nil,
		"every join's pairs come from joinPairs; RIGHT is a swapped LEFT",
	},
	{
		regexp.MustCompile(`case "(=|<>|<=?|>=?|[+*/%])"|case "-",`),
		[]string{"internal/sqlengine/eval.go", "internal/sqlengine/lexer.go", "internal/pymini/parser.go"},
		"a comparison or arithmetic operator means one thing, said once: cmpOpOf, intArith and floatArith (the lexers only split tokens)",
	},
	{
		regexp.MustCompile(`partitionRows|windowPartitionsVec|windowSorter`),
		nil,
		"window partitions are segments of one permutation, partitionPerm's, sorted in place",
	},
	{
		regexp.MustCompile(`keyset|buildKeyset|sortKeySpecs|boxedSortSegment|boxedSortPerm|BuildSortKeys|AppendRowSortKey|FixedSortKeyWidth`),
		nil,
		"ORDER BY compares typed cells through rowOrder's one comparator; no key is encoded per row",
	},
	{
		regexp.MustCompile(`AppendKeyPart|appendEquiKey|appendFloatKey|round9`),
		nil,
		"a cell's equality key is table.AppendKey, which follows =; no second key rounds or truncates",
	},
	{
		regexp.MustCompile(`QueueWait|durationMS\(time\.Since\(start`),
		nil,
		"a request's times are readings of its one sqlengine.Trace; the server keeps no stopwatch of its own",
	},
	{
		regexp.MustCompile(`\bboxed\b|degrade\(|IsTyped|storageBoxed`),
		nil,
		"a column holds one kind, which the kind rule decides from operand kinds; no column keeps a second, per-cell-kind storage",
	},
	{
		regexp.MustCompile(`\[\]time\.Time|timeOrder|\bT\s+time\.Time`),
		nil,
		"a time cell is its UTC Unix nanoseconds in the int64 slab",
	},
	{
		regexp.MustCompile(`\bos\.(Open|OpenFile|Create|Remove|Rename|Truncate|ReadDir|MkdirAll|Stat)\(|filepath\.Glob\(`),
		[]string{"internal/wal/fs.go", "bench/"},
		"the durable catalog reaches the disk through one seam, internal/wal's fsys, which its fault and crash tests fail on cue",
	},
	{
		regexp.MustCompile(`createLogFile|staleFiles|sortedGens|framesAfterMagic|readMagic`),
		nil,
		"the log lists its directory once (listDir), creates a file durably once (createFile) and opens past the magic once (openFrames)",
	},
}

// linkRe matches inline markdown links [text](target); images ![...](...)
// share the suffix shape and are matched too.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// testFuncRe matches the name of a Test or Fuzz function declared in a
// _test.go file; ciPatternRe a -run or -fuzz pattern in a workflow line,
// quoted or bare; and testNameRe an alternative of such a pattern that
// names a test — '^$' and other match-nothing patterns name none.
var (
	testFuncRe  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	ciPatternRe = regexp.MustCompile(`-(?:run|fuzz)[= ]+['"]?([^'"\s]+)`)
	testNameRe  = regexp.MustCompile(`^(?:Test|Fuzz)\w*$`)
)

// ciWorkflow is the workflow file whose test selections staleCINames checks.
const ciWorkflow = ".github/workflows/ci.yml"

// codeSpanRe matches an inline code span within one line. Its text is code,
// not markdown — `[0-9](e|E)` there is a pattern, no link — so spans are
// blanked before links are extracted.
var codeSpanRe = regexp.MustCompile("`[^`\n]+`")

func main() {
	root := flag.String("root", ".", "repository root to scan")
	flag.Parse()
	problems, err := checkTree(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken link(s), guard violation(s), stale CI test name(s) or census finding(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkTree scans every .md and .go file under root (skipping
// dot-directories) and returns one entry per broken relative link, per
// guard violation in non-test Go, per stale test name in the CI workflow
// and, when root holds a go.mod, per census finding over the directories
// of the non-test Go files it read.
func checkTree(root string) ([]string, error) {
	var problems, dirs, tests []string
	seen := map[string]bool{}
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
		name := strings.ToLower(d.Name())
		isDoc := strings.HasSuffix(name, ".md")
		isTest := strings.HasSuffix(name, "_test.go")
		if !isDoc && !strings.HasSuffix(name, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if isTest {
			for _, m := range testFuncRe.FindAllStringSubmatch(string(data), -1) {
				tests = append(tests, m[1])
			}
			return nil
		}
		if isDoc {
			for _, target := range brokenLinks(filepath.Dir(path), string(data)) {
				problems = append(problems, fmt.Sprintf("%s: %s", path, target))
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		problems = append(problems, guardViolations(filepath.ToSlash(rel), path, string(data))...)
		if dir := filepath.Dir(path); !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stale, err := staleCINames(root, tests)
	if err != nil {
		return nil, err
	}
	problems = append(problems, stale...)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return problems, nil
	}
	found, err := census(root, dirs, keep)
	return append(problems, found...), err
}

// staleCINames returns one entry per alternative of a -run or -fuzz
// pattern in root's CI workflow that names a test no function in tests
// begins with. A missing workflow has nothing to check.
func staleCINames(root string, tests []string) ([]string, error) {
	path := filepath.Join(root, filepath.FromSlash(ciWorkflow))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range ciPatternRe.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(m[1], "|") {
				if testNameRe.MatchString(alt) && !anyHasPrefix(tests, alt) {
					out = append(out, fmt.Sprintf("%s:%d: %s (no test function begins with it)", path, i+1, alt))
				}
			}
		}
	}
	return out, nil
}

func anyHasPrefix(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// guardViolations returns one entry per line of a non-test Go file that a
// guard forbids at rel, the file's slash-separated path under the root.
// docscheck's own source spells out what it forbids and is not checked.
func guardViolations(rel, path, body string) []string {
	if strings.HasPrefix(rel, "cmd/docscheck/") {
		return nil
	}
	var out []string
	for _, g := range guards {
		if allowedAt(g.allowed, rel) {
			continue
		}
		for i, line := range strings.Split(body, "\n") {
			if g.pattern.MatchString(line) {
				out = append(out, fmt.Sprintf("%s:%d: %s (%s)", path, i+1, strings.TrimSpace(line), g.reason))
			}
		}
	}
	return out
}

func allowedAt(allowed []string, rel string) bool {
	for _, a := range allowed {
		if strings.HasPrefix(rel, a) {
			return true
		}
	}
	return false
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
