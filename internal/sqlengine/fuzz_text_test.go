package sqlengine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"datalab/internal/table"
)

// Two fuzz targets over statement text (FuzzDifferentialSQL fuzzes the
// generator's inputs, so it only ever sees well-formed statements).

// corpusStatements seeds both targets with what the differential
// generator writes at TestDifferentialFuzzCorpus's seeds.
func corpusStatements() []string {
	var out []string
	for seed := int64(100); seed < 126; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randCatalog(rng, int(seed*37%650)%700+1) // the draws diffOneSeed makes before its first query
		for i := 0; i < 6; i++ {
			q, _ := randStatement(rng)
			out = append(out, q)
		}
	}
	return append(out, unknownNameStatements()...)
}

// FuzzParse: on arbitrary bytes Parse returns — a statement or an error,
// never a panic — and a statement it accepts renders without panicking.
// (Rendering is not held to re-parse: SQL() does not quote identifiers.)
// A hang shows as the fuzzing engine's "process hung" failure.
func FuzzParse(f *testing.F) {
	for _, q := range corpusStatements() {
		f.Add([]byte(q))
	}
	f.Add([]byte("SELECT"))
	f.Add([]byte("SELECT 'unterminated FROM t"))
	f.Add([]byte("SELECT ((((((((((a FROM t"))
	f.Add([]byte("SELECT \"q\"\"q\" FROM t WHERE x = ? AND y = :n LIMIT ?"))
	// Found by this target: a byte that is a Latin-1 letter started a word
	// no byte could continue, and the lexer appended empty tokens forever.
	f.Add([]byte("SELECT AVG(sc\xff\x7f FROM multi"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if stmt, err := Parse(string(data)); err == nil {
			_ = stmt.SQL()
		}
	})
}

// FuzzFingerprint holds the plan cache's front end to its contract on
// arbitrary text: either the template parses with exactly the extracted
// values as its parameters, planQuery plans it with those bindings (or
// fails on a name, as the raw text then does too), and template+bindings
// executes to what the raw text executes to; or planQuery falls back to the
// raw text with no bindings. It never binds a
// value to a statement that does not mean the same thing.
func FuzzFingerprint(f *testing.F) {
	for _, q := range corpusStatements() {
		f.Add(q)
	}
	f.Add("SELECT a AS 'x' FROM data WHERE a = 1")
	f.Add("SELECT a FROM data WHERE a = ? AND b > 2")
	f.Add("SELECT a FROM data WHERE c = 'it''s' LIMIT 3 OFFSET 1")
	c := randCatalog(rand.New(rand.NewSource(1)), 24)
	registerNamesTables(c)
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 1<<10 {
			t.Skip("long inputs buy joins the tables make slow, not new token shapes")
		}
		// "Raw" is the text planned as it stands: parsed, then resolved.
		var raw *plan
		rawStmt, rawErr := Parse(sql)
		if rawErr == nil {
			raw, rawErr = c.resolve(rawStmt)
		}
		planned, binds, planErr := c.planQuery(sql)

		tmpl, vals, ok := Fingerprint(sql)
		var tmplStmt *SelectStmt
		if ok && len(vals) > 0 {
			if s, err := Parse(tmpl); err == nil && s.NumParams() == len(vals) {
				tmplStmt = s
			}
		}
		if tmplStmt == nil {
			if binds != nil || (planErr == nil) != (rawErr == nil) {
				t.Fatalf("%q: no usable template (ok=%v, %d values), yet planQuery gave binds %v, err %v; raw plan err %v",
					sql, ok, len(vals), binds, planErr, rawErr)
			}
			return
		}
		// A usable template is what planQuery plans — or fails to resolve,
		// and then the raw text names the same unknown table or column.
		want := tmplStmt.SQL()
		tmplPlan, tmplErr := c.resolve(tmplStmt)
		if tmplErr != nil {
			if planErr == nil || rawErr == nil {
				t.Fatalf("%q: template %q does not resolve (%v), yet planQuery err %v, raw plan err %v", sql, tmpl, tmplErr, planErr, rawErr)
			}
			return
		}
		if planErr != nil || len(binds) != len(vals) || planned.stmt.SQL() != want {
			t.Fatalf("%q: template %q is usable, yet planQuery gave %v, binds %v, err %v", sql, tmpl, planned, binds, planErr)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		// The raw text may fail in the parser where the bound template
		// fails in bind resolution (LIMIT 0.5): failing is what must agree.
		var wantT *table.Table
		wantErr := rawErr
		if rawErr == nil {
			wantT, wantErr = executeCtxBound(ctx, raw, nil)
		}
		got, gotErr := executeCtxBound(ctx, tmplPlan, vals)
		if ctx.Err() != nil {
			t.Skip("statement too slow to compare")
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: raw text err %v, template %q + %v err %v", sql, wantErr, tmpl, vals, gotErr)
		}
		if wantErr == nil && dumpTable(wantT) != dumpTable(got) {
			t.Fatalf("%q: template %q + %v mis-binds\n-- raw --\n%s\n-- bound --\n%s", sql, tmpl, vals, dumpTable(wantT), dumpTable(got))
		}
	})
}
