package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"datalab/internal/table"
)

func fpVals(vals []table.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v.Kind == table.KindNull {
			parts[i] = "NULL"
		} else {
			parts[i] = fmt.Sprintf("%v:%s", v.Kind, v.AsString())
		}
	}
	return strings.Join(parts, "|")
}

// TestFingerprintTemplates pins the normalizer's output byte for byte:
// which literals are extracted, which positions are grammar and stay
// inlined, and how the template preserves the surrounding text.
func TestFingerprintTemplates(t *testing.T) {
	cases := []struct {
		name     string
		sql      string
		template string // "" means template must equal the input
		vals     string // fpVals encoding; "" means no extraction
		notOK    bool
	}{
		{
			name:     "where int",
			sql:      "SELECT a FROM t WHERE a = 5",
			template: "SELECT a FROM t WHERE a = ?",
			vals:     fpVals([]table.Value{table.Int(5)}),
		},
		{
			name:     "where float and string",
			sql:      "SELECT a FROM t WHERE b > 2.5 AND c = 'red'",
			template: "SELECT a FROM t WHERE b > ? AND c = ?",
			vals:     fpVals([]table.Value{table.Float(2.5), table.Str("red")}),
		},
		{
			name: "string with doubled-quote escape",
			sql:  "SELECT a FROM t WHERE c = 'it''s'",
			// The template replaces the whole quoted literal, quotes
			// included; the extracted value is the unescaped content.
			template: "SELECT a FROM t WHERE c = ?",
			vals:     fpVals([]table.Value{table.Str("it's")}),
		},
		{
			name: "negative number is unary minus plus literal",
			sql:  "SELECT a FROM t WHERE a = -5",
			// The lexer emits '-' as an operator, so only the magnitude is
			// extracted: -5 and -7 share a template, and the parser's unary
			// minus negates the bound value at execution.
			template: "SELECT a FROM t WHERE a = -?",
			vals:     fpVals([]table.Value{table.Int(5)}),
		},
		{
			name: "exponent literal is one float",
			sql:  "SELECT a FROM t WHERE b > 1e9 AND c < 2.5E-3 AND d = 1e3_x",
			// 1e3_x is a digit-leading name, not an exponent.
			template: "SELECT a FROM t WHERE b > ? AND c < ? AND d = 1e3_x",
			vals:     fpVals([]table.Value{table.Float(1e9), table.Float(2.5e-3)}),
		},
		{
			name:     "is null is grammar, not a literal",
			sql:      "SELECT a FROM t WHERE a IS NULL",
			template: "",
			vals:     "",
		},
		{
			name:     "is not null is grammar",
			sql:      "SELECT a FROM t WHERE a IS NOT NULL AND b = 1",
			template: "SELECT a FROM t WHERE a IS NOT NULL AND b = ?",
			vals:     fpVals([]table.Value{table.Int(1)}),
		},
		{
			name:     "bare null in a comparison is extracted",
			sql:      "SELECT a FROM t WHERE a = NULL",
			template: "SELECT a FROM t WHERE a = ?",
			vals:     "NULL",
		},
		{
			name: "select-list literal names an output column",
			sql:  "SELECT 1, 'tag', a FROM t WHERE a > 2",
			// Parameterizing the select list would rename output columns,
			// so only the WHERE literal is extracted.
			template: "SELECT 1, 'tag', a FROM t WHERE a > ?",
			vals:     fpVals([]table.Value{table.Int(2)}),
		},
		{
			name:     "double-quoted identifier is not a string",
			sql:      `SELECT a FROM t WHERE "5" = 3`,
			template: `SELECT a FROM t WHERE "5" = ?`,
			vals:     fpVals([]table.Value{table.Int(3)}),
		},
		{
			name:     "backtick identifier is not a string",
			sql:      "SELECT a FROM t WHERE `where` = 'x'",
			template: "SELECT a FROM t WHERE `where` = ?",
			vals:     fpVals([]table.Value{table.Str("x")}),
		},
		{
			name:     "in-list arity two",
			sql:      "SELECT a FROM t WHERE a IN (1, 2)",
			template: "SELECT a FROM t WHERE a IN (?, ?)",
			vals:     fpVals([]table.Value{table.Int(1), table.Int(2)}),
		},
		{
			name: "in-list arity three is a distinct template",
			sql:  "SELECT a FROM t WHERE a IN (1, 2, 3)",
			// Differing arity must NOT collapse: each slot needs a value.
			template: "SELECT a FROM t WHERE a IN (?, ?, ?)",
			vals:     fpVals([]table.Value{table.Int(1), table.Int(2), table.Int(3)}),
		},
		{
			name:     "group by and order by integers are positional",
			sql:      "SELECT c, COUNT(*) FROM t WHERE a > 1 GROUP BY c ORDER BY 2 DESC",
			template: "SELECT c, COUNT(*) FROM t WHERE a > ? GROUP BY c ORDER BY 2 DESC",
			vals:     fpVals([]table.Value{table.Int(1)}),
		},
		{
			name:     "limit and offset re-enable extraction after order by",
			sql:      "SELECT a FROM t WHERE a > 4 ORDER BY 1 LIMIT 10 OFFSET 5",
			template: "SELECT a FROM t WHERE a > ? ORDER BY 1 LIMIT ? OFFSET ?",
			vals:     fpVals([]table.Value{table.Int(4), table.Int(10), table.Int(5)}),
		},
		{
			name:     "having literal",
			sql:      "SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > 3",
			template: "SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > ?",
			vals:     fpVals([]table.Value{table.Int(3)}),
		},
		{
			name:     "residual on-clause literal",
			sql:      "SELECT a FROM t JOIN u ON t.x = u.y AND u.w > 2.0",
			template: "SELECT a FROM t JOIN u ON t.x = u.y AND u.w > ?",
			vals:     fpVals([]table.Value{table.Float(2.0)}),
		},
		{
			name:     "between extracts both bounds",
			sql:      "SELECT a FROM t WHERE a BETWEEN -4 AND 9",
			template: "SELECT a FROM t WHERE a BETWEEN -? AND ?",
			vals:     fpVals([]table.Value{table.Int(4), table.Int(9)}),
		},
		{
			name:  "existing positional placeholder",
			sql:   "SELECT a FROM t WHERE a = ?",
			notOK: true,
		},
		{
			name:  "existing named placeholder",
			sql:   "SELECT a FROM t WHERE a = :x",
			notOK: true,
		},
		{
			name:  "lex error",
			sql:   "SELECT a FROM t WHERE c = 'unterminated",
			notOK: true,
		},
		{
			name:     "no literals at all",
			sql:      "SELECT a, b FROM t WHERE a IS NULL ORDER BY 1",
			template: "",
			vals:     "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, vals, ok := Fingerprint(tc.sql)
			if tc.notOK {
				if ok {
					t.Fatalf("Fingerprint(%q) ok=true, want false (tmpl %q)", tc.sql, tmpl)
				}
				if tmpl != tc.sql || vals != nil {
					t.Fatalf("not-ok result must echo the input unchanged, got %q / %v", tmpl, vals)
				}
				return
			}
			if !ok {
				t.Fatalf("Fingerprint(%q) ok=false", tc.sql)
			}
			want := tc.template
			if want == "" {
				want = tc.sql
			}
			if tmpl != want {
				t.Fatalf("template mismatch\n got  %q\n want %q", tmpl, want)
			}
			if got := fpVals(vals); got != tc.vals {
				t.Fatalf("values mismatch\n got  %s\n want %s", got, tc.vals)
			}
		})
	}
}

// TestFingerprintArityDistinct is the IN-list cache-key property: lists
// of different arity must land in different plan-cache entries, or a
// cached 2-slot plan would be executed with 3 extracted values.
func TestFingerprintArityDistinct(t *testing.T) {
	t2, v2, _ := Fingerprint("SELECT a FROM t WHERE a IN (1, 2)")
	t3, v3, _ := Fingerprint("SELECT a FROM t WHERE a IN (7, 8, 9)")
	if t2 == t3 {
		t.Fatalf("2-ary and 3-ary IN collapsed to one template %q", t2)
	}
	if len(v2) != 2 || len(v3) != 3 {
		t.Fatalf("extracted %d and %d values, want 2 and 3", len(v2), len(v3))
	}
	// Same arity, different literals: one template.
	t2b, _, _ := Fingerprint("SELECT a FROM t WHERE a IN (40, 50)")
	if t2 != t2b {
		t.Fatalf("same-arity lists split templates: %q vs %q", t2, t2b)
	}
}

// TestFingerprintTemplateRoundTrip: every extracted template must parse
// and declare exactly one slot per extracted value — the invariant
// planQuery relies on before executing a cached plan with the values.
func TestFingerprintTemplateRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a FROM t WHERE a = 5",
		"SELECT a FROM t WHERE a IN (1, 2, 3) AND c = 'x'",
		"SELECT a FROM t WHERE a BETWEEN -4 AND 9 LIMIT 3 OFFSET 1",
		"SELECT c, COUNT(*) FROM t GROUP BY c HAVING COUNT(*) > 3 ORDER BY 1 LIMIT 2",
		"SELECT a FROM t JOIN u ON t.x = u.y AND u.w > 2.0 WHERE c LIKE 'gr%'",
	}
	for _, q := range queries {
		tmpl, vals, ok := Fingerprint(q)
		if !ok || len(vals) == 0 {
			t.Fatalf("Fingerprint(%q): ok=%v, %d values", q, ok, len(vals))
		}
		stmt, err := Parse(tmpl)
		if err != nil {
			t.Fatalf("template %q does not parse: %v", tmpl, err)
		}
		if stmt.NumParams() != len(vals) {
			t.Fatalf("template %q: %d slots, %d values", tmpl, stmt.NumParams(), len(vals))
		}
	}
}
