package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeIdentifiers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"prod_class4_name", []string{"prod", "class", "4", "name"}},
		{"shouldincome_after", []string{"shouldincome", "after"}},
		{"shouldIncomeAfter", []string{"should", "income", "after"}},
		{"ftime", []string{"ftime"}},
		{"", nil},
		{"SELECT * FROM t", []string{"select", "from", "t"}},
		{"2023 revenue", []string{"2023", "revenue"}},
		{"ARPU-2023_v2", []string{"arpu", "2023", "v", "2"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("Show ME the Income!"); got != "show me the income" {
		t.Errorf("Normalize = %q", got)
	}
}

func TestContentTokensDropsStopwords(t *testing.T) {
	got := ContentTokens("show me the income of TencentBI")
	want := []string{"income", "tencent", "bi"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestJaccard(t *testing.T) {
	a := []string{"income", "product", "year"}
	b := []string{"income", "year", "region"}
	got := Jaccard(a, b)
	want := 2.0 / 4.0
	if got != want {
		t.Errorf("Jaccard = %v, want %v", got, want)
	}
	if Jaccard(nil, b) != 0 {
		t.Error("Jaccard with empty set should be 0")
	}
	if Jaccard(a, a) != 1 {
		t.Error("Jaccard of identical sets should be 1")
	}
}

func TestOverlapRatioAsymmetric(t *testing.T) {
	q := []string{"income", "2023"}
	cand := []string{"income", "2023", "product", "class", "name"}
	if got := OverlapRatio(q, cand); got != 1.0 {
		t.Errorf("OverlapRatio(q, cand) = %v, want 1", got)
	}
	if got := OverlapRatio(cand, q); got >= 1.0 {
		t.Errorf("OverlapRatio(cand, q) = %v, want < 1", got)
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"gross", "margin", "rate"}
	got := NGrams(toks, 2)
	want := []string{"gross margin", "margin rate"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
	if NGrams(toks, 4) != nil {
		t.Error("NGrams longer than input should be nil")
	}
	if NGrams(toks, 0) != nil {
		t.Error("NGrams with n=0 should be nil")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"arpu", "arppu", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("same", "same"); got != 1 {
		t.Errorf("identical strings: %v", got)
	}
	if got := EditSimilarity("", ""); got != 1 {
		t.Errorf("empty strings: %v", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint strings: %v", got)
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Error("empty string should cost 0 tokens")
	}
	if got := CountTokens("abcd"); got != 1 {
		t.Errorf("4 chars = %d tokens, want 1", got)
	}
	if got := CountTokens("abcdefgh"); got != 2 {
		t.Errorf("8 chars = %d tokens, want 2", got)
	}
}

func TestTruncateTokens(t *testing.T) {
	s := "abcdefghijklmnop"
	if got := TruncateTokens(s, 2); got != "abcdefgh" {
		t.Errorf("TruncateTokens = %q", got)
	}
	if got := TruncateTokens(s, 100); got != s {
		t.Errorf("no-op truncate changed string: %q", got)
	}
	if got := TruncateTokens(s, 0); got != "" {
		t.Errorf("zero budget should return empty, got %q", got)
	}
}

func TestTruncateTokensRuneBoundary(t *testing.T) {
	s := "日本語テキスト" // 3 bytes per rune
	got := TruncateTokens(s, 1)
	for i := 0; i < len(got); {
		r := []rune(got[i:])
		if len(r) == 0 {
			t.Fatalf("invalid UTF-8 after truncation: %q", got)
		}
		i += len(string(r[0]))
	}
}

func TestROUGE1(t *testing.T) {
	if got := ROUGE1("revenue grew fast", "revenue grew fast"); got != 1 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := ROUGE1("alpha beta", "gamma delta"); got != 0 {
		t.Errorf("disjoint = %v, want 0", got)
	}
	got := ROUGE1("revenue grew", "revenue fell")
	if got <= 0 || got >= 1 {
		t.Errorf("partial overlap = %v, want in (0,1)", got)
	}
}

// Property: Jaccard is symmetric and bounded.
func TestJaccardProperties(t *testing.T) {
	f := func(a, b []string) bool {
		j1 := Jaccard(a, b)
		j2 := Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Levenshtein is a metric (symmetry + identity).
func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		d1 := Levenshtein(a, b)
		d2 := Levenshtein(b, a)
		return d1 == d2 && d1 >= 0 && Levenshtein(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing never produces empty or uppercase tokens.
func TestTokenizeProperties(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tokenizeReference is Tokenize as it was before it sliced tokens out of
// its input: every token built rune by rune and lower-cased afterwards.
func tokenizeReference(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	digitTail := func() bool {
		b := cur.String()
		return b != "" && b[len(b)-1] >= '0' && b[len(b)-1] <= '9'
	}
	prevLower := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if unicode.IsUpper(r) && prevLower {
				flush()
			}
			cur.WriteRune(r)
			prevLower = unicode.IsLower(r)
		case unicode.IsDigit(r):
			if cur.Len() > 0 && !digitTail() {
				flush()
			}
			cur.WriteRune(r)
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return tokens
}

// TestTokenizeMatchesReference pins the sliced tokenizer to the rune-by-
// rune one on the boundaries it has to get right — non-ASCII letters and
// digits, camel case, digit runs, invalid UTF-8 — and on random strings.
func TestTokenizeMatchesReference(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Größe_Über_alles", []string{"größe", "über", "alles"}},
		{"straßeNummer12a", []string{"straße", "nummer", "12a"}},
		{"ÉcoleÉlève", []string{"école", "élève"}},
		{"日本語 テキスト2024年", []string{"日本語", "テキスト", "2024年"}},
		{"x٣٤y", []string{"x", "٣", "٤y"}},
		{"a1٣2", []string{"a", "1٣", "2"}},
		{"HTTPServer2xx", []string{"httpserver", "2xx"}},
		{"getHTTPCode", []string{"get", "httpcode"}},
		{"class4name", []string{"class", "4name"}},
		{"v2.10-rc3", []string{"v", "2", "10", "rc", "3"}},
		{"İstanbul", []string{"istanbul"}},
		{"ab\xffcd\xc3", []string{"ab", "cd"}},
		{"�x", []string{"x"}},
		{"  __--  ", nil},
		{"one two three four five six seven eight nine ten eleven twelve thirteen fourteen fifteen sixteen seventeen",
			[]string{"one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
		if ref := tokenizeReference(c.in); !reflect.DeepEqual(ref, c.want) {
			t.Errorf("reference(%q) = %q, want %q", c.in, ref, c.want)
		}
	}
	same := func(s string) bool { return reflect.DeepEqual(Tokenize(s), tokenizeReference(s)) }
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// quick's strings are mostly non-letters; mix an alphabet that keeps
	// tokens open across the interesting transitions.
	alphabet := []rune("aZ9 _é٣Éßÿ")
	mixed := func(picks []uint8) bool {
		rs := make([]rune, len(picks))
		for i, p := range picks {
			rs[i] = alphabet[int(p)%len(alphabet)]
		}
		return same(string(rs))
	}
	if err := quick.Check(mixed, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestTokenizeAllocatesOnlyItsResult backs the package comment: lower-case
// input costs one allocation, the returned slice.
func TestTokenizeAllocatesOnlyItsResult(t *testing.T) {
	const q = "total shouldincome_after by prod_class4_name in 2023"
	if n := testing.AllocsPerRun(100, func() { Tokenize(q) }); n != 1 {
		t.Errorf("Tokenize allocated %v times per call, want 1", n)
	}
}
