// Package textutil provides tokenization, normalization, and string
// similarity primitives shared by the indexing, knowledge, and simulated-LLM
// layers. All functions are deterministic. Tokenize and ContentTokens run on
// every question (the query is tokenized for retrieval, rewrite and
// translation) and allocate their result plus a copy of each token that has to
// be lower-cased; text that does not depend on
// the question — knowledge-node names and descriptions — is tokenized once,
// when the node is added to the graph, not here per call.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. Identifier-style input such
// as "prod_class4_name" or "shouldIncomeAfter" is split on underscores,
// digits boundaries, and camel-case humps so that schema names and natural
// language share a token space.
//
// A token is a run of the input's own bytes, so it is sliced out of s, and
// lower-cased only when one of its runes needs it: a text that is already
// lower-case costs the result slice and nothing else.
func Tokenize(s string) []string {
	var buf [16]string // most names and questions fit; longer texts grow on the heap
	tokens := buf[:0]
	start := -1 // byte offset of the open token, -1 when there is none
	flush := func(end int) {
		if start >= 0 {
			tokens = append(tokens, strings.ToLower(s[start:end]))
			start = -1
		}
	}
	prevLower, prevASCIIDigit := false, false
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		switch {
		case unicode.IsLetter(r):
			// Camel-case boundary: "incomeAfter" -> "income", "After".
			if prevLower && unicode.IsUpper(r) {
				flush(i)
			}
			if start < 0 {
				start = i
			}
			prevLower, prevASCIIDigit = unicode.IsLower(r), false
		case unicode.IsDigit(r):
			// Digits form their own tokens so "class4" -> "class", "4".
			if !prevASCIIDigit {
				flush(i)
			}
			if start < 0 {
				start = i
			}
			prevLower, prevASCIIDigit = false, r < utf8.RuneSelf
		default:
			flush(i)
			prevLower, prevASCIIDigit = false, false
		}
		i += size
	}
	flush(len(s))
	if len(tokens) == 0 {
		return nil
	}
	return append([]string(nil), tokens...)
}

// stopwords are excluded from lexical overlap scoring; they carry no signal
// for schema linking or retrieval.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"for": true, "to": true, "by": true, "and": true, "or": true, "is": true,
	"are": true, "was": true, "be": true, "me": true, "my": true, "show": true,
	"what": true, "which": true, "with": true, "from": true, "per": true,
	"all": true, "each": true, "this": true, "that": true, "it": true,
	"at": true, "as": true, "please": true, "give": true, "list": true,
}

// ContentTokens returns Tokenize(s) with stopwords removed.
func ContentTokens(s string) []string {
	raw := Tokenize(s)
	out := raw[:0] // raw is this call's own slice: filter it in place
	for _, t := range raw {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// IsStopword reports whether the (lowercase) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContainsAny reports whether s contains any of subs as a substring.
func ContainsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// Jaccard computes the Jaccard similarity of the token sets of a and b,
// in [0, 1]. Empty-vs-empty is defined as 0.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	union := len(set)
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// OverlapRatio returns |A ∩ B| / |A| over the token sets: the fraction of
// a's distinct tokens that also appear in b. It is asymmetric by design —
// a query term covered by a candidate matters more than the reverse.
func OverlapRatio(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	set := make(map[string]bool, len(b))
	for _, t := range b {
		set[t] = true
	}
	distinct := make(map[string]bool, len(a))
	hit := 0
	for _, t := range a {
		if distinct[t] {
			continue
		}
		distinct[t] = true
		if set[t] {
			hit++
		}
	}
	return float64(hit) / float64(len(distinct))
}

// CountTokens estimates the LLM token count of s. Like production tokenizers
// it charges roughly one token per word plus extra for long words and
// punctuation; the constant is calibrated to ~4 characters per token, the
// ratio used in the paper's token-cost accounting.
func CountTokens(s string) int {
	if s == "" {
		return 0
	}
	n := (len(s) + 3) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// ROUGE1 computes the unigram-overlap F1 score between a candidate and a
// reference text, the summary-level metric used by InsightBench.
func ROUGE1(candidate, reference string) float64 {
	ct := Tokenize(candidate)
	rt := Tokenize(reference)
	if len(ct) == 0 || len(rt) == 0 {
		return 0
	}
	refCounts := make(map[string]int, len(rt))
	for _, t := range rt {
		refCounts[t]++
	}
	match := 0
	for _, t := range ct {
		if refCounts[t] > 0 {
			refCounts[t]--
			match++
		}
	}
	prec := float64(match) / float64(len(ct))
	rec := float64(match) / float64(len(rt))
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}
