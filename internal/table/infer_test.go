package table

import (
	"strconv"
	"strings"
	"testing"
)

// inferUnguarded is the reference Infer is pinned to: every parser tried on
// every cell, in the same order, with no first-byte checks.
func inferUnguarded(s string) Value {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(trimmed) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if t, ok := ParseTime(trimmed); ok {
		return Time(t)
	}
	return Str(s)
}

// sameValue is identity, not Compare: kinds must match, NaN equals NaN and
// -0 differs from 0.
func sameValue(a, b Value) bool {
	if a.Kind == KindFloat && b.Kind == KindFloat {
		return strconv.FormatFloat(a.F, 'g', -1, 64) == strconv.FormatFloat(b.F, 'g', -1, 64)
	}
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B && a.T.Equal(b.T)
}

func FuzzInfer(f *testing.F) {
	for _, s := range []string{
		"inf", "-Inf", "NaN", ".5", "+3", "1e3", "0x10", " 12 ", "2024-01-05", "2024/01", "true", "T", "٣",
		"", "apac", "nordics", "na-east", "Infinity", "+infinity", "-nan", "0x1p4", "1_000", "-", "+", ".",
		"TRUE", "False", "falſe", "tRuE ", "20240105", "2024-01", "2024-01-05 10:11:12", "2024-01-05T10:11:12Z",
		"9223372036854775808", "-9223372036854775809", "1e400", "İnf", "\xffnan", "in", "na",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Infer(s), inferUnguarded(s); !sameValue(got, want) {
			t.Fatalf("Infer(%q) = %v (%v), unguarded chain gives %v (%v)", s, got, got.Kind, want, want.Kind)
		}
	})
}

func TestInferTextCellDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"apac", "nordics", "order", "enterprise", "12.34", "-0.5", "1e3"} {
		if n := testing.AllocsPerRun(100, func() { Infer(s) }); n != 0 {
			t.Errorf("Infer(%q) allocates %v times per call, want 0", s, n)
		}
	}
}
