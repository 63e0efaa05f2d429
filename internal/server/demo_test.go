package server

import (
	"strconv"
	"testing"
)

// TestAppendCentsMatchesFormatFloat: every residue DemoRecords writes
// formats to FormatFloat's two-decimal bytes.
func TestAppendCentsMatchesFormatFloat(t *testing.T) {
	for c := 0; c < 10000; c++ {
		want := strconv.FormatFloat(float64(c)/100, 'f', 2, 64)
		if got := string(appendCents(nil, c)); got != want {
			t.Fatalf("appendCents(%d) = %q, want %q", c, got, want)
		}
	}
}
