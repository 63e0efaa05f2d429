// Package metrics implements the evaluation metrics the paper reports:
// execution accuracy, pass rate, Recall@K, and the mean and threshold
// shares its tables print. ROUGE-1 is textutil.ROUGE1 and sentence-
// embedding similarity (SES) is embed.Similarity.
package metrics

import (
	"fmt"
	"strings"

	"datalab/internal/table"
)

// Counter accumulates a boolean outcome rate (EX, pass rate, accuracy,
// success rate are all rates over task sets).
type Counter struct {
	Hits  int
	Total int
}

// Add records one outcome.
func (c *Counter) Add(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}

// Rate returns hits/total in percent (0 when empty).
func (c *Counter) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Hits) / float64(c.Total)
}

// String renders like "73.00% (73/100)".
func (c Counter) String() string {
	return fmt.Sprintf("%.2f%% (%d/%d)", c.Rate(), c.Hits, c.Total)
}

// ExecutionAccuracy reports whether two result tables are execution-
// equivalent (multiset of rows, order-insensitive) — the EX metric of
// Spider/BIRD/nvBench.
func ExecutionAccuracy(got, want *table.Table) bool {
	if got == nil || want == nil {
		return false
	}
	return table.EqualData(got, want)
}

// RecallAtK computes |retrieved[:k] ∩ relevant| / |relevant| — the
// Schema Linking metric of Table II.
func RecallAtK(retrieved, relevant []string, k int) float64 {
	if len(relevant) == 0 {
		return 1
	}
	if k > len(retrieved) {
		k = len(retrieved)
	}
	want := make(map[string]bool, len(relevant))
	for _, r := range relevant {
		want[strings.ToLower(r)] = true
	}
	hits := 0
	seen := map[string]bool{}
	for _, r := range retrieved[:k] {
		key := strings.ToLower(r)
		if want[key] && !seen[key] {
			seen[key] = true
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// Mean averages a float slice (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FractionAbove returns the share of xs strictly above the threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
