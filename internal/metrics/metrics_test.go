package metrics

import (
	"testing"

	"datalab/internal/embed"
	"datalab/internal/table"
	"datalab/internal/textutil"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(true)
	c.Add(false)
	c.Add(true)
	if c.Rate() < 66.6 || c.Rate() > 66.7 {
		t.Errorf("rate = %v", c.Rate())
	}
	var empty Counter
	if empty.Rate() != 0 {
		t.Error("empty counter should be 0")
	}
	if got := c.String(); got != "66.67% (2/3)" {
		t.Errorf("String = %q", got)
	}
}

func TestExecutionAccuracy(t *testing.T) {
	a := table.MustNew("a", []string{"x"}, []table.Kind{table.KindInt})
	a.MustAppendRow(table.Int(1))
	b := table.MustNew("b", []string{"y"}, []table.Kind{table.KindInt})
	b.MustAppendRow(table.Int(1))
	if !ExecutionAccuracy(a, b) {
		t.Error("equal tables not equivalent")
	}
	b.MustAppendRow(table.Int(2))
	if ExecutionAccuracy(a, b) {
		t.Error("different tables equivalent")
	}
	if ExecutionAccuracy(nil, b) || ExecutionAccuracy(a, nil) {
		t.Error("nil tables must not be equivalent")
	}
}

func TestRecallAtK(t *testing.T) {
	retrieved := []string{"A", "b", "c", "d", "e"}
	relevant := []string{"a", "c", "z"}
	if got := RecallAtK(retrieved, relevant, 5); got < 0.66 || got > 0.67 {
		t.Errorf("recall@5 = %v, want 2/3", got)
	}
	if got := RecallAtK(retrieved, relevant, 1); got < 0.33 || got > 0.34 {
		t.Errorf("recall@1 = %v, want 1/3", got)
	}
	if got := RecallAtK(nil, nil, 5); got != 1 {
		t.Errorf("empty relevant = %v, want 1", got)
	}
	// Duplicate retrievals must not double-count.
	if got := RecallAtK([]string{"a", "a", "a"}, []string{"a", "b"}, 3); got != 0.5 {
		t.Errorf("dup recall = %v, want 0.5", got)
	}
}

// The paper's SES is embed.Similarity and its ROUGE-1 is textutil.ROUGE1,
// which the experiments call directly; these pin what Tables I and II read
// from them.
func TestSESOrdering(t *testing.T) {
	SES := embed.Similarity
	gen := "income after tax for each product line"
	gold := "the product line income after tax"
	noise := "scheduler latency for pod eviction"
	if SES(gen, gold) <= SES(gen, noise) {
		t.Error("SES should rank matching description above noise")
	}
	if s := SES(gold, gold); s < 0.99 {
		t.Errorf("identical SES = %v", s)
	}
}

func TestMeanAndFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := FractionAbove(xs, 2); got != 0.5 {
		t.Errorf("fraction above 2 = %v", got)
	}
	if FractionAbove(nil, 0) != 0 {
		t.Error("empty fraction should be 0")
	}
}

func TestROUGE1Bounds(t *testing.T) {
	ROUGE1 := textutil.ROUGE1
	if got := ROUGE1("a b c", "a b c"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := ROUGE1("x", "y"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
}
