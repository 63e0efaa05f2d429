package table

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ColumnStats summarizes one column: the heuristics-based half of the data
// profiling module (§IV-C). LLM-based interpretation happens in the
// knowledge package on top of these numbers.
type ColumnStats struct {
	Name          string
	Kind          Kind
	Count         int // non-null cells
	Nulls         int
	Distinct      int
	Min, Max      Value
	Mean, StdDev  float64 // numeric columns only
	SampleValues  []string
	TopValues     []string // most frequent distinct values, ties broken lexically
	IsNumeric     bool
	IsTimeLike    bool
	IsIdentifier  bool // looks like a key: all-distinct, high cardinality
	IsCategorical bool // low cardinality relative to rows
}

// Profile computes stats for every column. sampleN bounds SampleValues.
func (t *Table) Profile(sampleN int) []ColumnStats {
	out := make([]ColumnStats, 0, len(t.Columns))
	for i := range t.Columns {
		out = append(out, t.profileColumn(i, sampleN))
	}
	return out
}

// profileColumn profiles column i. Two cells are one distinct value when
// they have one equality key (Column.AppendKey), the key GROUP BY and
// DISTINCT use, so Distinct counts what SELECT COUNT(DISTINCT …) counts;
// TopValues names each value by its first cell's text.
func (t *Table) profileColumn(i, sampleN int) ColumnStats {
	c := &t.Columns[i]
	st := ColumnStats{Name: c.Name, Kind: c.Kind}
	type fv struct {
		v string // the value's first cell, as text
		n int
	}
	freq := map[string]*fv{}
	var key []byte
	var nums []float64
	for r, m := 0, c.Len(); r < m; r++ {
		v := c.Value(r)
		if v.IsNull() {
			st.Nulls++
			continue
		}
		st.Count++
		key = c.AppendKey(key[:0], r)
		if f := freq[string(key)]; f != nil {
			f.n++
		} else {
			freq[string(key)] = &fv{v.AsString(), 1}
		}
		if st.Count == 1 {
			st.Min, st.Max = v, v
		} else {
			if Compare(v, st.Min) < 0 {
				st.Min = v
			}
			if Compare(v, st.Max) > 0 {
				st.Max = v
			}
		}
		if f, ok := v.AsFloat(); ok && (c.Kind == KindInt || c.Kind == KindFloat) {
			nums = append(nums, f)
		}
	}
	st.Distinct = len(freq)
	if len(nums) > 0 {
		st.Mean = sum(nums) / float64(len(nums))
		st.StdDev = stddev(nums)
		st.IsNumeric = true
	}
	st.IsTimeLike = c.Kind == KindTime || looksTemporal(c.Name)
	total := st.Count + st.Nulls
	if total > 0 {
		st.IsIdentifier = st.Distinct == st.Count && st.Count > 1 && !st.IsNumeric
		st.IsCategorical = !st.IsNumeric && st.Distinct > 0 && st.Distinct <= max(2, total/4)
	}

	// Deterministic sample: evenly spaced non-null values.
	if sampleN > 0 && st.Count > 0 {
		var nonNull []string
		for r, m := 0, c.Len(); r < m; r++ {
			if v := c.Value(r); !v.IsNull() {
				nonNull = append(nonNull, v.AsString())
			}
		}
		step := len(nonNull) / sampleN
		if step < 1 {
			step = 1
		}
		for j := 0; j < len(nonNull) && len(st.SampleValues) < sampleN; j += step {
			st.SampleValues = append(st.SampleValues, nonNull[j])
		}
	}

	// Top values by frequency (desc), then lexical for determinism.
	fvs := make([]fv, 0, len(freq))
	for _, f := range freq {
		fvs = append(fvs, *f)
	}
	sort.Slice(fvs, func(a, b int) bool {
		if fvs[a].n != fvs[b].n {
			return fvs[a].n > fvs[b].n
		}
		return fvs[a].v < fvs[b].v
	})
	for j := 0; j < len(fvs) && j < 5; j++ {
		st.TopValues = append(st.TopValues, fvs[j].v)
	}
	return st
}

func looksTemporal(name string) bool {
	n := strings.ToLower(name)
	for _, kw := range []string{"time", "date", "day", "month", "year", "ftime", "dt", "ds"} {
		if n == kw || strings.Contains(n, kw) {
			return true
		}
	}
	return false
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// stddev is the sample standard deviation (n-1 denominator).
func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := sum(xs) / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Describe renders the profile as the textual table summary fed to the
// simulated LLM during profiling-based interpretation.
func (st ColumnStats) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "column %s type=%s non_null=%d nulls=%d distinct=%d",
		st.Name, st.Kind, st.Count, st.Nulls, st.Distinct)
	if st.IsNumeric {
		fmt.Fprintf(&sb, " min=%s max=%s mean=%.4g std=%.4g",
			st.Min.AsString(), st.Max.AsString(), st.Mean, st.StdDev)
	}
	if len(st.SampleValues) > 0 {
		fmt.Fprintf(&sb, " samples=[%s]", strings.Join(st.SampleValues, ", "))
	}
	return sb.String()
}
