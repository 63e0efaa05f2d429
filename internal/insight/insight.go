// Package insight implements the statistical analysis substrate behind
// DataLab's Data Analysis agents: exploratory data analysis, anomaly
// detection, causal (association) analysis, and time-series forecasting.
// These are the executable actions NL2Insight tasks bottom out in.
package insight

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"datalab/internal/table"
)

// Insight is one discovered finding, scored for ranking into summaries.
type Insight struct {
	Kind        string // "trend", "outlier", "correlation", "extreme", "distribution", "forecast"
	Column      string
	Description string
	Score       float64 // interestingness in [0,1]
}

// Summarize renders a ranked set of insights as the NL summary an
// insight-generation agent reports.
func Summarize(insights []Insight, maxN int) string {
	sorted := append([]Insight(nil), insights...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Score > sorted[b].Score })
	if len(sorted) > maxN {
		sorted = sorted[:maxN]
	}
	var sb strings.Builder
	for i, in := range sorted {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(in.Description)
	}
	return sb.String()
}

// numericColumn extracts the non-null float values of a column.
func numericColumn(t *table.Table, col string) []float64 {
	c := t.Column(col)
	if c == nil {
		return nil
	}
	var out []float64
	for i, n := 0, c.Len(); i < n; i++ {
		if f, ok := c.FloatAt(i); ok {
			out = append(out, f)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// EDA produces basic exploratory findings: distributions, extremes, and
// simple trends for every numeric column.
func EDA(t *table.Table) []Insight {
	var out []Insight
	for _, c := range t.Columns {
		if c.Kind != table.KindInt && c.Kind != table.KindFloat {
			continue
		}
		xs := numericColumn(t, c.Name)
		if len(xs) < 3 {
			continue
		}
		m, sd := mean(xs), stddev(xs)
		out = append(out, Insight{
			Kind:   "distribution",
			Column: c.Name,
			Description: fmt.Sprintf("%s averages %.4g with standard deviation %.4g over %d records.",
				c.Name, m, sd, len(xs)),
			Score: 0.3,
		})
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if sd > 0 && (hi-m) > 2*sd {
			out = append(out, Insight{
				Kind: "extreme", Column: c.Name,
				Description: fmt.Sprintf("%s has a pronounced maximum of %.4g, well above its mean %.4g.", c.Name, hi, m),
				Score:       0.55,
			})
		}
		if tr := trendSlope(xs); math.Abs(tr) > 0.01 && sd > 0 {
			dir := "upward"
			if tr < 0 {
				dir = "downward"
			}
			strength := math.Min(1, math.Abs(tr)*float64(len(xs))/(sd+1e-12))
			if strength > 0.3 {
				out = append(out, Insight{
					Kind: "trend", Column: c.Name,
					Description: fmt.Sprintf("%s shows a clear %s trend across the period.", c.Name, dir),
					Score:       0.5 + 0.3*strength,
				})
			}
		}
	}
	return out
}

// trendSlope fits a least-squares line over the sequence index and
// returns the slope.
func trendSlope(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sumI, sumX, sumIX, sumII float64
	for i, x := range xs {
		fi := float64(i)
		sumI += fi
		sumX += x
		sumIX += fi * x
		sumII += fi * fi
	}
	den := n*sumII - sumI*sumI
	if den == 0 {
		return 0
	}
	return (n*sumIX - sumI*sumX) / den
}

// AnomalyMethod selects the detection rule.
type AnomalyMethod uint8

// Detection rules.
const (
	MethodZScore AnomalyMethod = iota
	MethodIQR
)

// Anomaly is one detected outlier.
type Anomaly struct {
	Row    int
	Column string
	Value  float64
	Score  float64 // deviation measure (z-score or IQR multiples)
}

// DetectAnomalies finds outliers in a numeric column. For MethodZScore,
// threshold is the |z| cutoff (typically 3); for MethodIQR it is the IQR
// multiple (typically 1.5).
func DetectAnomalies(t *table.Table, col string, method AnomalyMethod, threshold float64) ([]Anomaly, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("insight: unknown column %q", col)
	}
	var vals []float64
	var rows []int
	for i, n := 0, c.Len(); i < n; i++ {
		if f, ok := c.FloatAt(i); ok {
			vals = append(vals, f)
			rows = append(rows, i)
		}
	}
	if len(vals) < 4 {
		return nil, nil
	}
	var out []Anomaly
	switch method {
	case MethodZScore:
		m, sd := mean(vals), stddev(vals)
		if sd == 0 {
			return nil, nil
		}
		for i, v := range vals {
			z := (v - m) / sd
			if math.Abs(z) >= threshold {
				out = append(out, Anomaly{Row: rows[i], Column: col, Value: v, Score: math.Abs(z)})
			}
		}
	case MethodIQR:
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		q1 := quantile(sorted, 0.25)
		q3 := quantile(sorted, 0.75)
		iqr := q3 - q1
		if iqr == 0 {
			return nil, nil
		}
		lo, hi := q1-threshold*iqr, q3+threshold*iqr
		for i, v := range vals {
			if v < lo || v > hi {
				dist := math.Max(lo-v, v-hi) / iqr
				out = append(out, Anomaly{Row: rows[i], Column: col, Value: v, Score: dist})
			}
		}
	default:
		return nil, fmt.Errorf("insight: unknown anomaly method %d", method)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Row < out[b].Row
	})
	return out, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson computes the correlation coefficient of two equal-length series.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a, b := xs[i]-mx, ys[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// CausalFinding is one association the causal-analysis agent reports.
// With observational BI data the honest claim is a (possibly lagged)
// association, which is what the description language reflects.
type CausalFinding struct {
	Cause, Effect string
	Correlation   float64
	Lag           int // rows of lag at which the association peaks
}

// CausalAnalysis scans numeric column pairs for strong contemporaneous or
// lagged associations (lag up to maxLag rows). Lagged associations are
// directed: the cause precedes the effect.
func CausalAnalysis(t *table.Table, maxLag int, minAbsCorr float64) []CausalFinding {
	var numCols []string
	for _, c := range t.Columns {
		if c.Kind == table.KindInt || c.Kind == table.KindFloat {
			numCols = append(numCols, c.Name)
		}
	}
	var out []CausalFinding
	for i := 0; i < len(numCols); i++ {
		for j := 0; j < len(numCols); j++ {
			if i == j {
				continue
			}
			xs := numericColumn(t, numCols[i])
			ys := numericColumn(t, numCols[j])
			n := len(xs)
			if len(ys) < n {
				n = len(ys)
			}
			if n < 6 {
				continue
			}
			bestCorr, bestLag := 0.0, 0
			for lag := 0; lag <= maxLag && lag < n-2; lag++ {
				c := Pearson(xs[:n-lag], ys[lag:n])
				if math.Abs(c) > math.Abs(bestCorr) {
					bestCorr, bestLag = c, lag
				}
			}
			// Contemporaneous pairs are symmetric; report each once.
			if bestLag == 0 && i > j {
				continue
			}
			if math.Abs(bestCorr) >= minAbsCorr {
				out = append(out, CausalFinding{
					Cause: numCols[i], Effect: numCols[j],
					Correlation: bestCorr, Lag: bestLag,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return math.Abs(out[a].Correlation) > math.Abs(out[b].Correlation)
	})
	return out
}

// Describe renders a finding as careful analyst prose.
func (f CausalFinding) Describe() string {
	strength := "moderate"
	if math.Abs(f.Correlation) > 0.8 {
		strength = "strong"
	}
	dir := "positive"
	if f.Correlation < 0 {
		dir = "negative"
	}
	if f.Lag > 0 {
		return fmt.Sprintf("%s leads %s by %d periods with a %s %s association (r=%.2f).",
			f.Cause, f.Effect, f.Lag, strength, dir, f.Correlation)
	}
	return fmt.Sprintf("%s and %s move together with a %s %s association (r=%.2f).",
		f.Cause, f.Effect, strength, dir, f.Correlation)
}

// Forecast projects a numeric series h steps ahead with Holt's linear
// (double exponential) smoothing. alpha smooths the level, beta the
// trend; both in (0,1).
func Forecast(series []float64, h int, alpha, beta float64) ([]float64, error) {
	if len(series) < 3 {
		return nil, fmt.Errorf("insight: need at least 3 observations, have %d", len(series))
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("insight: smoothing parameters must lie in (0,1)")
	}
	level := series[0]
	trend := series[1] - series[0]
	for _, x := range series[1:] {
		prevLevel := level
		level = alpha*x + (1-alpha)*(level+trend)
		trend = beta*(level-prevLevel) + (1-beta)*trend
	}
	out := make([]float64, h)
	for i := 1; i <= h; i++ {
		out[i-1] = level + float64(i)*trend
	}
	return out, nil
}

// ForecastColumn is a convenience wrapper over a table column.
func ForecastColumn(t *table.Table, col string, h int) ([]float64, error) {
	xs := numericColumn(t, col)
	return Forecast(xs, h, 0.5, 0.3)
}
