package table

import (
	"fmt"
	"math"
	"strings"
)

// AggFunc enumerates the aggregate functions the engine supports.
type AggFunc uint8

const (
	AggCount AggFunc = iota
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStdDev
	AggMedian
	AggFirst
)

// String returns the SQL name of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggCountDistinct:
		return "COUNT_DISTINCT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggStdDev:
		return "STDDEV"
	case AggMedian:
		return "MEDIAN"
	case AggFirst:
		return "FIRST"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(a))
	}
}

// ParseAggFunc maps a SQL function name to an AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG", "MEAN":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "STDDEV", "STD":
		return AggStdDev, true
	case "MEDIAN":
		return AggMedian, true
	default:
		return 0, false
	}
}

// Aggregation describes one output aggregate column. Column "*" with
// AggCount counts rows.
type Aggregation struct {
	Func   AggFunc
	Column string // source column; "*" allowed for COUNT
	As     string // output name; defaults to FUNC(col)
}

func (a Aggregation) outName() string {
	if a.As != "" {
		return a.As
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Column)
}

// GroupBy groups by the named key columns and computes the aggregations.
// With no keys the whole table is a single group (global aggregate).
// Group order follows first appearance, keeping results deterministic.
func (t *Table) GroupBy(keys []string, aggs []Aggregation) (*Table, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		ci := t.ColumnIndex(k)
		if ci < 0 {
			return nil, fmt.Errorf("table %s: group by unknown column %q", t.Name, k)
		}
		keyIdx[i] = ci
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Column == "*" {
			if a.Func != AggCount {
				return nil, fmt.Errorf("table %s: %s(*) is not supported", t.Name, a.Func)
			}
			aggIdx[i] = -1
			continue
		}
		ci := t.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("table %s: aggregate over unknown column %q", t.Name, a.Column)
		}
		aggIdx[i] = ci
	}

	type group struct {
		firstRow int
		rows     []int
	}
	order := []string{}
	groups := map[string]*group{}
	n := t.NumRows()
	var kb []byte
	for r := 0; r < n; r++ {
		kb = kb[:0]
		for _, ci := range keyIdx {
			kb = AppendKeyPart(kb, t.Columns[ci].Value(r))
		}
		k := string(kb)
		g, ok := groups[k]
		if !ok {
			g = &group{firstRow: r}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	// A global aggregate over an empty table still yields one row.
	if len(keys) == 0 && len(order) == 0 {
		groups[""] = &group{firstRow: -1}
		order = append(order, "")
	}

	// Build output schema: keys first, then aggregates.
	out := &Table{Name: t.Name}
	for _, ci := range keyIdx {
		out.Columns = append(out.Columns, Column{Name: t.Columns[ci].Name, Kind: t.Columns[ci].Kind})
	}
	for i, a := range aggs {
		kind := KindFloat
		switch a.Func {
		case AggCount, AggCountDistinct:
			kind = KindInt
		case AggMin, AggMax, AggFirst:
			if aggIdx[i] >= 0 {
				kind = t.Columns[aggIdx[i]].Kind
			}
		}
		out.Columns = append(out.Columns, Column{Name: a.outName(), Kind: kind})
	}

	for _, k := range order {
		g := groups[k]
		row := make([]Value, 0, len(keyIdx)+len(aggs))
		for _, ci := range keyIdx {
			row = append(row, t.Columns[ci].Value(g.firstRow))
		}
		for i, a := range aggs {
			row = append(row, computeAgg(t, a.Func, aggIdx[i], g.rows))
		}
		// Bypass AppendRow coercion checks: values are already typed.
		for j := range out.Columns {
			out.Columns[j].Append(row[j])
		}
	}
	return out, nil
}

func computeAgg(t *Table, fn AggFunc, col int, rows []int) Value {
	if fn == AggCount && col < 0 {
		return Int(int64(len(rows)))
	}
	c := &t.Columns[col]
	switch fn {
	case AggCount:
		n := 0
		for _, r := range rows {
			if !c.IsNullAt(r) {
				n++
			}
		}
		return Int(int64(n))
	case AggCountDistinct:
		seen := map[string]bool{}
		for _, r := range rows {
			if !c.IsNullAt(r) {
				seen[c.Value(r).Key()] = true
			}
		}
		return Int(int64(len(seen)))
	case AggFirst:
		for _, r := range rows {
			if !c.IsNullAt(r) {
				return c.Value(r)
			}
		}
		return Null()
	case AggMin, AggMax:
		best := Null()
		for _, r := range rows {
			if c.IsNullAt(r) {
				continue
			}
			v := c.Value(r)
			if best.IsNull() {
				best = v
				continue
			}
			cmp := Compare(v, best)
			if (fn == AggMin && cmp < 0) || (fn == AggMax && cmp > 0) {
				best = v
			}
		}
		return best
	case AggSum, AggAvg, AggStdDev, AggMedian:
		// Typed fast path: read float64s straight out of columnar storage.
		nums := make([]float64, 0, len(rows))
		for _, r := range rows {
			if f, ok := c.FloatAt(r); ok {
				nums = append(nums, f)
			}
		}
		if len(nums) == 0 {
			return Null()
		}
		switch fn {
		case AggSum:
			return Float(sum(nums))
		case AggAvg:
			return Float(sum(nums) / float64(len(nums)))
		case AggStdDev:
			return Float(stddev(nums))
		case AggMedian:
			return Float(median(nums))
		}
	}
	return Null()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

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

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
