// Package viz models the visualization layer: a Vega-Lite-style chart
// specification, validation, data binding ("rendering"), and a readability
// scorer. It is the substrate for Chart cells, the NL2VIS task, and the
// VisEval-style metrics.
package viz

import (
	"encoding/json"
	"fmt"
	"strings"

	"datalab/internal/table"
)

// Mark enumerates the supported chart mark types.
type Mark string

// Supported marks.
const (
	MarkBar     Mark = "bar"
	MarkLine    Mark = "line"
	MarkPoint   Mark = "point" // scatter
	MarkArc     Mark = "arc"   // pie
	MarkArea    Mark = "area"
	MarkBoxplot Mark = "boxplot"
)

// ValidMark reports whether m is a known mark.
func ValidMark(m Mark) bool {
	switch m {
	case MarkBar, MarkLine, MarkPoint, MarkArc, MarkArea, MarkBoxplot:
		return true
	}
	return false
}

// FieldType is the Vega-Lite encoding field type.
type FieldType string

// Supported encoding field types.
const (
	Quantitative FieldType = "quantitative"
	Nominal      FieldType = "nominal"
	Ordinal      FieldType = "ordinal"
	Temporal     FieldType = "temporal"
)

// Encoding binds one visual channel to a data field.
type Encoding struct {
	Field     string    `json:"field"`
	Type      FieldType `json:"type"`
	Aggregate string    `json:"aggregate,omitempty"` // sum, mean, count, ...
	Sort      string    `json:"sort,omitempty"`      // "ascending", "descending", ""
}

// Spec is a chart specification, structurally a subset of Vega-Lite.
type Spec struct {
	Title    string               `json:"title,omitempty"`
	Mark     Mark                 `json:"mark"`
	Encoding map[string]*Encoding `json:"encoding"`       // channels: x, y, color, theta, size
	Data     string               `json:"data,omitempty"` // source table / variable name
	Limit    int                  `json:"limit,omitempty"`
}

// Channels in canonical order for deterministic rendering.
var channelOrder = []string{"x", "y", "theta", "color", "size"}

// Validate checks structural legality: known mark, at least one channel,
// channels appropriate to the mark, aggregate names valid. This is the
// legality check VisEval's pass-rate measures.
func (s *Spec) Validate() error {
	if !ValidMark(s.Mark) {
		return fmt.Errorf("viz: unknown mark %q", s.Mark)
	}
	if len(s.Encoding) == 0 {
		return fmt.Errorf("viz: spec has no encodings")
	}
	for ch, enc := range s.Encoding {
		if enc == nil || enc.Field == "" && enc.Aggregate != "count" {
			return fmt.Errorf("viz: channel %q has no field", ch)
		}
		switch enc.Type {
		case Quantitative, Nominal, Ordinal, Temporal, "":
		default:
			return fmt.Errorf("viz: channel %q has invalid type %q", ch, enc.Type)
		}
		switch enc.Aggregate {
		case "", "sum", "mean", "avg", "count", "min", "max", "median":
		default:
			return fmt.Errorf("viz: channel %q has invalid aggregate %q", ch, enc.Aggregate)
		}
		known := false
		for _, c := range channelOrder {
			if ch == c {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("viz: unknown channel %q", ch)
		}
	}
	switch s.Mark {
	case MarkArc:
		if s.Encoding["theta"] == nil {
			return fmt.Errorf("viz: arc (pie) requires a theta channel")
		}
		if s.Encoding["color"] == nil {
			return fmt.Errorf("viz: arc (pie) requires a color channel")
		}
	default:
		if s.Encoding["x"] == nil || s.Encoding["y"] == nil {
			return fmt.Errorf("viz: %s requires x and y channels", s.Mark)
		}
	}
	return nil
}

// JSON renders the spec as its canonical JSON form.
func (s *Spec) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// ParseSpec parses a JSON chart spec.
func ParseSpec(raw string) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		return nil, fmt.Errorf("viz: bad spec JSON: %w", err)
	}
	return &s, nil
}

// Rendered is the result of binding a spec to data: the values each channel
// presents, which is what nvBench-style execution accuracy compares.
type Rendered struct {
	Mark   Mark
	Series map[string][]table.Value // channel -> presented values
}

// Render binds the spec to a table: applies aggregation implied by the
// encodings, sorting, and limit, then extracts per-channel value series.
func Render(s *Spec, t *table.Table) (*Rendered, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	work := t

	// Aggregate if any channel requests it: group by all non-aggregated
	// encoded fields and aggregate the rest.
	var groupKeys []string
	var aggs []table.Aggregation
	hasAgg := false
	for _, ch := range channelOrder {
		enc := s.Encoding[ch]
		if enc == nil {
			continue
		}
		if enc.Aggregate != "" {
			hasAgg = true
		}
	}
	if hasAgg {
		outName := map[string]string{}
		for _, ch := range channelOrder {
			enc := s.Encoding[ch]
			if enc == nil {
				continue
			}
			if enc.Aggregate == "" {
				if work.ColumnIndex(enc.Field) < 0 {
					return nil, fmt.Errorf("viz: field %q not in data", enc.Field)
				}
				groupKeys = append(groupKeys, enc.Field)
				outName[ch] = enc.Field
				continue
			}
			fn, err := aggFunc(enc.Aggregate)
			if err != nil {
				return nil, err
			}
			col := enc.Field
			if col == "" { // count over rows
				col = "*"
			}
			name := fmt.Sprintf("%s_%s_%s", enc.Aggregate, ch, col)
			name = strings.ReplaceAll(name, "*", "rows")
			aggs = append(aggs, table.Aggregation{Func: fn, Column: col, As: name})
			outName[ch] = name
		}
		g, err := work.GroupBy(dedupe(groupKeys), aggs)
		if err != nil {
			return nil, err
		}
		work = g
		// Rebind encodings to aggregate output columns.
		rebound := map[string]*Encoding{}
		for ch, enc := range s.Encoding {
			cp := *enc
			cp.Field = outName[ch]
			cp.Aggregate = ""
			rebound[ch] = &cp
		}
		s = &Spec{Title: s.Title, Mark: s.Mark, Encoding: rebound, Data: s.Data, Limit: s.Limit}
	}

	// Sorting: honor the first channel with a sort directive.
	for _, ch := range channelOrder {
		enc := s.Encoding[ch]
		if enc == nil || enc.Sort == "" {
			continue
		}
		sorted, err := work.Sort(table.SortKey{Column: enc.Field, Desc: enc.Sort == "descending"})
		if err != nil {
			return nil, err
		}
		work = sorted
		break
	}
	if s.Limit > 0 {
		work = work.Limit(s.Limit)
	}

	out := &Rendered{Mark: s.Mark, Series: map[string][]table.Value{}}
	for _, ch := range channelOrder {
		enc := s.Encoding[ch]
		if enc == nil {
			continue
		}
		col := work.Column(enc.Field)
		if col == nil {
			return nil, fmt.Errorf("viz: field %q not in data", enc.Field)
		}
		out.Series[ch] = col.Values()
	}
	return out, nil
}

func aggFunc(name string) (table.AggFunc, error) {
	switch name {
	case "sum":
		return table.AggSum, nil
	case "mean", "avg":
		return table.AggAvg, nil
	case "count":
		return table.AggCount, nil
	case "min":
		return table.AggMin, nil
	case "max":
		return table.AggMax, nil
	case "median":
		return table.AggMedian, nil
	}
	return 0, fmt.Errorf("viz: unknown aggregate %q", name)
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	out := xs[:0:0]
	for _, x := range xs {
		k := strings.ToLower(x)
		if !seen[k] {
			seen[k] = true
			out = append(out, x)
		}
	}
	return out
}

// EqualRendered reports execution equivalence of two rendered charts: same
// mark and, per channel, the same multiset of (x, y, ...) tuples. Row order
// is ignored unless both sides carry an explicit sort (nvBench semantics).
func EqualRendered(a, b *Rendered) bool {
	if a.Mark != b.Mark {
		return false
	}
	if len(a.Series) != len(b.Series) {
		return false
	}
	// Build row tuples across channels in canonical order.
	tupleSet := func(r *Rendered) (map[string]int, int, bool) {
		var chans []string
		for _, ch := range channelOrder {
			if _, ok := r.Series[ch]; ok {
				chans = append(chans, ch)
			}
		}
		n := -1
		for _, ch := range chans {
			if n == -1 {
				n = len(r.Series[ch])
			} else if n != len(r.Series[ch]) {
				return nil, 0, false
			}
		}
		set := map[string]int{}
		var kb []byte
		for i := 0; i < n; i++ {
			kb = kb[:0]
			for _, ch := range chans {
				kb = table.AppendKeyPart(kb, r.Series[ch][i])
			}
			set[string(kb)]++
		}
		return set, n, true
	}
	sa, na, oka := tupleSet(a)
	sb, nb, okb := tupleSet(b)
	if !oka || !okb || na != nb {
		return false
	}
	for k, v := range sa {
		if sb[k] != v {
			return false
		}
	}
	return true
}

// Readability scores a spec+data pairing on a 1-5 scale, mimicking the
// GPT-4V readability judgment in VisEval: it rewards titled charts,
// appropriate mark/type pairings, and modest category counts, and
// penalizes overplotting.
func Readability(s *Spec, rendered *Rendered) float64 {
	score := 3.0
	if s.Title != "" {
		score += 0.4
	}
	// Appropriate mark for data shape.
	n := 0
	for _, vals := range rendered.Series {
		if len(vals) > n {
			n = len(vals)
		}
	}
	switch s.Mark {
	case MarkArc:
		if n <= 8 {
			score += 0.4
		} else {
			score -= 1.0 // unreadable pie
		}
	case MarkBar:
		if n <= 30 {
			score += 0.3
		} else {
			score -= 0.5
		}
	case MarkLine, MarkArea:
		if x := s.Encoding["x"]; x != nil && x.Type == Temporal {
			score += 0.4
		}
	case MarkPoint:
		if n > 2000 {
			score -= 0.5
		} else {
			score += 0.2
		}
	}
	// Axis typing sanity: quantitative y for aggregating charts.
	if y := s.Encoding["y"]; y != nil && y.Type == Quantitative {
		score += 0.2
	}
	if score < 1 {
		score = 1
	}
	if score > 5 {
		score = 5
	}
	return score
}
