// Package viz models the visualization layer: a Vega-Lite-style chart
// specification, validation, data binding ("rendering"), and a readability
// scorer. It is the substrate for Chart cells, the NL2VIS task, and the
// VisEval-style metrics.
package viz

import (
	"encoding/json"
	"fmt"

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
	Field string    `json:"field"`
	Type  FieldType `json:"type"`
	Sort  string    `json:"sort,omitempty"` // "ascending", "descending", ""
}

// Spec is a chart specification, structurally a subset of Vega-Lite.
// Encoding sort directives and Limit are display directives carried in
// the chart JSON; the SQL the spec was compiled with already applied them.
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
// channels appropriate to the mark. This is the legality check VisEval's
// pass-rate measures.
func (s *Spec) Validate() error {
	if !ValidMark(s.Mark) {
		return fmt.Errorf("viz: unknown mark %q", s.Mark)
	}
	if len(s.Encoding) == 0 {
		return fmt.Errorf("viz: spec has no encodings")
	}
	for ch, enc := range s.Encoding {
		if enc == nil || enc.Field == "" {
			return fmt.Errorf("viz: channel %q has no field", ch)
		}
		switch enc.Type {
		case Quantitative, Nominal, Ordinal, Temporal, "":
		default:
			return fmt.Errorf("viz: channel %q has invalid type %q", ch, enc.Type)
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

// Render binds the spec to t, the result of the spec's SQL: that query
// already aggregated, sorted and limited the rows, so each channel presents
// its field's column as is, row for row.
func Render(s *Spec, t *table.Table) (*Rendered, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := &Rendered{Mark: s.Mark, Series: map[string][]table.Value{}}
	for _, ch := range channelOrder {
		enc := s.Encoding[ch]
		if enc == nil {
			continue
		}
		col := t.Column(enc.Field)
		if col == nil {
			return nil, fmt.Errorf("viz: field %q not in data", enc.Field)
		}
		out.Series[ch] = col.Values()
	}
	return out, nil
}

// EqualRendered reports execution equivalence of two rendered charts: same
// mark and the same multiset of (x, y, ...) row tuples across channels.
// Row order is ignored.
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
				kb = table.AppendKey(kb, r.Series[ch][i])
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
