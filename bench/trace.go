package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation share (Replay, Op); Parent is
// the ID of the span that was open when this one started, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Replay  int    `json:"replay"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Count is a work count taken at the same boundary (rows, bytes,
	// retry attempt); its meaning is fixed per span name in README.md.
	Count int64 `json:"count,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory; the load generator is one goroutine, so
// the open-span stack needs no lock. While off, start/finish do nothing,
// which is how the traced warm-up replay is discarded.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	replay int
	op     int
	off    bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), off: true} }

func (t *tracer) beginOp(replay, op int) {
	t.replay, t.op = replay, op
	t.stack = t.stack[:0]
}

// start opens a span under the innermost open one and returns its ID
// (-1 while the tracer is off).
func (t *tracer) start(name string) int {
	if t.off {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Replay: t.replay, Op: t.op, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

// finish closes span id, which must be the innermost open span.
func (t *tracer) finish(id int) {
	if id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// finishCount is finish plus the boundary's work count.
func (t *tracer) finishCount(id int, count int64) {
	if id < 0 {
		return
	}
	t.finish(id)
	t.spans[id].Count = count
}

// replays lists the distinct replay indexes that recorded spans.
func (t *tracer) replays() []int {
	var out []int
	seen := map[int]bool{}
	for i := range t.spans {
		if r := t.spans[i].Replay; !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// perOp returns one value per op: the median across traced replays of
// the op's total time in spans called name. With self set, each
// span contributes its self time — duration minus the part covered by
// its direct children. An op with no matching span in a replay
// contributes zero for that replay (a simple question runs no chart
// agent), so means over ops stay additive across layers.
func (t *tracer) perOp(nOps int, self bool, name string) []float64 {
	var childSeconds []float64
	if self {
		childSeconds = make([]float64, len(t.spans))
		for i := range t.spans {
			if p := t.spans[i].Parent; p >= 0 {
				childSeconds[p] += t.spans[i].seconds()
			}
		}
	}
	replays := t.replays()
	row := map[int]int{}
	for i, r := range replays {
		row[r] = i
	}
	samples := make([][]float64, len(replays))
	for i := range samples {
		samples[i] = make([]float64, nOps)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		d := s.seconds()
		if self {
			d -= childSeconds[i]
		}
		samples[row[s.Replay]][s.Op] += d
	}
	return perOpMedians(samples)
}

// mean is Σ/N over ops of perOp: layer means stay additive.
func (t *tracer) mean(nOps int, self bool, name string) float64 {
	return sum(t.perOp(nOps, self, name)) / float64(nOps)
}

// durations returns every recorded duration (seconds) of the named spans.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].seconds())
		}
	}
	return out
}

// counts returns the Count of every recorded span with that name.
func (t *tracer) counts(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].Count))
		}
	}
	return out
}

// writeFile dumps the spans as JSONL, one span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
