package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPerOpMedians(t *testing.T) {
	cases := []struct {
		name    string
		samples [][]float64 // [replay][op]
		want    []float64
	}{
		{"no replays", nil, nil},
		{"one replay", [][]float64{{1, 2, 3}}, []float64{1, 2, 3}},
		{"odd replays pick the middle per op", [][]float64{{1, 9, 5}, {3, 7, 5}, {2, 8, 50}}, []float64{2, 8, 5}},
		{"even replays average the middle pair", [][]float64{{1, 10}, {3, 30}, {2, 20}, {4, 40}}, []float64{2.5, 25}},
	}
	for _, c := range cases {
		if got := perOpMedians(c.samples); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// ramp returns 1, 2, ..., n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileIndexAndFloor(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want       float64 // on ramp(n): the value equals its 1-based rank
		wantBeyond int
		wantErr    bool
	}{
		{480, 0.95, 456, 24, false}, // ceil(456.0) = 456
		{490, 0.95, 466, 24, false}, // ceil(465.5) = 466
		{500, 0.95, 475, 25, false},
		{200, 0.95, 190, 10, false}, // exactly at the floor
		{199, 0.95, 0, 9, true},     // one short of it
		{20, 0.95, 0, 1, true},
		{500, 0.99, 0, 5, true}, // p99 of 500 has only 5 beyond: refused
		{500, 0.50, 250, 250, false},
	}
	for _, c := range cases {
		got, beyond, err := percentile(ramp(c.n), c.p)
		if (err != nil) != c.wantErr {
			t.Errorf("percentile(n=%d, p=%g) error = %v, wantErr %v", c.n, c.p, err, c.wantErr)
			continue
		}
		if beyond != c.wantBeyond {
			t.Errorf("percentile(n=%d, p=%g) beyond = %d, want %d", c.n, c.p, beyond, c.wantBeyond)
		}
		if err == nil && got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// Input order must not matter.
	xs := ramp(480)
	xs[0], xs[479] = xs[479], xs[0]
	if got, _, _ := percentile(xs, 0.95); got != 456 {
		t.Errorf("percentile of unsorted input = %v, want 456", got)
	}
}

func TestSummarizeThroughputFromMedians(t *testing.T) {
	// 400 ops of 2 ms and 100 of 12 ms: Σ = 2.0 s, so 250 ops/s.
	perOp := make([]float64, 500)
	for i := range perOp {
		perOp[i] = 0.002
		if i%5 == 4 {
			perOp[i] = 0.012
		}
	}
	got, err := summarize(perOp)
	if err != nil {
		t.Fatal(err)
	}
	want := latencySummary{P50ms: 2, P95ms: 12, ThroughputOpsS: 250, SamplesBeyond95: 25}
	if math.Abs(got.P50ms-want.P50ms) > 1e-9 || math.Abs(got.P95ms-want.P95ms) > 1e-9 ||
		math.Abs(got.ThroughputOpsS-want.ThroughputOpsS) > 1e-9 || got.SamplesBeyond95 != want.SamplesBeyond95 {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if _, err := summarize(perOp[:100]); err == nil {
		t.Error("summarize accepted 100 ops: p95 would rest on 5 samples")
	}
}

// One of seven replays running 3× slower — a noisy neighbour — must
// leave every reported metric exactly where it was, whichever replay
// it hits.
func TestSlowReplayChangesNothing(t *testing.T) {
	const replays, ops = 7, 480
	build := func(slow int) *runData {
		rd := &runData{n: ops}
		for r := 0; r < replays; r++ {
			factor := 1.0
			if r == slow {
				factor = 3
			}
			lat := make([]float64, ops)
			for i := range lat {
				lat[i] = factor * 0.001 * float64(1+i%7) // seven op classes, 1-7 ms
			}
			rd.latency = append(rd.latency, lat)
			rd.cpuPerOp = append(rd.cpuPerOp, factor*0.004)
			rd.allocPerOp = append(rd.allocPerOp, 1.5e6)
			rd.setup = append(rd.setup, factor*0.5)
		}
		return rd
	}
	quiet, _, err := endToEndMetrics(build(-1))
	if err != nil {
		t.Fatal(err)
	}
	for slow := 0; slow < replays; slow++ {
		noisy, _, err := endToEndMetrics(build(slow))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(noisy, quiet) {
			t.Errorf("slow replay %d moved the metrics: %v -> %v", slow, quiet, noisy)
		}
	}
	// The mean replay time did move, by 2/7: the estimator is what
	// absorbs the slow replay, not the test data.
	rd := build(0)
	mean := 0.0
	for _, lat := range rd.latency {
		mean += sum(lat) / replays
	}
	if replayMedian := sum(perOpMedians(rd.latency)); mean/replayMedian < 1.25 {
		t.Errorf("test is not discriminating: mean replay time %v vs replay-median %v", mean, replayMedian)
	}
}

func TestQuietReplays(t *testing.T) {
	cases := []struct {
		name  string
		steal []float64
		floor int
		want  []int
	}{
		{"all quiet", []float64{0, 0.01, 0.04, 0.002}, 3, []int{0, 1, 2, 3}},
		{"disturbed ones dropped", []float64{0.01, 0.2, 0.03, 0.35, 0, 0.05}, 3, []int{0, 2, 4}},
		{"too few quiet: least disturbed fill the floor", []float64{0.3, 0.01, 0.12, 0.2, 0.08}, 3, []int{1, 2, 4}},
		{"none quiet", []float64{0.3, 0.25, 0.12, 0.2}, 3, []int{1, 2, 3}},
		{"fewer replays than the floor", []float64{0.3, 0.25}, 3, []int{0, 1}},
		{"floor 0 counts the quiet ones", []float64{0.3, 0.01, 0.2}, 0, []int{1}},
		{"no steal column: everything is quiet", []float64{0, 0, 0}, 3, []int{0, 1, 2}},
	}
	for _, c := range cases {
		if got := quietReplays(c.steal, c.floor); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDropDisturbedKeepsReplaysAligned(t *testing.T) {
	rd := &runData{
		latency:    [][]float64{{1}, {2}, {3}, {4}, {5}},
		cpuPerOp:   []float64{10, 20, 30, 40, 50},
		allocPerOp: []float64{100, 200, 300, 400, 500},
		steal:      []float64{0.01, 0.3, 0.02, 0.15, 0},
	}
	rd.dropDisturbed()
	want := &runData{
		latency:    [][]float64{{1}, {3}, {5}},
		cpuPerOp:   []float64{10, 30, 50},
		allocPerOp: []float64{100, 300, 500},
		steal:      []float64{0.01, 0.02, 0},
		disturbed:  []float64{0.3, 0.15},
	}
	if !reflect.DeepEqual(rd, want) {
		t.Errorf("got %+v, want %+v", rd, want)
	}
}

func TestTracerSelfTimeAndPerOp(t *testing.T) {
	// Two replays of two ops. Op 0: parent 10 with children 3 and 4
	// (self 3). Op 1 has no "child" span at all.
	tr := &tracer{}
	add := func(replay, op int, name string, parent int, start, end int64) int {
		id := len(tr.spans)
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Replay: replay, Op: op, Name: name, StartNs: start, EndNs: end})
		return id
	}
	for _, r := range []int{2, 4} {
		scale := int64(r) // replay 4 is twice as slow as replay 2
		p := add(r, 0, "parent", -1, 0, 10e9*scale)
		add(r, 0, "child", p, 1e9*scale, 4e9*scale)
		add(r, 0, "child", p, 5e9*scale, 9e9*scale)
		add(r, 1, "parent", -1, 0, 2e9*scale)
	}
	if got, want := tr.perOp(2, false, "parent"), []float64{30, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("perOp(parent) = %v, want %v (median of two = their mean)", got, want)
	}
	if got, want := tr.perOp(2, true, "parent"), []float64{9, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("perOp(parent, self) = %v, want %v", got, want)
	}
	if got, want := tr.perOp(2, false, "child"), []float64{21, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("perOp(child) = %v, want %v (both children summed; absent = 0)", got, want)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower"}
	higher := metricDef{Name: "throughput", Better: "higher"}
	cases := []struct {
		d    metricDef
		a, b float64
		want float64
	}{
		{lower, 10, 11, 0.1},
		{lower, 10, 9, -0.1},
		{higher, 200, 180, 0.1},
		{higher, 200, 220, -0.1},
		{lower, 0, 5, 0},
	}
	for _, c := range cases {
		if got := worsening(c.d, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go are
// what the program prints. They must name the same metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program has %v", names, workloadOrder)
	}
	for _, n := range workloadOrder {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %q has no constructor", n)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
