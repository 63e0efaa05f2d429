package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// worsening returns by what share of a the value b is worse than a, in
// the metric's own direction: positive means b regressed, negative
// means b improved.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, for every workload × end-to-end metric present
// in both -out files, both values, how much worse b is than a, and
// whether that is inside the metric's bound. Per-layer metrics have no
// bound and are printed with their difference only. It reports whether
// everything was inside its bound. This is the repeatability check, so
// it is symmetric: two runs of the same code that differ by more than
// the bound in either direction mean the metric cannot resolve the
// bound. The two files must come from runs with the same seed, seconds
// and trace setting.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return false, fmt.Errorf("runs differ in settings: seed %d/%d, seconds %g/%g, trace %v/%v",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Trace, b.Trace)
	}
	defs := endToEnd
	if a.Trace {
		defs = perLayer
	}
	ok := true
	fmt.Fprintf(out, "%-15s %-38s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, name := range workloadOrder {
		ra, inA := a.Results[name]
		rb, inB := b.Results[name]
		if !inA || !inB {
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "%-15s ops_failed %d vs %d: OUTSIDE (must be 0)\n", name, ra.Failed, rb.Failed)
		}
		for _, d := range defs {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if va == 0 && vb == 0 {
				continue // a layer this workload never enters
			}
			w := worsening(d, va, vb)
			verdict := ""
			if d.Bound > 0 {
				verdict = fmt.Sprintf("%6.0f%% inside", d.Bound*100)
				if math.Abs(w) > d.Bound {
					verdict = fmt.Sprintf("%6.0f%% OUTSIDE", d.Bound*100)
					ok = false
				}
			}
			fmt.Fprintf(out, "%-15s %-38s %14.4f %14.4f %+8.1f%% %s\n", name, d.Name, va, vb, w*100, verdict)
		}
	}
	return ok, nil
}
