package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// when len(xs) is even). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// perOpMedians collapses samples[replay][op] into one value per op: the
// median of that op's value across replays. This is the replay-median
// estimator — a replay that a noisy neighbour slowed down moves no
// op's median as long as fewer than half the replays were hit.
func perOpMedians(samples [][]float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make([]float64, len(samples[0]))
	col := make([]float64, len(samples))
	for i := range out {
		for r := range samples {
			col[r] = samples[r][i]
		}
		out[i] = median(col)
	}
	return out
}

// minBeyond is the sample-count floor for a reported percentile: at
// least this many samples must lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs — the value at
// sorted index ceil(p·n)−1 — and how many samples lie beyond it. It
// fails when fewer than minBeyond do, so a tail is never reported from
// a handful of points.
func percentile(xs []float64, p float64) (value float64, beyond int, err error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// latencySummary is the latency/throughput part of the end-to-end
// metrics, all computed from the per-op medians.
type latencySummary struct {
	P50ms, P95ms    float64
	ThroughputOpsS  float64
	SamplesBeyond95 int
}

// summarize computes p50/p95 and closed-loop throughput (N ÷ Σ per-op
// medians) from per-op median latencies given in seconds.
func summarize(perOpSeconds []float64) (latencySummary, error) {
	p95, beyond, err := percentile(perOpSeconds, 0.95)
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{
		P50ms:           median(perOpSeconds) * 1e3,
		P95ms:           p95 * 1e3,
		ThroughputOpsS:  float64(len(perOpSeconds)) / sum(perOpSeconds),
		SamplesBeyond95: beyond,
	}, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is the CPU time the hypervisor has withheld from this VM
// so far: the steal column of /proc/stat's first line, summed over the
// vCPUs (USER_HZ is 100 on every Linux port). Where the file or the
// column is missing it reads zero and every replay counts as quiet.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100
}

// stealShare is the share of the VM's CPU capacity that was stolen
// over an interval.
func stealShare(stolen, wall time.Duration) float64 {
	return stolen.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}

// maxStealShare is the line between a quiet replay and a disturbed one.
// On the box this was written on a replay runs 5 % slower at 3 % steal,
// 25 % slower at 12 %, and twice as slow at 33 %; episodes of 10-40 %
// come about once in ten minutes and last half a minute to two minutes.
const maxStealShare = 0.04

// quietReplays picks the replays to sample from their steal shares:
// every replay at or under maxStealShare, or — when fewer than floor
// are — the floor least disturbed ones. Indexes come back ascending.
func quietReplays(steal []float64, floor int) []int {
	order := make([]int, len(steal))
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	n := sort.Search(len(order), func(i int) bool { return steal[order[i]] > maxStealShare })
	if n < floor {
		n = min(floor, len(order))
	}
	chosen := order[:n]
	sort.Ints(chosen)
	return chosen
}
