// Command bench is the repository's benchmark: four closed-loop,
// single-client workloads driven through the public entry points, six
// end-to-end metrics per workload computed by replay-median, and a
// traced pass that times the calls into each layer from outside.
// README.md in this directory defines every workload and metric.
//
//	go run -C bench . --workload sql_analytics --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root mirrors endToEnd and perLayer; TestBenchmarkJSONMatches pins that.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share by which the median may worsen
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

var perLayer = []metricDef{
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "layers_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "agent.plan_us", Unit: "us", Better: "lower"},
	{Name: "agent.sql_agent_us", Unit: "us", Better: "lower"},
	{Name: "agent.analysis_agents_us", Unit: "us", Better: "lower"},
	{Name: "agent.chart_agent_us", Unit: "us", Better: "lower"},
	{Name: "agent.insight_agent_us", Unit: "us", Better: "lower"},
	{Name: "agent.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "agent.retry_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.proxy_self_us", Unit: "us", Better: "lower"},
	{Name: "knowledge.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "knowledge.candidates_us", Unit: "us", Better: "lower"},
	{Name: "knowledge.translate_us", Unit: "us", Better: "lower"},
	{Name: "dsl.to_sql_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.ask_query_us", Unit: "us", Better: "lower"},
	{Name: "datalab.answer_assembly_us", Unit: "us", Better: "lower"},
	{Name: "llm.tokens_per_op", Unit: "count", Better: "lower"},
	{Name: "llm.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "sqlengine.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "sqlengine.plan_cache_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "sqlengine.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.scan_filter_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.group_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.join_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.window_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.case_group_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.project_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlengine.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "sqlengine.read_during_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "server.roundtrip_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "server.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "server.cursor_page_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_rows_s", Unit: "1/s", Better: "higher"},
	{Name: "server.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "table.append_rows_s", Unit: "1/s", Better: "higher"},
	{Name: "table.append_us_per_row", Unit: "us", Better: "lower"},
	{Name: "table.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.publish_self_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoints_per_replay", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recovered_rows", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_ms_per_publish", Unit: "ms", Better: "lower"},
}

// replay identifies one pass over the op sequence.
type replay struct {
	Index  int  // 0-based over all passes of the run; perturbs literals
	Traced bool // ops run through tracedOp
	Warm   bool // warm-up: executed and checked, never sampled
}

// workload is one fixed, seed-generated op sequence plus the state it
// runs against. The harness owns timing; the workload owns inputs,
// output checks and its layer arithmetic.
type workload interface {
	numOps() int
	// mutates reports that ops change state, so every replay runs
	// against a fresh build; otherwise one build serves all replays.
	mutates() bool
	// build creates the initial state. Its duration is a setup_s sample.
	build() error
	// teardown releases what build created, or as much of it as a failed
	// build got to.
	teardown()
	// begin prepares replay r (perturbed statements, counter baselines);
	// end verifies and collects after it. Both are untimed.
	begin(r replay) error
	end(r replay) error
	// op executes operation i through the public entry point and checks
	// its output; tracedOp does the same work with spans around the
	// calls into each layer.
	op(i int) error
	tracedOp(i int, tr *tracer) error
	// layers computes the workload's per-layer metrics after a traced run.
	layers(rd *runData) (map[string]float64, error)
	// describe returns the human-readable lines for the report header.
	describe() []string
}

// runData is everything the harness measured in one run.
type runData struct {
	n             int
	setup         []float64   // seconds per build
	latency       [][]float64 // untraced sampled replays: [replay][op] seconds
	tracedReplays int         // traced sampled replays; their timings are the tracer's spans
	cpuPerOp      []float64   // seconds, one per untraced sampled replay
	allocPerOp    []float64   // bytes, one per untraced sampled replay
	steal         []float64   // share of the VM's CPU stolen during each of them
	disturbed     []float64   // steal shares of the replays dropped as disturbed
	tr            *tracer
	attempted     int
	failed        int
	errs          []string // first few distinct op failures
}

// fail counts a failed op and keeps the first few distinct reasons,
// each with the place it was first seen.
func (rd *runData) fail(where string, err error) {
	rd.failed++
	msg := err.Error()
	for _, e := range rd.errs {
		if strings.HasSuffix(e, msg) {
			return
		}
	}
	if len(rd.errs) < 5 {
		rd.errs = append(rd.errs, where+": "+msg)
	}
}

const (
	// sharedBuilds is how many times a read-only workload's state is
	// built to sample setup_s (mutating workloads rebuild every replay).
	sharedBuilds = 5
	// minSampled is the floor on sampled replays of each kind; a per-op
	// median over fewer than three values is just a pick.
	minSampled = 3
	// maxOverrun caps how far past its budget the replay loop runs while
	// it waits for minSampled quiet replays, as a multiple of the budget.
	maxOverrun = 4
)

// dropDisturbed keeps, of the untraced sampled replays, only those the
// hypervisor left alone (see quietReplays).
func (rd *runData) dropDisturbed() {
	keep := quietReplays(rd.steal, minSampled)
	kept := func(xs []float64) []float64 {
		out := make([]float64, len(keep))
		for i, r := range keep {
			out[i] = xs[r]
		}
		return out
	}
	quiet := make([][]float64, len(keep))
	for i, r := range keep {
		quiet[i] = rd.latency[r]
	}
	for r, s := range rd.steal {
		if i := sort.SearchInts(keep, r); i == len(keep) || keep[i] != r {
			rd.disturbed = append(rd.disturbed, s)
		}
	}
	rd.latency, rd.cpuPerOp, rd.allocPerOp, rd.steal = quiet, kept(rd.cpuPerOp), kept(rd.allocPerOp), kept(rd.steal)
}

// runWorkload replays w until the time budget is spent and at least
// minSampled replays ran undisturbed by the hypervisor, or the budget is
// overrun maxOverrun times. Untraced runs are warm-up + sampled replays;
// traced runs alternate untraced and traced replays so both per-op
// times come from one process.
func runWorkload(w workload, seconds float64, traced bool) (*runData, error) {
	rd := &runData{n: w.numOps(), tr: newTracer()}
	timedBuild := func() error {
		t0 := time.Now()
		if err := w.build(); err != nil {
			w.teardown()
			return fmt.Errorf("build: %w", err)
		}
		rd.setup = append(rd.setup, time.Since(t0).Seconds())
		return nil
	}
	if !w.mutates() {
		for i := 0; i < sharedBuilds; i++ {
			if i > 0 {
				w.teardown()
			}
			if err := timedBuild(); err != nil {
				return nil, err
			}
		}
		defer w.teardown()
	}

	start := time.Now()
	lat := make([]float64, rd.n)
	for idx := 0; ; idx++ {
		r := replay{Index: idx}
		if traced {
			r.Traced = idx%2 == 1
			r.Warm = idx < 2
		} else {
			r.Warm = idx == 0
		}
		if w.mutates() {
			if err := timedBuild(); err != nil {
				return nil, err
			}
		}
		if err := w.begin(r); err != nil {
			if w.mutates() {
				w.teardown()
			}
			return nil, fmt.Errorf("replay %d begin: %w", idx, err)
		}
		rd.tr.off = !r.Traced || r.Warm
		spansBefore := len(rd.tr.spans)

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, stolen0, wall0 := cpuTime(), stolenTime(), time.Now()
		for i := 0; i < rd.n; i++ {
			var err error
			t0 := time.Now()
			if r.Traced {
				rd.tr.beginOp(idx, i)
				err = w.tracedOp(i, rd.tr)
			} else {
				err = w.op(i)
			}
			lat[i] = time.Since(t0).Seconds()
			rd.attempted++
			if err != nil {
				rd.fail(fmt.Sprintf("replay %d op %d", idx, i), err)
			}
		}
		cpu, stolen := cpuTime()-cpu0, stealShare(stolenTime()-stolen0, time.Since(wall0))
		runtime.ReadMemStats(&m1)

		if err := w.end(r); err != nil {
			rd.attempted++
			rd.fail(fmt.Sprintf("replay %d verification", idx), err)
		}
		if w.mutates() {
			w.teardown()
		}
		if !r.Warm {
			if r.Traced {
				// A disturbed traced replay is forgotten outright, unless
				// the run is already past its cap and must end.
				if stolen > maxStealShare && time.Since(start).Seconds() < maxOverrun*seconds {
					rd.tr.spans = rd.tr.spans[:spansBefore]
				} else {
					rd.tracedReplays++
				}
			} else {
				rd.latency = append(rd.latency, append([]float64(nil), lat...))
				rd.cpuPerOp = append(rd.cpuPerOp, cpu.Seconds()/float64(rd.n))
				rd.allocPerOp = append(rd.allocPerOp, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(rd.n))
				rd.steal = append(rd.steal, stolen)
			}
		}
		sampled := len(rd.latency) >= minSampled && (!traced || rd.tracedReplays >= minSampled)
		quiet := len(quietReplays(rd.steal, 0)) >= minSampled
		elapsed := time.Since(start).Seconds()
		if sampled && (quiet && elapsed >= seconds || elapsed >= maxOverrun*seconds) {
			rd.dropDisturbed()
			return rd, nil
		}
	}
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, and one entry of an -out file.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndMetrics computes the six end-to-end metrics from a run.
func endToEndMetrics(rd *runData) (map[string]float64, latencySummary, error) {
	ls, err := summarize(perOpMedians(rd.latency))
	if err != nil {
		return nil, ls, err
	}
	return map[string]float64{
		"setup_s":          median(rd.setup),
		"latency_p50_ms":   ls.P50ms,
		"latency_p95_ms":   ls.P95ms,
		"throughput_ops_s": ls.ThroughputOpsS,
		"cpu_ms_per_op":    median(rd.cpuPerOp) * 1e3,
		"alloc_mb_per_op":  median(rd.allocPerOp) / 1e6,
	}, ls, nil
}

// benchOne runs one workload and prints its report; the returned result
// is what the final JSON line carries.
func benchOne(name string, seed int64, seconds float64, traced bool) (result, error) {
	newW, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	t0 := time.Now()
	w, err := newW(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s: generating inputs: %w", name, err)
	}
	fmt.Printf("== %s (seed %d, %.0f s, trace %v) — inputs generated in %.2f s\n", name, seed, seconds, traced, time.Since(t0).Seconds())
	for _, l := range w.describe() {
		fmt.Println("  " + l)
	}
	rd, err := runWorkload(w, seconds, traced)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	e2e, ls, err := endToEndMetrics(rd)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("  replays: 1 warm-up + %d sampled", len(rd.latency))
	if traced {
		fmt.Printf(" untraced, 1 warm-up + %d sampled traced", rd.tracedReplays)
	}
	fmt.Printf("; %d ops each; p95 has %d samples beyond it; %d builds\n", rd.n, ls.SamplesBeyond95, len(rd.setup))
	fmt.Print("  sampled replay times (s) @ steal share:")
	for r, lat := range rd.latency {
		fmt.Printf(" %.3f@%.3f", sum(lat), rd.steal[r])
	}
	fmt.Printf("; replay-median %.3f\n", sum(perOpMedians(rd.latency)))
	if len(rd.disturbed) > 0 {
		fmt.Printf("  dropped %d replays the hypervisor disturbed, steal shares %.3f\n", len(rd.disturbed), rd.disturbed)
	}
	if len(quietReplays(rd.steal, 0)) < len(rd.steal) {
		fmt.Printf("  NOTE: fewer than %d replays stayed under %.0f %% steal within %d x the budget; the least disturbed are sampled, so timings read high\n",
			minSampled, maxStealShare*100, maxOverrun)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", rd.attempted, rd.failed)
	for _, e := range rd.errs {
		fmt.Println("  FAILED: " + e)
	}

	res := result{Correct: rd.failed == 0, Attempted: rd.attempted, Failed: rd.failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, e2e
	if traced {
		// The untraced half of a traced run still yields end-to-end
		// numbers; print them for orientation, report the layers.
		for _, d := range endToEnd {
			fmt.Printf("  (%-22s %12.4f %s)\n", d.Name, e2e[d.Name], d.Unit)
		}
		defs = perLayer
		if vals, err = w.layers(rd); err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		// Every tracedOp wraps the work op does in one root span named
		// "op"; probes that only the traced pass runs sit outside it.
		vals["trace_overhead_share"] = sum(rd.tr.perOp(rd.n, false, "op"))/sum(perOpMedians(rd.latency)) - 1
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := rd.tr.writeFile(path); err != nil {
			return result{}, fmt.Errorf("%s: writing spans: %w", name, err)
		}
		fmt.Printf("  %d spans written to bench/%s\n", len(rd.tr.spans), path)
	}
	for _, d := range defs {
		v := vals[d.Name] // a layer the workload never enters spends zero there
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		if _, measured := vals[d.Name]; measured {
			fmt.Printf("  %-38s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	return res, nil
}

// outDir holds span files and per-replay data directories. The command
// runs with bench/ as its working directory (go run -C bench), so this
// is bench/out, which .gitignore names.
const outDir = "out"

var workloads = map[string]func(seed int64) (workload, error){
	"ask_enterprise": newAskEnterprise,
	"sql_analytics":  newSQLAnalytics,
	"wire_mixed":     newWireMixed,
	"ingest_wal":     newIngestWAL,
}

// workloadOrder is the order of --workload all.
var workloadOrder = []string{"ask_enterprise", "sql_analytics", "wire_mixed", "ingest_wal"}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   bool              `json:"trace"`
	Results map[string]result `json:"results"` // by workload name
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: ask_enterprise, sql_analytics, wire_mixed, ingest_wal or all")
		seed    = flag.Int64("seed", 1, "seed for the generated tables, literals and op order")
		seconds = flag.Float64("seconds", 20, "time budget of the replay loop, per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		out     = flag.String("out", "", "also write the results to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric is outside its bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	os.Exit(run(*name, *seed, *seconds, *trace == 1, *out))
}

func run(name string, seed int64, seconds float64, traced bool, out string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("bench: %s %s/%s, nproc %d, GOMAXPROCS %d, commit %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), commit())
	fmt.Println("bench: closed loop, 1 client goroutine, 1 HTTP connection; wal fsync policy off; replay-median over per-op latencies")
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	}
	file := resultFile{Seed: seed, Seconds: seconds, Trace: traced, Results: map[string]result{}}
	code := 0
	for _, n := range names {
		res, err := benchOne(n, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
		file.Results[n] = res
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return code
}
