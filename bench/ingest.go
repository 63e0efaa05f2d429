package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"datalab"
	"datalab/internal/server"
)

// ingest_wal: streaming appends into a durable platform with grouped
// reads over the growing table. internal/table's appender and
// internal/wal's codec and checkpointer do the work; the reads use the
// scan path differently from sql_analytics (many small chunks, a moving
// snapshot). The flush policy is "off" on both sides of every
// comparison: with "always" throughput follows the shared disk's flush
// time, so fsync cost is a layer number instead.
const (
	ingestBaseRows   = 100_000
	ingestBatchRows  = 1000
	ingestCycles     = 60 // each: ingestAppendsPer append ops, then one read
	ingestAppendsPer = 7
	ingestCheckpoint = 2 << 20 // bytes of log between automatic checkpoints
)

var ingestKinds = []string{"view", "click", "buy"} // server.LoadDemo's kinds

type ingestOp struct {
	rows    [][]string // append op: the batch; nil for a read
	visible int        // table size after this op
	// Read op: per-kind COUNT and SUM(value) over ids [0, visible).
	n     [3]int
	total [3]float64
}

type ingestWAL struct {
	ops       []ingestOp
	base      [][]string
	baseKind  []int     // first replayShiftMax base rows, for the
	baseValue []float64 // part of [0, visible) a shifted read skips
	userBytes int       // bytes of appended cells per replay

	dir  string
	opts datalab.DurabilityOptions
	p    *datalab.Platform
	in   *datalab.Ingestor
	twin *datalab.Ingestor // traced pass: memory-only platform fed the same rows

	shift     int
	readSQL   string
	walBytes0 int64
	ckpts0    int64

	walBytesPerUserByte []float64
	checkpoints         []float64
	recoverMs           []float64
	recoveredRows       []float64
	checkpointMs        []float64
}

func newIngestWAL(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &ingestWAL{
		base: server.DemoRecords(0, ingestBaseRows),
		opts: datalab.DurabilityOptions{Fsync: "off", CheckpointBytes: ingestCheckpoint},
	}
	kindIndex := map[string]int{}
	for k, name := range ingestKinds {
		kindIndex[name] = k
	}
	var n [3]int
	var total [3]float64
	for i, rec := range w.base {
		k := kindIndex[rec[1]]
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, err
		}
		n[k]++
		total[k] += v
		if i < replayShiftMax {
			w.baseKind = append(w.baseKind, k)
			w.baseValue = append(w.baseValue, v)
		}
	}
	visible := ingestBaseRows
	for c := 0; c < ingestCycles; c++ {
		for a := 0; a < ingestAppendsPer; a++ {
			rows := make([][]string, ingestBatchRows)
			for j := range rows {
				k, cents := rng.Intn(len(ingestKinds)), rng.Intn(10000)
				rows[j] = []string{strconv.Itoa(visible + j), ingestKinds[k], strconv.FormatFloat(float64(cents)/100, 'f', 2, 64)}
				n[k]++
				total[k] += float64(cents) / 100
				for _, cell := range rows[j] {
					w.userBytes += len(cell)
				}
			}
			visible += ingestBatchRows
			w.ops = append(w.ops, ingestOp{rows: rows, visible: visible})
		}
		w.ops = append(w.ops, ingestOp{visible: visible, n: n, total: total})
	}
	return w, nil
}

func (w *ingestWAL) numOps() int   { return len(w.ops) }
func (w *ingestWAL) mutates() bool { return true }

func (w *ingestWAL) describe() []string {
	return []string{
		fmt.Sprintf("OpenDurable(fsync %q, checkpoint every %d MiB) with a %d-row events table, fresh data directory per replay", w.opts.Fsync, ingestCheckpoint>>20, ingestBaseRows),
		fmt.Sprintf("%d ops: %d cycles of %d x (Append x %d + PublishErr) then one grouped read; %d rows appended per replay; reopen-and-compare after every replay",
			len(w.ops), ingestCycles, ingestAppendsPer, ingestBatchRows, ingestCycles*ingestAppendsPer*ingestBatchRows),
	}
}

func (w *ingestWAL) build() error {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	w.dir = dir
	return w.open(w.opts, true)
}

// open opens w.dir durably; load registers the base table (a fresh
// directory), otherwise the table is expected to come back by recovery.
func (w *ingestWAL) open(opts datalab.DurabilityOptions, load bool) error {
	p, err := datalab.OpenDurable(w.dir, opts)
	if err != nil {
		return err
	}
	w.p = p
	if load {
		if err := p.LoadRecords("events", server.DemoColumns, w.base); err != nil {
			return err
		}
	}
	w.in, err = p.Ingest("events")
	return err
}

func (w *ingestWAL) teardown() {
	if w.p != nil {
		w.p.Close() // a failed replay may leave it open; Close is safe to call twice
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.dir, w.p, w.in, w.twin = "", nil, nil, nil
}

func (w *ingestWAL) begin(r replay) error {
	w.shift = r.Index % replayShiftMax
	w.readSQL = fmt.Sprintf("SELECT kind, COUNT(*) AS n, SUM(value) AS total FROM events WHERE id >= %d GROUP BY kind", w.shift)
	st := w.p.DurabilityStats()
	w.walBytes0, w.ckpts0 = st.WALBytes, st.Checkpoints
	if r.Traced {
		twin, err := datalab.New()
		if err != nil {
			return err
		}
		if err := twin.LoadRecords("events", server.DemoColumns, w.base); err != nil {
			return err
		}
		if w.twin, err = twin.Ingest("events"); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWAL) appendBatch(in *datalab.Ingestor, op *ingestOp) error {
	for _, row := range op.rows {
		if err := in.Append(row...); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWAL) publish(in *datalab.Ingestor, op *ingestOp) error {
	visible, err := in.PublishErr()
	if err != nil {
		return err
	}
	return wantField("rows visible after publish", visible, op.visible)
}

// read runs the grouped read and compares it with the running totals
// the generator kept, less the first w.shift ids the predicate skips.
func (w *ingestWAL) read(op *ingestOp) error {
	res, err := w.p.QueryCtx(context.Background(), w.readSQL)
	if err != nil {
		return err
	}
	rows, checksum, err := checksumResult(res)
	if err != nil {
		return err
	}
	n, total := op.n, op.total
	for i := 0; i < w.shift; i++ {
		n[w.baseKind[i]]--
		total[w.baseKind[i]] -= w.baseValue[i]
	}
	want := 0.0
	for k, name := range ingestKinds {
		want += (float64(n[k]) + total[k]) * keyFactor(strHash(name))
	}
	if rows != len(ingestKinds) || !closeEnough(checksum, want) {
		return fmt.Errorf("read at %d rows: got %d groups checksum %.4f, generator says %d groups checksum %.4f", op.visible, rows, checksum, len(ingestKinds), want)
	}
	return nil
}

func (w *ingestWAL) op(i int) error {
	op := &w.ops[i]
	if op.rows == nil {
		return w.read(op)
	}
	if err := w.appendBatch(w.in, op); err != nil {
		return err
	}
	return w.publish(w.in, op)
}

func (w *ingestWAL) tracedOp(i int, tr *tracer) error {
	op := &w.ops[i]
	root := tr.start("op")
	if op.rows == nil {
		id := tr.start("sqlengine.read_during_ingest")
		err := w.read(op)
		tr.finish(id)
		tr.finish(root)
		if err != nil {
			return err
		}
		return probeFrontEnd(tr, w.readSQL)
	}
	id := tr.start("table.append")
	err := w.appendBatch(w.in, op)
	tr.finishCount(id, int64(len(op.rows)))
	if err == nil {
		id = tr.start("wal.publish")
		err = w.publish(w.in, op)
		tr.finish(id)
	}
	tr.finish(root)
	if err != nil {
		return err
	}
	// Probe: the same publish with no log behind it.
	probe := tr.start("probe")
	defer tr.finish(probe)
	if err := w.appendBatch(w.twin, op); err != nil {
		return err
	}
	id = tr.start("table.publish")
	err = w.publish(w.twin, op)
	tr.finish(id)
	return err
}

// end is the durability check: close, reopen the directory, and require
// every acknowledged publish to be readable — row count, snapshot
// version and the grouped checksum all as before the restart.
func (w *ingestWAL) end(r replay) error {
	before := w.p.DurabilityStats()
	if err := w.p.Close(); err != nil {
		return err
	}
	if err := w.open(w.opts, false); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	after := w.p.DurabilityStats()
	if after.SnapshotVersion != before.SnapshotVersion {
		return fmt.Errorf("snapshot version %d after restart, %d before", after.SnapshotVersion, before.SnapshotVersion)
	}
	last := &w.ops[len(w.ops)-1]
	res, err := w.p.QueryCtx(context.Background(), "SELECT COUNT(*) FROM events")
	if err != nil {
		return err
	}
	count := int64(0)
	for b := res.Next(); b != nil; b = res.Next() {
		count, _ = b.Int64(0, 0)
	}
	if err := wantField("rows after restart", int(count), last.visible); err != nil {
		return err
	}
	if err := w.read(last); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	if r.Warm {
		return nil
	}
	w.walBytesPerUserByte = append(w.walBytesPerUserByte, float64(before.WALBytes-w.walBytes0)/float64(w.userBytes))
	w.checkpoints = append(w.checkpoints, float64(before.Checkpoints-w.ckpts0))
	w.recoverMs = append(w.recoverMs, after.ReplayDuration.Seconds()*1e3)
	w.recoveredRows = append(w.recoveredRows, float64(after.RecoveredRows))
	if r.Traced {
		// Reported as a layer number only: what a foreground stall for a
		// full checkpoint of the grown table would cost.
		t0 := time.Now()
		if err := w.p.Checkpoint(); err != nil {
			return fmt.Errorf("forced checkpoint: %w", err)
		}
		w.checkpointMs = append(w.checkpointMs, time.Since(t0).Seconds()*1e3)
	}
	return nil
}

// fsyncPublishSeconds runs the append ops once more under the "always"
// policy and returns the median PublishErr time. It is informational —
// the sandbox's device, never gated — and runs after all sampling.
func (w *ingestWAL) fsyncPublishSeconds() (float64, error) {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return 0, err
	}
	w.dir = dir
	defer w.teardown()
	always := w.opts
	always.Fsync = "always"
	if err := w.open(always, true); err != nil {
		return 0, err
	}
	var publishes []float64
	for i := range w.ops {
		op := &w.ops[i]
		if op.rows == nil {
			continue
		}
		if err := w.appendBatch(w.in, op); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := w.publish(w.in, op); err != nil {
			return 0, err
		}
		publishes = append(publishes, time.Since(t0).Seconds())
	}
	return median(publishes), nil
}

func (w *ingestWAL) layers(rd *runData) (map[string]float64, error) {
	tr := rd.tr
	appendSeconds, appended := sum(tr.durations("table.append")), sum(tr.counts("table.append"))
	publish := median(tr.durations("wal.publish"))
	twinPublish := median(tr.durations("table.publish"))
	fsyncPublish, err := w.fsyncPublishSeconds()
	if err != nil {
		return nil, fmt.Errorf("fsync=always replay: %w", err)
	}
	return map[string]float64{
		"table.append_us_per_row":         appendSeconds / appended * 1e6,
		"table.append_rows_s":             appended / appendSeconds,
		"table.publish_ms":                twinPublish * 1e3,
		"wal.publish_self_ms":             (publish - twinPublish) * 1e3,
		"wal.bytes_per_user_byte":         median(w.walBytesPerUserByte),
		"wal.checkpoints_per_replay":      median(w.checkpoints),
		"wal.checkpoint_ms":               median(w.checkpointMs),
		"wal.recover_ms":                  median(w.recoverMs),
		"wal.recovered_rows":              median(w.recoveredRows),
		"sqlengine.read_during_ingest_ms": median(tr.durations("sqlengine.read_during_ingest")) * 1e3,
		"sqlengine.fingerprint_us":        median(tr.durations("sqlengine.fingerprint")) * 1e6,
		"sqlengine.parse_us":              median(tr.durations("sqlengine.parse")) * 1e6,
		"wal.fsync_ms_per_publish":        (fsyncPublish - publish) * 1e3,
	}, nil
}
