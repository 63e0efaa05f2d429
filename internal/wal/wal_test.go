package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datalab/internal/table"
)

func newEventsTable(t *testing.T) *table.Table {
	t.Helper()
	return table.MustNew("events",
		[]string{"id", "kind", "value"},
		[]table.Kind{table.KindInt, table.KindString, table.KindFloat})
}

func eventRow(i int) []table.Value {
	return []table.Value{table.Int(int64(i)), table.Str([]string{"alpha", "beta", "gamma"}[i%3]), table.Float(float64(i) * 1.5)}
}

// appendRows buffers rows into app with each value stored as its column's
// kind stores it (Table.AppendRow): one table of the rows, appended exactly.
func appendRows(app *table.Appender, rows ...[]table.Value) error {
	names, kinds := app.Snapshot().Schema()
	t := table.MustNew(app.Name(), names, kinds)
	for _, r := range rows {
		if err := t.AppendRow(r...); err != nil {
			return err
		}
	}
	return app.AppendTableExact(t)
}

// openTracked opens a manager and registers one appender through it.
func openTracked(t *testing.T, dir string, opts Options) (*Manager, *table.Appender) {
	t.Helper()
	m, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Appenders) != 0 {
		t.Fatalf("fresh dir recovered %d tables", len(rec.Appenders))
	}
	app := table.NewAppender(newEventsTable(t))
	if err := m.Track(app); err != nil {
		t.Fatalf("Track: %v", err)
	}
	return m, app
}

// ingest appends and publishes rows [lo, hi) in batches.
func ingest(t *testing.T, app *table.Appender, lo, hi, batch int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := appendRows(app, eventRow(i)); err != nil {
			t.Fatal(err)
		}
		if (i-lo+1)%batch == 0 {
			if _, err := app.PublishErr(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}
}

// listed is one listing of dir's log and checkpoint files.
func listed(t *testing.T, dir string) dirFiles {
	t.Helper()
	d, err := listDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func assertTableMatches(t *testing.T, app *table.Appender, wantRows int) {
	t.Helper()
	s := app.Snapshot()
	if s.NumRows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", s.NumRows(), wantRows)
	}
	tbl := s.Table()
	for i := 0; i < wantRows; i++ {
		want := eventRow(i)
		for j, w := range want {
			if !valuesEqual(w, tbl.Columns[j].Value(i)) {
				t.Fatalf("row %d col %d: want %+v, got %+v", i, j, w, tbl.Columns[j].Value(i))
			}
		}
	}
}

// TestOpenRecoverRoundTrip is the core durability loop: ingest, close,
// reopen, and assert the recovered appender publishes the exact same
// rows and snapshot version.
func TestOpenRecoverRoundTrip(t *testing.T) {
	for _, policy := range []Policy{PolicyAlways, PolicyOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			m, app := openTracked(t, dir, Options{Fsync: policy})
			ingest(t, app, 0, 500, 64)
			wantVersion := app.Snapshot().Version()
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			m2, rec, err := Open(dir, Options{Fsync: policy})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer m2.Close()
			if len(rec.Appenders) != 1 {
				t.Fatalf("recovered %d tables, want 1", len(rec.Appenders))
			}
			got := rec.Appenders[0]
			if got.Name() != "events" {
				t.Fatalf("recovered table %q", got.Name())
			}
			if v := got.Snapshot().Version(); v != wantVersion {
				t.Fatalf("recovered version %d, want %d", v, wantVersion)
			}
			if rec.RecoveredRows != 500 {
				t.Fatalf("RecoveredRows = %d, want 500", rec.RecoveredRows)
			}
			assertTableMatches(t, got, 500)

			// The recovered appender keeps working: ingest continues and
			// survives another cycle.
			ingest(t, got, 500, 600, 32)
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
			m3, rec3, err := Open(dir, Options{Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer m3.Close()
			assertTableMatches(t, rec3.Appenders[0], 600)
		})
	}
}

// TestRecoverEmptyRegistration covers a table registered with zero rows:
// version 1, no chunks, schema intact after recovery.
func TestRecoverEmptyRegistration(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTracked(t, dir, Options{})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Appenders) != 1 {
		t.Fatalf("recovered %d tables", len(rec.Appenders))
	}
	s := rec.Appenders[0].Snapshot()
	if s.NumRows() != 0 || s.Version() != 1 {
		t.Fatalf("rows=%d version=%d, want 0/1", s.NumRows(), s.Version())
	}
	names, kinds := s.Schema()
	if len(names) != 3 || names[1] != "kind" || kinds[0] != table.KindInt {
		t.Fatalf("schema lost: %v %v", names, kinds)
	}
}

// TestRecoverPopulatedRegistration covers Register over a table that
// already has rows: the initial chunk rides in the register record.
func TestRecoverPopulatedRegistration(t *testing.T) {
	dir := t.TempDir()
	m, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = rec
	tbl := newEventsTable(t)
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow(eventRow(i)...)
	}
	app := table.NewAppender(tbl)
	if v := app.Snapshot().Version(); v != 1 {
		t.Fatalf("fresh appender version %d", v)
	}
	if err := m.Track(app); err != nil {
		t.Fatal(err)
	}
	ingest(t, app, 10, 20, 5)
	m.Close()

	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatches(t, rec2.Appenders[0], 20)
	if v := rec2.Appenders[0].Snapshot().Version(); v != app.Snapshot().Version() {
		t.Fatalf("version %d != %d", v, app.Snapshot().Version())
	}
}

// TestTornTailEveryOffset is the crash matrix: a valid log is truncated
// at every byte offset inside its final record, and each truncation must
// recover cleanly to exactly the rows durable before that record —
// never an error, never a partial chunk.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{})
	ingest(t, app, 0, 40, 10) // register + 4 chunk records
	versionBeforeLast := app.Snapshot().Version()
	// One final record whose truncation we sweep.
	ingest(t, app, 40, 50, 10)
	m.Close()

	logs := listed(t, dir).logs
	if len(logs) != 1 {
		t.Fatalf("expected 1 log, got %d", len(logs))
	}
	whole, err := os.ReadFile(logPath(dir, logs[0]))
	if err != nil {
		t.Fatal(err)
	}

	// Find the final record's start: walk frames to the last one.
	fr := newFrameReader(newByteReader(whole[len(fileMagic):]), int64(len(fileMagic)), int64(len(whole)))
	lastStart := int64(len(fileMagic))
	for {
		prev := fr.off
		if _, err := fr.next(); err != nil {
			break
		}
		lastStart = prev
	}
	if int(lastStart) >= len(whole) {
		t.Fatalf("bad frame walk: lastStart=%d len=%d", lastStart, len(whole))
	}

	scratch := t.TempDir()
	for cut := int(lastStart); cut < len(whole); cut++ {
		sub := filepath.Join(scratch, "case")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "wal-1.log"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := recoverDir(osFS{}, sub)
		if err != nil {
			t.Fatalf("cut=%d: recover error: %v", cut, err)
		}
		if len(rec.Appenders) != 1 {
			t.Fatalf("cut=%d: %d tables", cut, len(rec.Appenders))
		}
		s := rec.Appenders[0].Snapshot()
		if s.NumRows() != 40 || s.Version() != versionBeforeLast {
			t.Fatalf("cut=%d: rows=%d version=%d, want 40/%d", cut, s.NumRows(), s.Version(), versionBeforeLast)
		}
		// Truncation exactly at the record boundary leaves a clean log;
		// every cut inside the record must be reported torn.
		if wantTorn := cut > int(lastStart); rec.TornTail != wantTorn {
			t.Fatalf("cut=%d: TornTail=%v, want %v", cut, rec.TornTail, wantTorn)
		}
		// And reopening for append works after truncation repair.
		m2, rec2, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		ingest(t, rec2.Appenders[0], 40, 45, 5)
		m2.Close()
		rec3, _, err := recoverDir(osFS{}, sub)
		if err != nil || rec3.Appenders[0].Snapshot().NumRows() != 45 {
			t.Fatalf("cut=%d: append-after-repair failed: %v", cut, err)
		}
		os.RemoveAll(sub)
	}
}

// TestCorruptTailEveryByte flips each byte of the final record in place
// (same length, bad content) and asserts recovery still lands on the
// last durable version.
func TestCorruptTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{})
	ingest(t, app, 0, 30, 10)
	wantVersion := app.Snapshot().Version()
	ingest(t, app, 30, 40, 10)
	m.Close()

	logs := listed(t, dir).logs
	whole, err := os.ReadFile(logPath(dir, logs[0]))
	if err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(newByteReader(whole[len(fileMagic):]), int64(len(fileMagic)), int64(len(whole)))
	lastStart := int64(len(fileMagic))
	for {
		prev := fr.off
		if _, err := fr.next(); err != nil {
			break
		}
		lastStart = prev
	}

	scratch := t.TempDir()
	// Flip a sample of offsets (every byte for small records, strided
	// for big ones) to keep the matrix fast.
	stride := 1
	if len(whole)-int(lastStart) > 512 {
		stride = 7
	}
	for cut := int(lastStart); cut < len(whole); cut += stride {
		sub := filepath.Join(scratch, "case")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), whole...)
		mut[cut] ^= 0x5a
		if err := os.WriteFile(filepath.Join(sub, "wal-1.log"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := recoverDir(osFS{}, sub)
		if err != nil {
			t.Fatalf("flip=%d: recover error: %v", cut, err)
		}
		s := rec.Appenders[0].Snapshot()
		if s.NumRows() != 30 || s.Version() != wantVersion {
			t.Fatalf("flip=%d: rows=%d version=%d, want 30/%d", cut, s.NumRows(), s.Version(), wantVersion)
		}
		os.RemoveAll(sub)
	}
}

// TestCheckpointTruncatesLog proves a checkpoint supersedes the log
// prefix: old generations are deleted, recovery uses the checkpoint,
// and the data survives exactly.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{CheckpointBytes: -1})
	ingest(t, app, 0, 300, 50)
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Old generation gone, checkpoint present.
	if logs := listed(t, dir).logs; len(logs) != 1 || logs[0] != 2 {
		t.Fatalf("logs after checkpoint: %v", logs)
	}
	if cks := listed(t, dir).ckpts; len(cks) != 1 || cks[0] != 2 {
		t.Fatalf("checkpoints: %v", cks)
	}
	st := m.Stats()
	if st.Checkpoints != 1 || st.LastCheckpointUnixMilli == 0 || st.Generation != 2 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	// More ingest after the checkpoint goes to the new generation.
	ingest(t, app, 300, 400, 50)
	m.Close()

	rec, _, err := recoverDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointGen != 2 {
		t.Fatalf("recovery used checkpoint gen %d", rec.CheckpointGen)
	}
	assertTableMatches(t, rec.Appenders[0], 400)
	if v := rec.Appenders[0].Snapshot().Version(); v != app.Snapshot().Version() {
		t.Fatalf("version %d != %d", v, app.Snapshot().Version())
	}
}

// TestCheckpointCrashWindows simulates crashes in each checkpoint
// window by reconstructing the on-disk states they leave behind.
func TestCheckpointCrashWindows(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		m, app := openTracked(t, dir, Options{CheckpointBytes: -1})
		ingest(t, app, 0, 100, 25)
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ingest(t, app, 100, 200, 25)
		m.Close()
		return dir
	}

	t.Run("tmp-left-behind", func(t *testing.T) {
		// Crash mid-checkpoint-write: a .tmp file exists, no rename.
		dir := build(t)
		if err := os.WriteFile(filepath.Join(dir, "ckpt-9.snap.tmp"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		m, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		assertTableMatches(t, rec.Appenders[0], 200)
		if _, err := os.Stat(filepath.Join(dir, "ckpt-9.snap.tmp")); !os.IsNotExist(err) {
			t.Fatal("stale tmp not cleaned up")
		}
	})

	t.Run("footerless-checkpoint-ignored", func(t *testing.T) {
		// A checkpoint whose footer never landed must be ignored in
		// favor of the older state it failed to supersede.
		dir := build(t)
		ck, err := os.ReadFile(ckptPath(dir, 2))
		if err != nil {
			t.Fatal(err)
		}
		// Write a NEWER checkpoint that is valid framing but footerless,
		// with its rotated log present (as the crash would leave it).
		if err := os.WriteFile(ckptPath(dir, 3), ck[:len(ck)-9], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := recoverDir(osFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.CheckpointGen != 2 {
			t.Fatalf("used checkpoint gen %d, want fallback to 2", rec.CheckpointGen)
		}
		assertTableMatches(t, rec.Appenders[0], 200)
	})

	t.Run("stale-generations-ignored", func(t *testing.T) {
		// Crash after rename but before deletion: logs < K remain and
		// must be ignored, not double-replayed.
		dir := t.TempDir()
		m, app := openTracked(t, dir, Options{CheckpointBytes: -1})
		ingest(t, app, 0, 100, 25)
		// Copy the pre-checkpoint log aside, checkpoint, then restore it
		// to simulate the deletion never happening.
		logBytes, err := os.ReadFile(logPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(dir, 1), logBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		ingest(t, app, 100, 150, 25)
		m.Close()
		rec, _, err := recoverDir(osFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.CheckpointGen != 2 {
			t.Fatalf("checkpoint gen %d", rec.CheckpointGen)
		}
		assertTableMatches(t, rec.Appenders[0], 150)
	})
}

// TestAutomaticCheckpoint proves the byte threshold fires the
// background checkpointer.
func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{CheckpointBytes: 16 << 10})
	ingest(t, app, 0, 2000, 100)
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.Close()
	rec, _, err := recoverDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	assertTableMatches(t, rec.Appenders[0], 2000)
}

// TestReplaceTableRecovers covers re-registration: the replacement's
// register record supersedes the old table during replay.
func TestReplaceTableRecovers(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{})
	ingest(t, app, 0, 50, 10)
	// Replace with a different schema.
	repl := table.MustNew("events", []string{"only"}, []table.Kind{table.KindString})
	app2 := table.NewAppender(repl)
	if err := m.Track(app2); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(app2, []table.Value{table.Str("fresh")}); err != nil {
		t.Fatal(err)
	}
	if _, err := app2.PublishErr(); err != nil {
		t.Fatal(err)
	}
	// The detached original must no longer reach the log.
	if err := appendRows(app, eventRow(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	rec, _, err := recoverDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Appenders) != 1 {
		t.Fatalf("%d tables", len(rec.Appenders))
	}
	s := rec.Appenders[0].Snapshot()
	names, _ := s.Schema()
	if len(names) != 1 || names[0] != "only" || s.NumRows() != 1 {
		t.Fatalf("replacement not recovered: names=%v rows=%d", names, s.NumRows())
	}
}

// TestPublishHookFailureKeepsRowsPending proves the commit-point
// ordering: when the log write fails, nothing is sealed and the rows
// retry on the next publish.
func TestPublishHookFailureKeepsRowsPending(t *testing.T) {
	dir := t.TempDir()
	m, app := openTracked(t, dir, Options{})
	ingest(t, app, 0, 10, 10)
	m.Close() // closed manager: hook now fails

	if err := appendRows(app, eventRow(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PublishErr(); err == nil {
		t.Fatal("publish after close should fail")
	}
	s := app.Snapshot()
	if s.NumRows() != 10 {
		t.Fatalf("failed publish leaked rows: %d", s.NumRows())
	}
	if app.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", app.Pending())
	}
}

// TestRandomizedOracle drives random multi-table ingest through the
// manager and diffs recovery against the in-memory oracle after every
// reopen cycle.
func TestRandomizedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	type oracleTable struct {
		rows [][]table.Value
	}
	oracle := map[string]*oracleTable{}
	names := []string{"ta", "tb", "tc"}

	m, rec, err := Open(dir, Options{CheckpointBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]*table.Appender{}
	for cycle := 0; cycle < 4; cycle++ {
		for op := 0; op < 200; op++ {
			name := names[rng.Intn(len(names))]
			app := apps[name]
			if app == nil {
				tb := table.MustNew(name, []string{"n", "v"}, []table.Kind{table.KindInt, table.KindFloat})
				app = table.NewAppender(tb)
				if err := m.Track(app); err != nil {
					t.Fatal(err)
				}
				apps[name] = app
				oracle[name] = &oracleTable{}
			}
			batch := 1 + rng.Intn(20)
			for r := 0; r < batch; r++ {
				row := []table.Value{randomValue(rng, table.KindInt, 0.1), randomValue(rng, table.KindFloat, 0.1)}
				if err := appendRows(app, row); err != nil {
					t.Fatal(err)
				}
				oracle[name].rows = append(oracle[name].rows, row)
			}
			if rng.Intn(3) == 0 {
				if _, err := app.PublishErr(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Publish all pending before close (unpublished rows are not
		// durable by design — trim the oracle to published state).
		for _, app := range apps {
			if _, err := app.PublishErr(); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()

		m, rec, err = Open(dir, Options{CheckpointBytes: 8 << 10})
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		apps = map[string]*table.Appender{}
		for _, app := range rec.Appenders {
			apps[app.Name()] = app
		}
		for name, want := range oracle {
			app := apps[name]
			if app == nil {
				t.Fatalf("cycle %d: table %q lost", cycle, name)
			}
			s := app.Snapshot()
			if s.NumRows() != len(want.rows) {
				t.Fatalf("cycle %d: table %q: %d rows, want %d", cycle, name, s.NumRows(), len(want.rows))
			}
			tbl := s.Table()
			for i, row := range want.rows {
				for j, w := range row {
					if !valuesEqual(w, tbl.Columns[j].Value(i)) {
						t.Fatalf("cycle %d: table %q row %d col %d: want %+v got %+v", cycle, name, i, j, w, tbl.Columns[j].Value(i))
					}
				}
			}
		}
	}
	m.Close()
}

func newByteReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
