package wal

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"datalab/internal/table"
)

// memFS is an in-memory fsys that keeps what the program sees apart from
// what a crash would leave. A file's contents become durable when the file
// is synced, and the directory's entries — creates, renames, removes —
// when the directory is; a crash keeps only what became durable. It fails
// an armed fault's operation on cue, and with crashAfter k > 0 it crashes
// after its k-th operation: every later one fails with errCrash.
// Operations are the calls that change state (a create, write, sync,
// truncate, rename, remove or directory sync); reads, listings and
// closes are not counted.
type memFS struct {
	mu         sync.Mutex
	names      map[string]*memFile // the directory as the program sees it
	durable    map[string]*memFile // the directory as of its last sync
	ops        int
	crashAfter int
	faults     []*fault
}

type memFile struct {
	data   []byte // what reads see
	synced []byte // what a crash keeps: data as of the last Sync
}

// fault fails the (skip+1)-th operation op on a path containing name
// with err, once. A short write lands the first half of its bytes first;
// with err nil the writer sees a short count and no error.
type fault struct {
	op, name string
	skip     int
	err      error
	short    bool
}

var errCrash = errors.New("memfs: crashed")

const memDir = "/data"

// newMemFS holds image, path to contents, durably.
func newMemFS(image map[string][]byte) *memFS {
	fs := &memFS{names: map[string]*memFile{}}
	for name, b := range image {
		fs.names[name] = &memFile{data: slices.Clone(b), synced: slices.Clone(b)}
	}
	fs.durable = maps.Clone(fs.names)
	return fs
}

// image is the directory's contents as a restarted process finds them:
// after a crash of the OS (durable) or of the process alone.
func (fs *memFS) image(durable bool) map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := map[string][]byte{}
	if durable {
		for name, f := range fs.durable {
			out[name] = slices.Clone(f.synced)
		}
		return out
	}
	for name, f := range fs.names {
		out[name] = slices.Clone(f.data)
	}
	return out
}

func (fs *memFS) arm(f fault) {
	fs.mu.Lock()
	fs.faults = append(fs.faults, &f)
	fs.mu.Unlock()
}

// step counts one operation, under mu, and returns the fault it trips
// and the error it must fail with.
func (fs *memFS) step(op, name string) (*fault, error) {
	if fs.crashAfter > 0 && fs.ops >= fs.crashAfter {
		return nil, errCrash
	}
	fs.ops++
	for i, f := range fs.faults {
		if f.op != op || !strings.Contains(name, f.name) {
			continue
		}
		if f.skip > 0 {
			f.skip--
			continue
		}
		fs.faults = slices.Delete(fs.faults, i, i+1)
		return f, f.err
	}
	return nil, nil
}

func (fs *memFS) open(name string, flag int) (file, int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		if _, err := fs.step("open", name); err != nil {
			return nil, 0, err
		}
	}
	f := fs.names[name]
	if f == nil {
		if flag&os.O_CREATE == 0 {
			return nil, 0, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		f = &memFile{}
		fs.names[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = nil
	}
	return &memHandle{fs: fs, name: name, f: f}, int64(len(f.data)), nil
}

func (fs *memFS) truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step("truncate", name); err != nil {
		return err
	}
	f := fs.names[name]
	if f == nil {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	f.data = slices.Clone(f.data[:size])
	return nil
}

func (fs *memFS) rename(from, to string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step("rename", from); err != nil {
		return err
	}
	f := fs.names[from]
	if f == nil {
		return &os.LinkError{Op: "rename", Old: from, New: to, Err: os.ErrNotExist}
	}
	fs.names[to] = f
	delete(fs.names, from)
	return nil
}

func (fs *memFS) remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step("remove", name); err != nil {
		return err
	}
	if fs.names[name] == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.names, name)
	return nil
}

func (fs *memFS) mkdirAll(string) error { return nil }

func (fs *memFS) list(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for name := range fs.names {
		if filepath.Dir(name) == dir {
			out = append(out, filepath.Base(name))
		}
	}
	return out, nil
}

func (fs *memFS) syncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.step("syncdir", dir); err != nil {
		return err
	}
	fs.durable = maps.Clone(fs.names)
	return nil
}

// memHandle is an open memFS file. Every write appends: the log and
// checkpoint files are written front to back.
type memHandle struct {
	fs   *memFS
	name string
	f    *memFile
	off  int
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.off >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.fs.step("write", h.name)
	if f != nil && f.short {
		n := len(p) / 2
		h.f.data = append(h.f.data, p[:n]...)
		return n, err
	}
	if err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if _, err := h.fs.step("sync", h.name); err != nil {
		return err
	}
	h.f.synced = slices.Clone(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

// catalogState renders tables as their names, versions, schemas and
// rows, ordered by name: two catalogs render alike exactly when no query
// could tell them apart.
func catalogState(apps []*table.Appender) string {
	apps = slices.Clone(apps)
	slices.SortFunc(apps, func(a, b *table.Appender) int { return strings.Compare(a.Name(), b.Name()) })
	var b strings.Builder
	for _, a := range apps {
		s := a.Snapshot()
		b.WriteString(tableState(s.Version(), s.Table()))
	}
	return b.String()
}

func tableState(version uint64, tbl *table.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s v%d %v:", tbl.Name, version, tbl.ColumnNames())
	for r := 0; r < tbl.NumRows(); r++ {
		for _, c := range tbl.Columns {
			b.WriteString(" " + c.Value(r).String())
		}
		b.WriteString(";")
	}
	return b.String() + "\n"
}

// reopen opens image and returns the state it recovers and its
// snapshot version.
func reopen(image map[string][]byte) (string, uint64, error) {
	m, rec, err := open(newMemFS(image), memDir, Options{CheckpointBytes: -1})
	if err != nil {
		return "", 0, err
	}
	defer m.Close()
	return catalogState(rec.Appenders), m.Stats().SnapshotVersion, nil
}

// checkContract reopens fs after a process crash and after an OS crash
// and requires each to hold the state after every acknowledged operation,
// plus at most the one in flight ("": none).
func checkContract(t *testing.T, fs *memFS, acked, inFlight string) {
	t.Helper()
	for _, durable := range []bool{false, true} {
		got, _, err := reopen(fs.image(durable))
		if err != nil {
			t.Fatalf("reopen after an OS crash %v: %v", durable, err)
		}
		if got != acked && (inFlight == "" || got != inFlight) {
			t.Fatalf("reopen after an OS crash %v holds\n%s\nwant\n%s\nor the one in flight\n%s", durable, got, acked, inFlight)
		}
	}
}

// faultRig is one durable catalog on a memFS under PolicyAlways: an
// events table registered, with 10 rows published. Without automatic
// checkpoints (checkpointBytes < 0) each operation is one the test makes.
type faultRig struct {
	t   *testing.T
	fs  *memFS
	m   *Manager
	app *table.Appender
	n   int // rows appended so far
}

func newFaultRig(t *testing.T, checkpointBytes int64) *faultRig {
	t.Helper()
	r := &faultRig{t: t, fs: newMemFS(nil)}
	m, _, err := open(r.fs, memDir, Options{CheckpointBytes: checkpointBytes})
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	r.app = table.NewAppender(newEventsTable(t))
	if err := m.Track(r.app); err != nil {
		t.Fatal(err)
	}
	if err := r.publish(10); err != nil {
		t.Fatal(err)
	}
	return r
}

// publish appends the next k event rows and publishes whatever is staged.
func (r *faultRig) publish(k int) error {
	for ; k > 0; k-- {
		if err := appendRows(r.app, eventRow(r.n)); err != nil {
			r.t.Fatal(err)
		}
		r.n++
	}
	_, err := r.app.PublishErr()
	return err
}

func (r *faultRig) state() string { return catalogState([]*table.Appender{r.app}) }

// staged is the state with every appended row published by one more
// publish: what recovery holds when a failed publish's record landed.
func (r *faultRig) staged() string {
	tbl := newEventsTable(r.t)
	for i := 0; i < r.n; i++ {
		tbl.MustAppendRow(eventRow(i)...)
	}
	return tableState(r.app.Snapshot().Version()+1, tbl)
}

// wantStopped requires err to be the stop error over cause, and the log
// to report it.
func (r *faultRig) wantStopped(what string, err, cause error) {
	r.t.Helper()
	if !errors.Is(err, cause) {
		r.t.Fatalf("%s = %v, want an error wrapping %v", what, err, cause)
	}
	if st := r.m.Stats(); st.LogError == "" || !strings.Contains(err.Error(), st.LogError) {
		r.t.Fatalf("%s = %v, but Stats().LogError = %q", what, err, st.LogError)
	}
}

// TestFaultMatrix fails one file operation under PolicyAlways and checks
// the caller sees it and every reopen meets the recovery contract. A
// failed write, flush or fsync of the log stops it: the publish fails,
// and every later publish and checkpoint fails with the same error. A
// checkpoint that fails without touching the active log stops nothing.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		fault fault
		want  error
		stops bool
	}{
		{"enospc-write", fault{op: "write", name: ".log", err: syscall.ENOSPC}, syscall.ENOSPC, true},
		{"short-write", fault{op: "write", name: ".log", short: true}, io.ErrShortWrite, true},
		{"fsync-fails-once", fault{op: "sync", name: ".log", err: syscall.EIO}, syscall.EIO, true},
		{"checkpoint-rename", fault{op: "rename", name: "ckpt-", err: syscall.EIO}, syscall.EIO, false},
		{"next-generation-create", fault{op: "open", name: "wal-2.log", err: syscall.ENOSPC}, syscall.ENOSPC, false},
		{"directory-sync-at-rotation", fault{op: "syncdir", err: syscall.EIO}, syscall.EIO, false},
		{"directory-sync-after-rename", fault{op: "syncdir", skip: 1, err: syscall.EIO}, syscall.EIO, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newFaultRig(t, -1)
			r.fs.arm(c.fault)
			acked, inFlight := r.state(), ""
			var first error
			for i, step := range []func() error{
				func() error { return r.publish(10) },
				r.m.Checkpoint,
				func() error { return r.publish(10) },
				r.m.Checkpoint,
				func() error { return r.publish(10) },
			} {
				err := step()
				switch {
				case err == nil && first != nil && c.stops:
					t.Fatalf("step %d succeeded after %v stopped the log", i, first)
				case err == nil:
					acked = r.state()
				case first == nil:
					first = err
					if c.stops != (i == 0) {
						t.Fatalf("the fault failed step %d: %v", i, err)
					}
					if !errors.Is(err, c.want) {
						t.Fatalf("step %d = %v, want an error wrapping %v", i, err, c.want)
					}
					if i%2 == 0 { // a publish: its record was in flight
						inFlight = r.staged()
					}
				}
				if err != nil && c.stops {
					r.wantStopped(fmt.Sprintf("step %d", i), err, c.want)
				}
			}
			if first == nil {
				t.Fatal("the fault never fired")
			}
			if !c.stops && r.m.Stats().LogError != "" {
				t.Fatalf("a failed checkpoint stopped the log: %s", r.m.Stats().LogError)
			}
			if err := r.m.Close(); c.stops != (err != nil) {
				t.Fatalf("Close = %v after a fault that stops the log: %v", err, c.stops)
			}
			checkContract(t, r.fs, acked, inFlight)
		})
	}
}

// TestRetryAfterFailedFsyncIsRefused: a publish whose fsync fails stops
// the log, so a retry cannot journal the same version again. Before the
// stop rule the retry succeeded, its record reused the failed one's
// version, and replay skipped it as a duplicate: 30 rows acknowledged,
// 20 recovered.
func TestRetryAfterFailedFsyncIsRefused(t *testing.T) {
	r := newFaultRig(t, -1)
	acked := r.state()
	r.fs.arm(fault{op: "sync", name: ".log", err: syscall.EIO})
	r.wantStopped("publish", r.publish(10), syscall.EIO)
	inFlight := r.staged()
	r.wantStopped("retried publish", r.publish(10), syscall.EIO)
	if err := r.m.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint on a stopped log = %v", err)
	}
	tbl := newEventsTable(t)
	if err := r.m.Track(table.NewAppender(tbl)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Track on a stopped log = %v", err)
	}
	r.m.Close()
	checkContract(t, r.fs, acked, inFlight)
}

// TestFailedWriteIsNotRotatedAway: a short write tears the log's last
// record, and a checkpoint must not rotate past it, or the torn record
// ends up mid-log where recovery refuses the directory. Before the stop
// rule the rotation's fresh writer dropped the sticky write error, the
// next publish was acknowledged into the new generation, and Open failed
// with "torn record mid-log".
func TestFailedWriteIsNotRotatedAway(t *testing.T) {
	r := newFaultRig(t, -1)
	acked := r.state()
	r.fs.arm(fault{op: "write", name: ".log", short: true, err: syscall.ENOSPC})
	r.fs.arm(fault{op: "rename", name: "ckpt-", err: syscall.EIO})
	r.wantStopped("publish", r.publish(10), syscall.ENOSPC)
	r.wantStopped("checkpoint", r.m.Checkpoint(), syscall.ENOSPC)
	r.wantStopped("publish after the checkpoint", r.publish(0), syscall.ENOSPC)
	if d, err := listDir(r.fs, memDir); err != nil || len(d.logs) != 1 {
		t.Fatalf("logs %v (%v): a stopped log was rotated", d.logs, err)
	}
	r.m.Close()
	checkContract(t, r.fs, acked, "")
}

// TestFailedReplacementKeepsOldTableJournaled: when journaling a
// replacing registration fails, the catalog keeps the old table, so its
// publish hook must come back: its publishes fail with the stop error
// instead of being acknowledged unlogged. Before, they were acknowledged
// and 20 rows reopened as 0.
func TestFailedReplacementKeepsOldTableJournaled(t *testing.T) {
	r := newFaultRig(t, -1)
	acked := r.state()
	r.fs.arm(fault{op: "sync", name: ".log", err: syscall.EIO})
	repl := table.MustNew("events", []string{"only"}, []table.Kind{table.KindString})
	repl.MustAppendRow(table.Str("fresh"))
	r.wantStopped("replacing Track", r.m.Track(table.NewAppender(repl)), syscall.EIO)
	r.wantStopped("publish on the kept table", r.publish(10), syscall.EIO)
	r.wantStopped("second publish on the kept table", r.publish(10), syscall.EIO)
	r.m.Close()
	// The replacement's register record landed whole before its fsync
	// failed, so a process crash may recover it.
	checkContract(t, r.fs, acked, tableState(1, repl))
}

// TestStopRacesCheckpointer runs the background checkpointer while a
// write fault stops the log, so the race detector sees it read the stop
// state. Whichever write the fault hits — a publish's or a rotation's —
// no publish succeeds after one failed, and every reopen meets the
// contract.
func TestStopRacesCheckpointer(t *testing.T) {
	r := newFaultRig(t, 2<<10)
	for r.m.Stats().Checkpoints == 0 {
		if r.n > 10_000 {
			t.Fatal("no automatic checkpoint ran")
		}
		if err := r.publish(10); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	r.fs.arm(fault{op: "write", name: ".log", skip: 20, err: syscall.ENOSPC})
	acked, inFlight := r.state(), ""
	for i := 0; i < 200; i++ {
		err := r.publish(10)
		switch {
		case err != nil:
			r.wantStopped("publish", err, syscall.ENOSPC)
			if inFlight == "" {
				inFlight = r.staged()
			}
		case inFlight != "":
			t.Fatalf("publish %d succeeded after the log stopped", i)
		default:
			acked = r.state()
		}
	}
	r.m.Close()
	checkContract(t, r.fs, acked, inFlight)
}

// crashRun is what one run of the crash workload acknowledged.
type crashRun struct {
	acked    int             // steps that returned nil before the first that failed
	states   []string        // catalog state after each acknowledged step; [0] before any
	versions map[uint64]bool // every SnapshotVersion the manager reported
}

// runCrashWorkload runs a scripted workload under PolicyAlways on fs —
// registrations, ingest bursts, a manual checkpoint, a replacing
// registration, a second checkpoint that deletes the first's files, and a
// close — and stops at the first step that fails.
func runCrashWorkload(t *testing.T, fs *memFS) crashRun {
	run := crashRun{states: []string{""}, versions: map[uint64]bool{0: true}}
	m, _, err := open(fs, memDir, Options{CheckpointBytes: -1})
	if err != nil {
		return run // the crash came inside Open: nothing was acknowledged
	}
	defer m.Close()
	apps := map[string]*table.Appender{}
	register := func(tbl *table.Table) func() error {
		return func() error {
			app := table.NewAppender(tbl)
			if err := m.Track(app); err != nil {
				return err
			}
			apps[tbl.Name] = app
			return nil
		}
	}
	publish := func(name string, rows ...[]table.Value) func() error {
		return func() error {
			if err := appendRows(apps[name], rows...); err != nil {
				t.Fatal(err)
			}
			_, err := apps[name].PublishErr()
			return err
		}
	}
	events := func(lo, hi int) [][]table.Value {
		var rows [][]table.Value
		for i := lo; i < hi; i++ {
			rows = append(rows, eventRow(i))
		}
		return rows
	}
	metrics := table.MustNew("metrics", []string{"id", "kind", "value"}, []table.Kind{table.KindInt, table.KindString, table.KindFloat})
	for _, r := range events(100, 103) {
		metrics.MustAppendRow(r...)
	}
	repl := table.MustNew("events", []string{"only"}, []table.Kind{table.KindString})
	repl.MustAppendRow(table.Str("fresh"))
	steps := []func() error{
		register(newEventsTable(t)),
		publish("events", events(0, 5)...),
		publish("events", events(5, 10)...),
		register(metrics),
		publish("events", events(10, 15)...),
		publish("metrics", events(103, 106)...),
		m.Checkpoint,
		publish("events", events(15, 20)...),
		register(repl),
		publish("events", []table.Value{table.Str("second")}),
		publish("metrics", events(106, 109)...),
		m.Checkpoint,
		publish("events", []table.Value{table.Str("third")}),
		m.Close,
	}
	for _, step := range steps {
		if step() != nil {
			break
		}
		run.acked++
		var all []*table.Appender
		for _, app := range apps {
			all = append(all, app)
		}
		run.states = append(run.states, catalogState(all))
		run.versions[m.Stats().SnapshotVersion] = true
	}
	return run
}

// TestCrashPrefixes enumerates crash points. For every k it reruns the
// crash workload on a memFS that crashes after its k-th operation, keeps
// what an OS crash keeps — each file's contents as of its last Sync, the
// directory's entries as of its last sync — and opens that image and the
// one a crash of the process alone leaves. Each must recover without a
// panic or an error, hold every acknowledged step plus at most the one in
// flight, and report a snapshot version that was published.
func TestCrashPrefixes(t *testing.T) {
	clean := newMemFS(nil)
	ref := runCrashWorkload(t, clean)
	if ref.acked != len(ref.states)-1 || clean.ops == 0 {
		t.Fatalf("the workload acknowledged %d steps without a crash", ref.acked)
	}
	for k := 1; k <= clean.ops; k++ {
		fs := newMemFS(nil)
		fs.crashAfter = k
		run := runCrashWorkload(t, fs)
		if run.acked == ref.acked && k < clean.ops {
			t.Fatalf("crash after operation %d of %d: every step was acknowledged", k, clean.ops)
		}
		want := ref.states[run.acked:min(run.acked+2, len(ref.states))]
		for _, durable := range []bool{true, false} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("crash after operation %d, OS crash %v: Open panicked: %v", k, durable, p)
					}
				}()
				got, version, err := reopen(fs.image(durable))
				if err != nil {
					t.Fatalf("crash after operation %d, OS crash %v: %v", k, durable, err)
				}
				if !slices.Contains(want, got) {
					t.Fatalf("crash after operation %d (%d steps acknowledged), OS crash %v: recovered\n%s\nwant one of\n%q", k, run.acked, durable, got, want)
				}
				if !ref.versions[version] {
					t.Fatalf("crash after operation %d, OS crash %v: snapshot version %d was never published", k, durable, version)
				}
			}()
		}
	}
	t.Logf("%d crash points", clean.ops)
}
