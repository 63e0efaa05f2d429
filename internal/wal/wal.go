package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalab/internal/table"
)

// Policy selects when log writes reach stable storage.
type Policy int

const (
	// PolicyAlways fsyncs before every publish returns: a chunk visible
	// to any reader is durable. The zero value, because it is the only
	// policy under which the crash-recovery guarantee is unconditional.
	PolicyAlways Policy = iota
	// PolicyOff never fsyncs (the OS flushes when it pleases). A
	// process crash still loses nothing — records are written to the
	// page cache per publish — but an OS crash can lose any unsynced
	// suffix. Recovery still stops cleanly at the torn tail.
	PolicyOff
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the flag spelling: "always" or "off".
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return PolicyAlways, nil
	case "off":
		return PolicyOff, nil
	}
	return PolicyAlways, fmt.Errorf("wal: unknown fsync policy %q (want always or off)", s)
}

// Options configures a durable catalog.
type Options struct {
	// Fsync is the durability policy. The zero value is PolicyAlways.
	Fsync Policy
	// CheckpointBytes triggers an automatic checkpoint after this many
	// log bytes since the last one. 0 means the 64 MiB default;
	// negative disables automatic checkpoints (manual Checkpoint still
	// works).
	CheckpointBytes int64
}

func (o Options) withDefaults() Options {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	return o
}

// Stats is a point-in-time view of the durability layer, surfaced by
// /v1/stats on the server.
type Stats struct {
	// WALBytes is the cumulative number of log bytes written, including
	// the prefix recovered at open. Checkpoint truncation does not
	// decrease it (it is a counter, not a gauge).
	WALBytes int64
	// Generation is the current log file generation.
	Generation uint64
	// Checkpoints counts checkpoints completed since open.
	Checkpoints int64
	// LastCheckpointUnixMilli is the wall-clock completion time of the
	// newest checkpoint (0 before the first).
	LastCheckpointUnixMilli int64
	// SnapshotVersion is the highest published snapshot version across
	// tracked tables — the value recovery is expected to reproduce.
	SnapshotVersion uint64
}

var errClosed = errors.New("wal: manager closed")

// Manager owns one durable catalog directory: the open log generation,
// the tracked table write heads, and the checkpointer.
// All record writes funnel through one mutex, matching the storage
// layer's single-writer-per-table design.
type Manager struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	fw        *frameWriter
	gen       uint64
	walBytes  int64
	sinceCkpt int64
	closed    bool
	apps      map[string]*table.Appender
	order     []string
	enc       []byte // record staging buffer, reused under mu

	// ckptMu serializes checkpoints; never held together with mu except
	// for the brief rotation swap (ckptMu -> mu, and the publish path
	// never takes ckptMu, so the order is acyclic).
	ckptMu        sync.Mutex
	checkpoints   atomic.Int64
	lastCkptMilli atomic.Int64

	ckptCh chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func logPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

func ckptPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d.snap", gen))
}

// createLogFile creates a fresh log generation containing only the file
// magic, durably: the contents and the directory entry are both synced
// before it returns.
func createLogFile(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(logPath(dir, gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(fileMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open recovers the directory's durable state and opens it for writing:
// the newest valid checkpoint is loaded, the log tail replayed (a torn
// final record is truncated away), publish hooks are attached to every
// recovered appender, and the background checkpoint loop starts.
// An empty or missing directory opens as an empty catalog.
func Open(dir string, opts Options) (*Manager, *Recovered, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, lay, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	// Drop a checkpoint temp file left by a crash mid-checkpoint: the
	// rename never happened, so it holds nothing recovery used.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap.tmp")); len(tmps) > 0 {
		for _, t := range tmps {
			os.Remove(t)
		}
	}

	var f *os.File
	var gen uint64
	switch {
	case len(lay.logGens) == 0:
		// Fresh directory (or checkpoint-only): start the generation
		// after the checkpoint so its records sort later.
		gen = lay.ckptGen + 1
		f, err = createLogFile(dir, gen)
	case lay.tornGen == lay.logGens[len(lay.logGens)-1] && lay.tornOff < int64(len(fileMagic)):
		// The newest log died before even its magic hit disk: recreate
		// it in place rather than appending to garbage.
		gen = lay.logGens[len(lay.logGens)-1]
		f, err = createLogFile(dir, gen)
	default:
		gen = lay.logGens[len(lay.logGens)-1]
		if lay.tornGen == gen {
			// Truncate the torn tail so the file is exactly its valid
			// record prefix before appending after it.
			if err = os.Truncate(logPath(dir, gen), lay.tornOff); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", logPath(dir, gen), err)
			}
		}
		f, err = os.OpenFile(logPath(dir, gen), os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, nil, err
	}

	var walBytes int64
	for _, g := range lay.logGens {
		if fi, err := os.Stat(logPath(dir, g)); err == nil {
			walBytes += fi.Size()
		}
	}
	if walBytes == 0 {
		walBytes = int64(len(fileMagic))
	}

	m := &Manager{
		dir:      dir,
		opts:     opts,
		f:        f,
		fw:       newFrameWriter(f),
		gen:      gen,
		walBytes: walBytes,
		apps:     map[string]*table.Appender{},
		ckptCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	for _, app := range rec.Appenders {
		key := strings.ToLower(app.Name())
		m.apps[key] = app
		m.order = append(m.order, key)
		app.SetPublishHook(m.publishHook)
	}
	m.wg.Add(1)
	go m.checkpointLoop()
	return m, rec, nil
}

// Track makes a newly registered table durable: it journals a
// registration record (carrying the adopted initial contents) and
// attaches the publish hook so every subsequent chunk seal is logged.
// Meant to be installed as the catalog's RegisterHook — the catalog
// calls it before the table becomes visible, so under PolicyAlways the
// registration is durable before any query can touch the table.
func (m *Manager) Track(app *table.Appender) error {
	key := strings.ToLower(app.Name())
	m.mu.Lock()
	prev := m.apps[key]
	m.mu.Unlock()
	if prev != nil && prev != app {
		// Replacing a table: detach the old write head's hook first.
		// SetPublishHook waits out any in-flight publish, so no record
		// from the stale appender can land after the new registration
		// record — replay order stays consistent with catalog order.
		prev.SetPublishHook(nil)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errClosed
	}
	payload, err := encodeRegister(m.enc[:0], app.Snapshot().Table())
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.enc = payload[:0]
	if err := m.appendLocked(payload); err != nil {
		m.mu.Unlock()
		return err
	}
	if _, ok := m.apps[key]; !ok {
		m.order = append(m.order, key)
	}
	m.apps[key] = app
	m.mu.Unlock()

	app.SetPublishHook(m.publishHook)
	return nil
}

// publishHook is the table.PublishHook installed on every tracked
// appender: it journals the chunk about to be sealed and, under
// PolicyAlways, fsyncs before returning — the write-ahead commit point.
func (m *Manager) publishHook(name string, version uint64, ck *table.Chunk) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	payload, err := encodeChunk(m.enc[:0], name, version, ck)
	if err != nil {
		return err
	}
	m.enc = payload[:0]
	return m.appendLocked(payload)
}

// appendLocked frames, writes, and (per policy) syncs one record.
func (m *Manager) appendLocked(payload []byte) error {
	n, err := m.fw.writeFrame(payload)
	if err != nil {
		return err
	}
	// Flush to the OS per record regardless of policy: a process crash
	// (without an OS crash) then loses nothing under any policy.
	if err := m.fw.flush(); err != nil {
		return err
	}
	if m.opts.Fsync == PolicyAlways {
		if err := m.f.Sync(); err != nil {
			return err
		}
	}
	m.walBytes += n
	m.sinceCkpt += n
	if m.opts.CheckpointBytes > 0 && m.sinceCkpt >= m.opts.CheckpointBytes {
		select {
		case m.ckptCh <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
	return nil
}

func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.ckptCh:
			// Best effort: a failed automatic checkpoint leaves the log
			// growing; the next byte-threshold crossing retries it.
			m.Checkpoint() //nolint:errcheck
		}
	}
}

// Checkpoint serializes the whole catalog into a compact snapshot file
// and deletes the log generations it supersedes, bounding replay time.
//
// Sequence (crash-safe at every step): rotate to a fresh log generation
// K; barrier every appender so any record already written to the old
// logs is reflected in its snapshot; serialize those snapshots to
// ckpt-K.snap.tmp; fsync and rename into place; delete logs and
// checkpoints of generations < K. A crash before the rename leaves the
// old checkpoint + full logs authoritative; a crash after it leaves
// stale files that recovery ignores and the next checkpoint deletes.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errClosed
	}
	nextGen := m.gen + 1
	m.mu.Unlock()

	nf, err := createLogFile(m.dir, nextGen)
	if err != nil {
		return err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		nf.Close()
		os.Remove(logPath(m.dir, nextGen))
		return errClosed
	}
	oldF, oldFw := m.f, m.fw
	m.f, m.fw = nf, newFrameWriter(nf)
	m.gen = nextGen
	m.sinceCkpt = 0
	m.walBytes += int64(len(fileMagic))
	apps := make([]*table.Appender, 0, len(m.order))
	for _, k := range m.order {
		apps = append(apps, m.apps[k])
	}
	m.mu.Unlock()

	// The old generation takes no further writes; flush whatever the
	// buffered writer still holds so the old logs stay a complete record
	// stream in case this checkpoint fails and they remain authoritative.
	oldFw.flush() //nolint:errcheck // every record was already flushed to the OS; PolicyOff tolerates loss
	oldF.Close()

	// Barrier, then capture: any chunk whose record went to the old logs
	// was sealed under the appender mutex, so after the barrier it is
	// visible in the snapshot — the checkpoint fully covers the logs it
	// is about to delete.
	snaps := make([]*table.Snapshot, len(apps))
	for i, a := range apps {
		a.Barrier()
		snaps[i] = a.Snapshot()
	}

	if err := writeCheckpoint(m.dir, nextGen, snaps); err != nil {
		return err
	}

	// Delete superseded generations. Failures here are cosmetic —
	// recovery ignores anything older than the newest valid checkpoint.
	for _, p := range staleFiles(m.dir, nextGen) {
		os.Remove(p)
	}

	m.checkpoints.Add(1)
	m.lastCkptMilli.Store(time.Now().UnixMilli())
	return nil
}

// writeCheckpoint serializes the captured snapshots as a register +
// chunk record stream, footer-terminated, and renames it into place.
func writeCheckpoint(dir string, gen uint64, snaps []*table.Snapshot) error {
	tmp := ckptPath(dir, gen) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.WriteString(fileMagic); err != nil {
		return cleanup(err)
	}
	fw := newFrameWriter(f)
	var buf []byte
	for _, s := range snaps {
		if buf, err = writeSnapshotRecords(fw, buf, s); err != nil {
			return cleanup(err)
		}
	}
	footer := append(buf[:0], recCheckpointEnd)
	footer = appendUvarint(footer, uint64(len(snaps)))
	if _, err := fw.writeFrame(footer); err != nil {
		return cleanup(err)
	}
	if err := fw.flush(); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, ckptPath(dir, gen)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// writeSnapshotRecords emits one table's checkpoint records: a register
// record with the initial contents, then one chunk record per remaining
// sealed chunk, versioned exactly as the original publishes were. The
// version arithmetic inverts the Appender's: registration publishes
// version 1 (sealing a chunk only when the adopted table had rows), and
// each later chunk is one publish, so version == chunks means the first
// chunk belongs to the registration and version == chunks+1 means the
// table was registered empty.
func writeSnapshotRecords(fw *frameWriter, buf []byte, s *table.Snapshot) ([]byte, error) {
	nchunks := uint64(s.NumChunks())
	v := s.Version()
	var firstInRegister bool
	switch {
	case nchunks == v:
		firstInRegister = true
	case nchunks == v-1:
		firstInRegister = false
	default:
		return buf, fmt.Errorf("wal: checkpoint %q: %d chunks inconsistent with version %d", s.Name(), nchunks, v)
	}

	initial := &table.Table{Name: s.Name()}
	if firstInRegister {
		ck := s.Chunk(0)
		initial.Columns = make([]table.Column, ck.NumCols())
		for i := range initial.Columns {
			initial.Columns[i] = *ck.Column(i)
		}
	} else {
		names, kinds := s.Schema()
		initial.Columns = make([]table.Column, len(names))
		for i := range initial.Columns {
			initial.Columns[i] = table.NewColumn(names[i], kinds[i])
		}
	}
	payload, err := encodeRegister(buf[:0], initial)
	if err != nil {
		return buf, err
	}
	if _, err := fw.writeFrame(payload); err != nil {
		return payload[:0], err
	}

	start := 0
	version := uint64(2)
	if firstInRegister {
		start = 1
	}
	for i := start; i < int(nchunks); i++ {
		payload, err = encodeChunk(payload[:0], s.Name(), version, s.Chunk(i))
		if err != nil {
			return payload[:0], err
		}
		if _, err := fw.writeFrame(payload); err != nil {
			return payload[:0], err
		}
		version++
	}
	return payload[:0], nil
}

// staleFiles lists log and checkpoint files of generations older than
// keep.
func staleFiles(dir string, keep uint64) []string {
	var out []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range ents {
		var g uint64
		switch {
		case parseGen(e.Name(), "wal-", ".log", &g),
			parseGen(e.Name(), "ckpt-", ".snap", &g):
			if g < keep {
				out = append(out, filepath.Join(dir, e.Name()))
			}
		}
	}
	return out
}

func parseGen(name, prefix, suffix string, out *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return false
	}
	var g uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return false
		}
		g = g*10 + uint64(c-'0')
	}
	*out = g
	return true
}

func sortedGens(dir, prefix, suffix string) []uint64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		if parseGen(e.Name(), prefix, suffix, &g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// Stats returns a point-in-time view of the durability counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{WALBytes: m.walBytes, Generation: m.gen}
	for _, a := range m.apps {
		if v := a.Snapshot().Version(); v > s.SnapshotVersion {
			s.SnapshotVersion = v
		}
	}
	m.mu.Unlock()
	s.Checkpoints = m.checkpoints.Load()
	s.LastCheckpointUnixMilli = m.lastCkptMilli.Load()
	return s
}

// Close flushes and syncs the log, stops the background loops, and
// detaches nothing: publishes on still-referenced appenders fail with
// an error rather than silently losing durability.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.stopCh)
	err1 := m.fw.flush()
	err2 := m.f.Sync()
	err3 := m.f.Close()
	m.mu.Unlock()
	m.wg.Wait()
	return errors.Join(err1, err2, err3)
}
