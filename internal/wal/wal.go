package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// LogError is the text of the error that stopped the log, and ""
	// while the log takes records.
	LogError string
}

var errClosed = errors.New("wal: manager closed")

// Manager owns one durable catalog directory: the open log generation,
// the tracked table write heads, and the checkpointer.
// All record writes funnel through one mutex, matching the storage
// layer's single-writer-per-table design.
type Manager struct {
	fs   fsys
	dir  string
	opts Options

	mu        sync.Mutex
	f         file
	fw        *frameWriter
	gen       uint64
	walBytes  int64
	sinceCkpt int64
	closed    bool
	err       error // what stopped the log (nil: it takes records)
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

// createFile writes a new file holding the magic and then body's frames
// (none when body is nil) and makes it durable before returning it open:
// first its contents are synced, then its directory entry. With viaTmp it
// is written as path+".tmp" and renamed into place, so it exists whole or
// not at all. On failure it removes what it wrote.
func createFile(fs fsys, path string, viaTmp bool, body func(*frameWriter) error) (file, error) {
	name := path
	if viaTmp {
		name += ".tmp"
	}
	f, _, err := fs.open(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	_, err = f.Write([]byte(fileMagic))
	if err == nil && body != nil {
		fw := newFrameWriter(f)
		if err = body(fw); err == nil {
			err = fw.flush()
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil && viaTmp {
		err = fs.rename(name, path)
	}
	if err == nil {
		err = fs.syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		fs.remove(name)
		return nil, err
	}
	return f, nil
}

// Open recovers the directory's durable state and opens it for writing:
// the newest valid checkpoint is loaded, the log tail replayed (a torn
// final record is truncated away), publish hooks are attached to every
// recovered appender, and the background checkpoint loop starts.
// An empty or missing directory opens as an empty catalog.
func Open(dir string, opts Options) (*Manager, *Recovered, error) {
	return open(osFS{}, dir, opts)
}

func open(fs fsys, dir string, opts Options) (*Manager, *Recovered, error) {
	opts = opts.withDefaults()
	if err := fs.mkdirAll(dir); err != nil {
		return nil, nil, err
	}
	rec, lay, err := recoverDir(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	// Drop checkpoint temp files left by a crash mid-checkpoint: the
	// rename never happened, so they hold nothing recovery used.
	for _, t := range lay.tmps {
		fs.remove(t)
	}

	gen, walBytes := lay.lastGen, lay.walBytes
	var f file
	if gen == 0 || lay.lastEnd < int64(len(fileMagic)) {
		// A fresh directory (or one holding only a checkpoint) starts the
		// generation after the checkpoint, so its records sort later; a
		// newest log that died before even its magic hit disk is
		// recreated in place rather than appended to.
		if gen == 0 {
			gen = lay.ckptGen + 1
		}
		f, err = createFile(fs, logPath(dir, gen), false, nil)
		walBytes += int64(len(fileMagic))
	} else {
		if rec.TornTail {
			// Truncate the torn tail so the file is exactly its valid
			// record prefix before appending after it.
			if err = fs.truncate(logPath(dir, gen), lay.lastEnd); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", logPath(dir, gen), err)
			}
		}
		f, _, err = fs.open(logPath(dir, gen), os.O_WRONLY|os.O_APPEND)
	}
	if err != nil {
		return nil, nil, err
	}

	m := &Manager{
		fs:       fs,
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
	replacing := prev != nil && prev != app
	if replacing {
		// Replacing a table: detach the old write head's hook first.
		// SetPublishHook waits out any in-flight publish, so no record
		// from the stale appender can land after the new registration
		// record — replay order stays consistent with catalog order.
		prev.SetPublishHook(nil)
	}

	m.mu.Lock()
	payload, err := encodeRegister(m.enc[:0], app.Snapshot().Table())
	if err == nil {
		m.enc = payload[:0]
		err = m.appendLocked(payload)
	}
	if err == nil {
		if _, ok := m.apps[key]; !ok {
			m.order = append(m.order, key)
		}
		m.apps[key] = app
	}
	m.mu.Unlock()
	if err != nil {
		if replacing {
			// The catalog keeps the old table registered, so it stays
			// journaled: its publishes are logged, or refused with the
			// error that stopped the log, never acknowledged unlogged.
			prev.SetPublishHook(m.publishHook)
		}
		return err
	}
	app.SetPublishHook(m.publishHook)
	return nil
}

// publishHook is the table.PublishHook installed on every tracked
// appender: it journals the chunk about to be sealed and, under
// PolicyAlways, fsyncs before returning — the write-ahead commit point.
func (m *Manager) publishHook(name string, version uint64, ck *table.Chunk) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	payload, err := encodeChunk(m.enc[:0], name, version, ck)
	if err != nil {
		return err
	}
	m.enc = payload[:0]
	return m.appendLocked(payload)
}

// liveLocked is nil while the log takes records: errClosed after Close,
// else the error that stopped it.
func (m *Manager) liveLocked() error {
	if m.closed {
		return errClosed
	}
	return m.err
}

// appendLocked frames, writes, and (per policy) syncs one record.
//
// The first write, flush or fsync that fails stops the log until the
// directory is reopened: every later record is refused with the same
// error. The failed record may be on disk in part, in whole or not at
// all, so it must stay the log's last — recovery cuts it if torn — and
// no record may be acknowledged behind bytes the disk may have dropped.
// A too-large record is refused before any byte is written and stops
// nothing.
func (m *Manager) appendLocked(payload []byte) error {
	if err := m.liveLocked(); err != nil {
		return err
	}
	n, err := m.fw.writeFrame(payload)
	var tooLarge *RecordTooLargeError
	if errors.As(err, &tooLarge) {
		return err
	}
	// Flush to the OS per record regardless of policy: a process crash
	// (without an OS crash) then loses nothing under any policy.
	if err == nil {
		err = m.fw.flush()
	}
	if err == nil && m.opts.Fsync == PolicyAlways {
		err = m.f.Sync()
	}
	if err != nil {
		m.err = fmt.Errorf("wal: log %s stopped: %w", logPath(m.dir, m.gen), err)
		return m.err
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
// A stopped log is not rotated: its failed record must stay in the final
// generation, the only place recovery cuts a torn record.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	m.mu.Lock()
	err := m.liveLocked()
	nextGen := m.gen + 1
	m.mu.Unlock()
	if err != nil {
		return err
	}

	nf, err := createFile(m.fs, logPath(m.dir, nextGen), false, nil)
	if err != nil {
		return err
	}

	m.mu.Lock()
	if err := m.liveLocked(); err != nil {
		m.mu.Unlock()
		nf.Close()
		// Best effort, as the log already failed: a stopped log's failed
		// record must stay in its final generation.
		m.fs.remove(logPath(m.dir, nextGen))
		m.fs.syncDir(m.dir)
		return err
	}
	// The old generation takes no further writes. The log is live, so
	// every record in it was flushed (and under PolicyAlways synced)
	// before its publish returned: it closes with nothing buffered.
	oldF := m.f
	m.f, m.fw = nf, newFrameWriter(nf)
	m.gen = nextGen
	m.sinceCkpt = 0
	m.walBytes += int64(len(fileMagic))
	apps := make([]*table.Appender, 0, len(m.order))
	for _, k := range m.order {
		apps = append(apps, m.apps[k])
	}
	m.mu.Unlock()
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

	if err := writeCheckpoint(m.fs, m.dir, nextGen, snaps); err != nil {
		return err
	}

	// Delete superseded generations. Failures here are cosmetic —
	// recovery ignores anything older than the newest valid checkpoint.
	if d, err := listDir(m.fs, m.dir); err == nil {
		for _, g := range d.logs {
			if g < nextGen {
				m.fs.remove(logPath(m.dir, g))
			}
		}
		for _, g := range d.ckpts {
			if g < nextGen {
				m.fs.remove(ckptPath(m.dir, g))
			}
		}
	}

	m.checkpoints.Add(1)
	m.lastCkptMilli.Store(time.Now().UnixMilli())
	return nil
}

// writeCheckpoint serializes the captured snapshots as a register +
// chunk record stream, footer-terminated, and renames it into place.
func writeCheckpoint(fs fsys, dir string, gen uint64, snaps []*table.Snapshot) error {
	f, err := createFile(fs, ckptPath(dir, gen), true, func(fw *frameWriter) error {
		var buf []byte
		var err error
		for _, s := range snaps {
			if buf, err = writeSnapshotRecords(fw, buf, s); err != nil {
				return err
			}
		}
		footer := append(buf[:0], recCheckpointEnd)
		footer = appendUvarint(footer, uint64(len(snaps)))
		_, err = fw.writeFrame(footer)
		return err
	})
	if err != nil {
		return err
	}
	return f.Close()
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

// dirFiles is one listing of a data directory, by kind of file.
type dirFiles struct {
	logs, ckpts []uint64 // generations, ascending
	tmps        []string // paths of checkpoints a crash left unrenamed
}

func listDir(fs fsys, dir string) (dirFiles, error) {
	names, err := fs.list(dir)
	if err != nil {
		return dirFiles{}, err
	}
	var d dirFiles
	for _, name := range names {
		var g uint64
		switch {
		case parseGen(name, "wal-", ".log", &g):
			d.logs = append(d.logs, g)
		case parseGen(name, "ckpt-", ".snap", &g):
			d.ckpts = append(d.ckpts, g)
		case parseGen(name, "ckpt-", ".snap.tmp", &g):
			d.tmps = append(d.tmps, filepath.Join(dir, name))
		}
	}
	slices.Sort(d.logs)
	slices.Sort(d.ckpts)
	return d, nil
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

// Stats returns a point-in-time view of the durability counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{WALBytes: m.walBytes, Generation: m.gen}
	if m.err != nil {
		s.LogError = m.err.Error()
	}
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
// an error rather than silently losing durability. A stopped log is
// neither flushed nor synced again, and Close returns what stopped it.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.stopCh)
	err := m.err
	if err == nil {
		err = errors.Join(m.fw.flush(), m.f.Sync())
	}
	err = errors.Join(err, m.f.Close())
	m.mu.Unlock()
	m.wg.Wait()
	return err
}
