package datalab

import (
	"time"

	"datalab/internal/wal"
)

// DurabilityOptions configures the write-ahead log of a durable
// platform. The zero value is the safest configuration: fsync on every
// publish, 64 MiB automatic checkpoints.
type DurabilityOptions struct {
	// Fsync is the durability policy: "always" (default — every publish
	// is fsynced before it returns and becomes visible) or "off" (the OS
	// flushes when it pleases; a process crash loses nothing, an OS crash
	// any unsynced suffix).
	Fsync string
	// CheckpointBytes triggers an automatic checkpoint — compacting the
	// log into a snapshot file and deleting the replayed prefix — after
	// this many log bytes (default 64 MiB; negative disables).
	CheckpointBytes int64
}

// DurabilityStats is a point-in-time view of the durability layer,
// zero-valued (Enabled false) on a memory-only platform.
type DurabilityStats struct {
	// Enabled reports whether this platform was opened with OpenDurable.
	Enabled bool
	// WALBytes is the cumulative log bytes written, including the
	// prefix recovered at open.
	WALBytes int64
	// Checkpoints counts checkpoints completed since open;
	// LastCheckpointUnixMilli is the newest one's completion time.
	Checkpoints             int64
	LastCheckpointUnixMilli int64
	// SnapshotVersion is the highest published snapshot version across
	// durable tables — the value recovery reproduces after a crash.
	SnapshotVersion uint64
	// RecoveredRows and ReplayDuration describe the recovery this
	// platform booted from (both zero for a fresh data directory).
	RecoveredRows  int64
	ReplayDuration time.Duration
	// LogError is the text of the error that stopped the log — its first
	// failed write, flush or fsync — and "" while the log takes records.
	// A stopped log refuses every registration, publish and checkpoint
	// with that error until the data directory is reopened.
	LogError string
}

// OpenDurable creates a platform whose catalog is backed by a
// write-ahead log in dir: every table registration and every published
// chunk is journaled before it becomes visible, and reopening the same
// directory recovers every table at its exact pre-crash snapshot
// version (replaying the newest checkpoint plus the log tail, stopping
// cleanly at a torn final record).
//
// The returned platform behaves exactly like New's otherwise; queries
// and snapshot isolation are untouched because durability hooks sit on
// the write path only. Close releases the log.
func OpenDurable(dir string, d DurabilityOptions, opts ...Option) (*Platform, error) {
	p, err := New(opts...)
	if err != nil {
		return nil, err
	}
	policy, err := wal.ParsePolicy(d.Fsync)
	if err != nil {
		return nil, err
	}
	m, rec, err := wal.Open(dir, wal.Options{
		Fsync:           policy,
		CheckpointBytes: d.CheckpointBytes,
	})
	if err != nil {
		return nil, err
	}
	for _, app := range rec.Appenders {
		// Recovered write heads are already durable and already hooked —
		// adopt them without re-journaling a registration.
		p.catalog.RegisterAppender(app)
	}
	p.catalog.SetRegisterHook(m.Track)
	p.wal = m
	p.recovered = rec
	return p, nil
}

// DurabilityStats reports the durability counters; on a memory-only
// platform every field is zero and Enabled is false.
func (p *Platform) DurabilityStats() DurabilityStats {
	if p.wal == nil {
		return DurabilityStats{}
	}
	s := p.wal.Stats()
	return DurabilityStats{
		Enabled:                 true,
		WALBytes:                s.WALBytes,
		Checkpoints:             s.Checkpoints,
		LastCheckpointUnixMilli: s.LastCheckpointUnixMilli,
		SnapshotVersion:         s.SnapshotVersion,
		RecoveredRows:           p.recovered.RecoveredRows,
		ReplayDuration:          p.recovered.ReplayDuration,
		LogError:                s.LogError,
	}
}

// Checkpoint forces a checkpoint now: the catalog is serialized into a
// compact snapshot file and the superseded log prefix deleted. No-op
// (nil) on a memory-only platform.
func (p *Platform) Checkpoint() error {
	if p.wal == nil {
		return nil
	}
	return p.wal.Checkpoint()
}

// Close flushes and closes the write-ahead log. Publishing to a durable
// table after Close fails rather than silently losing durability.
// Memory-only platforms close as a no-op. Safe to call twice.
func (p *Platform) Close() error {
	if p.wal == nil {
		return nil
	}
	return p.wal.Close()
}
