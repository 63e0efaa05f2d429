package table

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Streaming ingest storage: a table's rows live in one growing column
// arena owned by its Appender. Readers never see the arena directly —
// they see Snapshots, immutable views published with one atomic pointer
// swap. A snapshot's columns are capacity-capped prefix views of the
// arena, so publication copies nothing: the writer appends strictly
// beyond every published length (reallocation leaves old backing arrays
// untouched), which is what makes lock-free snapshot reads safe — a
// reader's indices and a writer's appends never touch the same memory.
//
// Sealed rows are additionally grouped into Chunks, one per Publish call:
// immutable horizontal slices [lo, hi) that give ingest-aware consumers
// (stats, property tests, future chunk-parallel scans) the batch
// structure without any extra storage.

// Chunk is one sealed, immutable horizontal slice of a table: the rows
// published by a single Publish call. Its columns are zero-copy views of
// the table's storage and must never be mutated.
type Chunk struct {
	lo, hi int
	cols   []Column
}

// Bounds returns the chunk's half-open row range [lo, hi) in table
// coordinates.
func (ch *Chunk) Bounds() (lo, hi int) { return ch.lo, ch.hi }

// NumRows returns the number of rows in the chunk.
func (ch *Chunk) NumRows() int { return ch.hi - ch.lo }

// NumCols returns the number of columns.
func (ch *Chunk) NumCols() int { return len(ch.cols) }

// Column returns the chunk's i-th column view. Row indices are
// chunk-local: Column(i).Value(0) is table row lo.
func (ch *Chunk) Column(i int) *Column { return &ch.cols[i] }

// Snapshot is an immutable point-in-time view of a table: the schema, a
// flat zero-copy column view of every sealed row, and the sealed chunk
// list. Snapshots are safe to share across goroutines without locks; a
// query (or an open Result cursor) that holds a snapshot keeps reading
// exactly those rows no matter how much ingest happens after.
type Snapshot struct {
	tbl     Table // flat view: Columns are prefix views of the arena
	chunks  []Chunk
	rows    int
	version uint64
}

// Name returns the table name.
func (s *Snapshot) Name() string { return s.tbl.Name }

// NumRows returns the snapshot's row count.
func (s *Snapshot) NumRows() int { return s.rows }

// NumChunks returns the number of sealed chunks.
func (s *Snapshot) NumChunks() int { return len(s.chunks) }

// Chunk returns the i-th sealed chunk, oldest first.
func (s *Snapshot) Chunk(i int) *Chunk { return &s.chunks[i] }

// Version returns the snapshot's publication sequence number, starting at
// 1 for the snapshot published on registration and incremented by every
// Publish that sealed at least one row.
func (s *Snapshot) Version() uint64 { return s.version }

// Table returns the snapshot as a flat table sharing the snapshot's
// storage. The result is strictly read-only: mutating its columns would
// corrupt the snapshot for every other holder.
func (s *Snapshot) Table() *Table { return &s.tbl }

// Schema returns the snapshot's column names and kinds as fresh slices.
func (s *Snapshot) Schema() ([]string, []Kind) {
	names := make([]string, len(s.tbl.Columns))
	kinds := make([]Kind, len(s.tbl.Columns))
	for i := range s.tbl.Columns {
		names[i] = s.tbl.Columns[i].Name
		kinds[i] = s.tbl.Columns[i].Kind
	}
	return names, kinds
}

// PublishHook observes chunk seals for durability layers. Publish calls
// the hook exactly once per chunk it is about to seal — before the new
// snapshot becomes visible to readers — with the table name, the version
// the publish will create, and the chunk contents (a read-only view of
// the arena). A non-nil error aborts the publish: nothing is sealed, the
// staged rows stay pending and invisible, and the same rows are retried
// by the next Publish. That ordering is what makes the hook a write-ahead
// commit point: a chunk is durable before any reader can observe it.
type PublishHook func(table string, version uint64, ck *Chunk) error

// Appender is a table's write head: it owns the column arena, batches
// incoming rows into a pending (unpublished) chunk, and publishes
// immutable snapshots. Appends and publishes are serialized by the
// appender's mutex; Snapshot is lock-free and may be called from any
// number of readers concurrently with ingest.
//
// Append buffers rows without making them visible; Publish seals the
// pending rows into a chunk and swaps in a new snapshot. Batching
// amortizes both the per-snapshot allocation and the cache-miss cost
// readers pay when they move to a new snapshot.
type Appender struct {
	mu     sync.Mutex
	arena  []Column // writer-owned; snapshots view prefixes of this
	name   string
	sealed int     // rows covered by the current snapshot
	chunks []Chunk // sealed chunks; snapshots share prefixes of this slice
	hook   PublishHook

	version uint64
	cur     atomic.Pointer[Snapshot]
}

// NewAppender seals t as the table's initial contents (one chunk when
// non-empty) and publishes version 1. The column data is adopted
// zero-copy — the caller must stop mutating t — but the column headers
// are copied, so arena growth never changes t's own length or storage
// pointers. In particular an appender built over a snapshot view appends
// past the view's capacity cap, reallocating instead of touching the
// snapshot.
func NewAppender(t *Table) *Appender {
	a := &Appender{name: t.Name, arena: append([]Column(nil), t.Columns...)}
	a.publishLocked()
	return a
}

// Name returns the table name.
func (a *Appender) Name() string { return a.name }

// Snapshot returns the current published snapshot without locking.
func (a *Appender) Snapshot() *Snapshot { return a.cur.Load() }

// SetPublishHook installs (or, with nil, removes) the durability hook
// called by every subsequent Publish. The snapshot already published is
// unaffected — only chunks sealed after this call flow through the hook.
func (a *Appender) SetPublishHook(h PublishHook) {
	a.mu.Lock()
	a.hook = h
	a.mu.Unlock()
}

// Barrier acquires and releases the append mutex, returning only after
// any publish in flight at the time of the call has completed. Durability
// checkpoints use it to order their state capture after every log record
// already written: a chunk logged before the barrier is guaranteed
// visible to Snapshot afterwards.
func (a *Appender) Barrier() {
	a.mu.Lock()
	//lint:ignore SA2001 the empty critical section is the point: the lock/unlock pair is the happens-before edge itself
	a.mu.Unlock()
}

// Kinds returns the declared column kinds.
func (a *Appender) Kinds() []Kind {
	a.mu.Lock()
	defer a.mu.Unlock()
	kinds := make([]Kind, len(a.arena))
	for i := range a.arena {
		kinds[i] = a.arena[i].Kind
	}
	return kinds
}

// Pending returns the number of buffered rows not yet covered by a
// published snapshot.
func (a *Appender) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rowsLocked() - a.sealed
}

func (a *Appender) rowsLocked() int {
	if len(a.arena) == 0 {
		return 0
	}
	return a.arena[0].Len()
}

// Append buffers rows into the pending chunk. Values are coerced to the
// column kinds (uncoercible values degrade that column to boxed storage,
// exactly like Table.AppendRow). The rows stay invisible to readers
// until Publish.
func (a *Appender) Append(rows ...[]Value) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, vals := range rows {
		if len(vals) != len(a.arena) {
			return fmt.Errorf("table %s: append %d values to %d columns", a.name, len(vals), len(a.arena))
		}
		for i := range a.arena {
			a.arena[i].Append(vals[i].Coerce(a.arena[i].Kind))
		}
	}
	return nil
}

// AppendTableExact bulk-appends every row of t into the pending chunk,
// columns matched positionally, preserving each cell's stored kind exactly
// (see Column.AppendColumn): no coercion to the arena's column kinds. WAL
// replay depends on this: a mixed-kind column logged from a degraded arena
// must come back byte-for-byte, not coerced into nulls.
func (a *Appender) AppendTableExact(t *Table) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(t.Columns) != len(a.arena) {
		return fmt.Errorf("table %s: append table with %d columns to %d columns", a.name, len(t.Columns), len(a.arena))
	}
	for i := range a.arena {
		a.arena[i].AppendColumn(&t.Columns[i])
	}
	return nil
}

// PublishErr seals the pending rows into a new chunk and atomically swaps
// in a snapshot covering every sealed row. With no pending rows it returns
// the current snapshot unchanged. Publication is O(columns): the new
// snapshot's columns are prefix views of the arena, not copies.
//
// When the publish hook rejects the commit (a durable table — for example
// an fsync failure), the pending rows stay staged and invisible, the
// current snapshot is returned unchanged, and the hook's error is
// reported. Memory-only appenders never return an error.
func (a *Appender) PublishErr() (*Snapshot, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.publishLocked()
}

func (a *Appender) publishLocked() (*Snapshot, error) {
	n := a.rowsLocked()
	if cur := a.cur.Load(); cur != nil && n == a.sealed {
		return cur, nil
	}
	if n > a.sealed {
		ck := Chunk{lo: a.sealed, hi: n, cols: make([]Column, len(a.arena))}
		for i := range a.arena {
			ck.cols[i] = a.arena[i].View(a.sealed, n)
		}
		// Write-ahead commit point: the chunk must be durable before any
		// reader can observe the snapshot that contains it. On hook error
		// nothing below runs — the rows stay pending for a retry.
		if a.hook != nil {
			if err := a.hook(a.name, a.version+1, &ck); err != nil {
				return a.cur.Load(), err
			}
		}
		// Appending to a.chunks never disturbs older snapshots: they hold
		// shorter prefixes of this slice, and growth either writes past
		// their length or reallocates.
		a.chunks = append(a.chunks, ck)
	}
	a.sealed = n
	a.version++
	s := &Snapshot{
		tbl:     Table{Name: a.name, Columns: make([]Column, len(a.arena))},
		chunks:  a.chunks,
		rows:    n,
		version: a.version,
	}
	for i := range a.arena {
		s.tbl.Columns[i] = a.arena[i].View(0, n)
	}
	a.cur.Store(s)
	return s, nil
}
