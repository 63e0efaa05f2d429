package table

import (
	"fmt"
	"slices"
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
	// coders parallels arena once the table reaches codeMinRows rows:
	// each column's code index (see code).
	coders []coder
	// zoned parallels arena once the table holds a full block: each int
	// column's zones, of which the column holds a capped prefix (see
	// zone).
	zoned [][]zone
	// scratch holds the row AppendText is parsing, reused across rows.
	scratch []Value

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
	for i := range a.arena {
		// The arena's codes and zones are its own, computed at publish.
		a.arena[i].coding, a.arena[i].zones = nil, nil
	}
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

// AppendText buffers one row of text cells into the pending chunk, each
// cell its column kind's Parse; a missing cell is NULL and cells past the
// last column are ignored. A cell the kind refuses refuses the whole row
// with a *CellError and appends nothing: the row is parsed into a reused
// scratch row first, then goes straight into the arena, so nothing is
// allocated per row.
func (a *Appender) AppendText(cells []string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scratch = a.scratch[:0]
	for i := range a.arena {
		cell := "" // a missing cell is blank: NULL
		if i < len(cells) {
			cell = cells[i]
		}
		v, ok := a.arena[i].Kind.Parse(cell)
		if !ok {
			return &CellError{Column: a.arena[i].Name, Kind: a.arena[i].Kind, Cell: cell}
		}
		a.scratch = append(a.scratch, v)
	}
	for i, v := range a.scratch {
		a.arena[i].Append(v)
	}
	return nil
}

// AppendTableExact bulk-appends every row of t into the pending chunk,
// columns matched positionally, slab-at-a-time (see Column.AppendColumn):
// nothing is parsed, so each of t's columns must have its arena column's
// kind, and a table whose shape differs is refused whole. WAL replay
// appends each logged chunk this way.
func (a *Appender) AppendTableExact(t *Table) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(t.Columns) != len(a.arena) {
		return fmt.Errorf("table %s: append table with %d columns to %d columns", a.name, len(t.Columns), len(a.arena))
	}
	for i := range a.arena {
		if k := t.Columns[i].Kind; k != a.arena[i].Kind {
			return fmt.Errorf("table %s: append a %s column to column %q of kind %s", a.name, k, a.arena[i].Name, a.arena[i].Kind)
		}
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
		a.code(n)
		a.zone(n)
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

// Dictionary codes (Column.Codes) are assigned by the Appender when it
// publishes, by one rule: a typed string column starts keeping codes at
// the first publish where its table holds codeMinRows rows, every row so
// far coded then, and stops for good once its dictionary holds more than
// codeMaxDict entries and more than half its rows. Like every other slab, codes and dictionary only grow, so the
// capacity-capped prefixes published snapshots hold are never written.
const (
	codeMinRows = 4096
	codeMaxDict = 4096
)

// coder is the Appender's state for one column's codes: the code of each
// string of its dictionary while the column is coded.
type coder struct {
	ids map[string]int32
	off bool // stopped for good, or never to start: not a typed string column
	// seen holds, by a fingerprint of a string — its length, first and
	// last bytes — the code last found for such a string, plus one. A
	// small dictionary's strings mostly differ there, so most rows find
	// their code without hashing.
	seen [64]int32
}

// lookup returns s's code, if the dictionary has s: through seen while
// the dictionary is no larger than it, a hit checked against dict, and
// through ids otherwise.
func (cd *coder) lookup(s string, dict []string) (int32, bool) {
	if len(dict) > len(cd.seen) {
		code, ok := cd.ids[s]
		return code, ok
	}
	slot := &cd.seen[0]
	if len(s) > 0 {
		slot = &cd.seen[(len(s)*7^int(s[0])*3^int(s[len(s)-1]))%len(cd.seen)]
	}
	if code := *slot - 1; code >= 0 && dict[code] == s {
		return code, true
	}
	code, ok := cd.ids[s]
	if ok {
		*slot = code + 1
	}
	return code, ok
}

// code assigns codes to rows [len(codes), n) of every coded column of the
// arena, by the rule above.
func (a *Appender) code(n int) {
	if n < codeMinRows {
		return
	}
	if a.coders == nil {
		a.coders = make([]coder, len(a.arena))
	}
	for i := range a.arena {
		col, cd := &a.arena[i], &a.coders[i]
		if cd.off {
			continue
		}
		if col.Kind != KindString {
			cd.off = true
			continue
		}
		if col.coding == nil {
			col.coding, cd.ids = &coding{}, map[string]int32{}
		}
		if !cd.extend(col.coding, col.strs, col.nulls, n) {
			col.coding, cd.ids, cd.off = nil, nil, true
		}
	}
}

// extend codes rows [len(codes), n) of strs. It reports false, and leaves
// c as it was, when the dictionary outgrows the rule.
func (cd *coder) extend(c *coding, strs []string, nulls []bool, n int) bool {
	codes, dict := slices.Grow(c.codes, n-len(c.codes)), c.dict
	for r := len(codes); r < n; r++ {
		var code int32
		if !nulls[r] {
			var ok bool
			if code, ok = cd.lookup(strs[r], dict); !ok {
				if len(dict) >= codeMaxDict && 2*(len(dict)+1) > n {
					return false
				}
				code = int32(len(dict))
				dict = append(dict, strs[r])
				cd.ids[strs[r]] = code
			}
		}
		codes = append(codes, code)
	}
	c.codes, c.dict = codes, dict
	return true
}
