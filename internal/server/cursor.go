package server

import (
	"errors"
	"sync"
	"time"

	"datalab/internal/sqlengine"
)

// errCursorClosed is the registry-level closed condition; it wraps the
// engine's ErrResultClosed contract (Result.Next after Close is defined
// to yield nothing) into an explicit error for the wire.
var errCursorClosed = errors.New("server: cursor is closed")

// cursor is a server-side cursor: a named, pageable handle over one
// executed Result. Result is a single-consumer iterator, so every access
// serializes on the cursor mutex; paginated re-reads are served by
// Result.Rewind — results are always rewindable (lazy ones view a pinned
// immutable snapshot, materialized ones own their storage), which is the
// design answer to "Result is single-consumer": share by rewinding one
// handle, never by concurrent iteration.
type cursor struct {
	id      string
	sql     string
	created time.Time
	sess    *session // the session it was created under; nil = none

	mu       sync.Mutex
	res      *sqlengine.Result
	rowsSent int // rows emitted since creation or last rewind
	closed   bool
}

func newCursor(sql string, res *sqlengine.Result, sess *session) *cursor {
	return &cursor{id: newID(), sql: sql, created: time.Now(), res: res, sess: sess}
}

// orphaned reports whether the cursor's session has closed: a cursor must
// not outlive the session it was created under.
func (c *cursor) orphaned() bool {
	return c.sess != nil && c.sess.ctx.Err() != nil
}

// page is one cursor read: up to maxRows rows (rounded up to whole result
// batches), plus position bookkeeping for the wire.
type page struct {
	rows     []byte // the rows as appendRows encodes them
	numRows  int
	rowsSent int  // cumulative rows emitted including this page
	done     bool // the cursor is exhausted after this page
}

// next returns the next page of up to maxRows rows. Pages are composed of
// whole Result batches (≤1024 rows each), so a page may overshoot maxRows
// by at most one batch. maxRows <= 0 means one batch. Rows are encoded
// here, under the mutex, because a batch is valid only until the following
// Result.Next; writing the bytes out is the caller's, outside it.
func (c *cursor) next(maxRows int) (*page, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errCursorClosed
	}
	p := &page{}
	for {
		b := c.res.Next()
		if b == nil {
			p.done = true
			break
		}
		if p.numRows > 0 {
			p.rows = append(p.rows, ',')
		}
		p.rows = appendRows(p.rows, b)
		p.numRows += b.NumRows()
		c.rowsSent += b.NumRows()
		if p.numRows >= maxRows || maxRows <= 0 {
			p.done = c.rowsSent >= c.res.NumRows()
			break
		}
	}
	p.rowsSent = c.rowsSent
	return p, nil
}

// rewind moves the cursor back to the first row for a paginated re-read.
func (c *cursor) rewind() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errCursorClosed
	}
	if err := c.res.Rewind(); err != nil {
		return err
	}
	c.rowsSent = 0
	return nil
}

// close releases the underlying Result (un-pinning its snapshot).
// Idempotent.
func (c *cursor) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	_ = c.res.Close()
}

// stats returns the cursor's position under its lock.
func (c *cursor) stats() (rowsSent, rowsTotal int, closed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowsSent, c.res.NumRows(), c.closed
}
