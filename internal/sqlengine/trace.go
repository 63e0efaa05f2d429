package sqlengine

import (
	"context"
	"time"
)

// Stage names one span of a request's time. The stages run in this order;
// a request enters a subset of them, some more than once (join once per
// JOIN, scan_filter also ahead of the joins, drain, encode and send once
// per batch or page).
type Stage uint8

const (
	StageRead       Stage = iota // decoding the request
	StageQueue                   // waiting for admission
	StagePlan                    // fingerprint, plan-cache lookup, parse and resolve
	StageScanFilter              // snapshot scan and WHERE, the filter before the joins included
	StageJoin                    // each join's pairs and gathers
	StageGroup                   // GROUP BY keys, grouping and HAVING
	StageWindow                  // window functions
	StageProject                 // the select list and ORDER BY keys; an aggregate folds here, where an item reads it
	StageSort                    // ORDER BY
	StageFinish                  // DISTINCT, OFFSET/LIMIT and the Result
	StageDrain                   // Result.Next
	StageEncode                  // rows to JSON bytes
	StageSend                    // a line's assembly, socket write and flush
	NumStages
)

var stageNames = [NumStages]string{"read", "queue", "plan", "scan_filter", "join", "group", "window", "project", "sort", "finish", "drain", "encode", "send"}

func (s Stage) String() string { return stageNames[s] }

// Trace is one request's clock: the reading at which it started, the
// reading of its last mark, and per stage the time and output rows marks
// charged to it. Mark charges the time since the previous mark to one
// stage, so the marks tile the request: the stages sum exactly to Total,
// the reading of the last mark. Lap moves the clock without charging a
// stage, for a request whose stages are not split yet (ingest).
//
// A nil *Trace records nothing; marking it costs one pointer test. A trace
// belongs to one goroutine: the engine marks from the executing goroutine,
// never from a worker-pool chunk.
type Trace struct {
	start, last time.Time
	dur         [NumStages]time.Duration
	rows        [NumStages]int
	entered     [NumStages]bool
}

// NewTrace starts a trace now.
func NewTrace() *Trace {
	now := time.Now()
	return &Trace{start: now, last: now}
}

// Mark charges the time since the previous mark to stage s and adds rows to
// its output rows.
func (t *Trace) Mark(s Stage, rows int) {
	if t != nil {
		t.mark(s, rows)
	}
}

func (t *Trace) mark(s Stage, rows int) {
	now := time.Now()
	t.dur[s] += now.Sub(t.last)
	t.rows[s] += rows
	t.entered[s] = true
	t.last = now
}

// Lap moves the clock to now without charging a stage.
func (t *Trace) Lap() {
	if t != nil {
		t.last = time.Now()
	}
}

// Total is the time from the trace's start to its last mark.
func (t *Trace) Total() time.Duration { return t.last.Sub(t.start) }

// Span reports stage s's time and output rows, and whether any mark
// charged it.
func (t *Trace) Span(s Stage) (d time.Duration, rows int, entered bool) {
	return t.dur[s], t.rows[s], t.entered[s]
}

type traceKey struct{}

// WithTrace returns ctx carrying t: Catalog.QueryCtx and Prepared.Exec
// mark the execution's stages on it. A context without one runs untraced.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceFrom returns the trace ctx carries, or nil.
func traceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
