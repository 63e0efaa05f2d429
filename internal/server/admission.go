package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// BackpressureError is the typed rejection admission control hands back
// when the max-concurrent-query semaphore stays full past the queue
// timeout. It maps to HTTP 429 and a CodeError line with
// error_code=backpressure, so clients can distinguish "slow down and
// retry" from a real failure. How long the request queued is its trace's
// queue stage.
type BackpressureError struct {
	Limit   int           // the semaphore capacity that was saturated
	Timeout time.Duration // the queue timeout that elapsed
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("server: admission queue timed out after %v (%d queries already executing)", e.Timeout, e.Limit)
}

// admission is the server's max-concurrent-query gate, layered over the
// engine's GOMAXPROCS-bounded worker pool: the pool bounds how much CPU a
// query fans out to, the semaphore bounds how many queries contend for it
// at all. A request waits up to queueTimeout for a slot, then is rejected
// with a BackpressureError; a cancelled request leaves the queue
// immediately.
type admission struct {
	sem          chan struct{}
	queueTimeout time.Duration

	admitted atomic.Int64
	rejected atomic.Int64
}

func newAdmission(maxConcurrent int, queueTimeout time.Duration) *admission {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	return &admission{sem: make(chan struct{}, maxConcurrent), queueTimeout: queueTimeout}
}

// acquire blocks until a slot frees, the queue timeout elapses, or ctx is
// cancelled. On success it returns a release function that must be called
// exactly once (it is safe under defer alongside an explicit early call —
// release is idempotent).
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.sem <- struct{}{}: // fast path: a slot is free right now
	default:
		t := time.NewTimer(a.queueTimeout)
		defer t.Stop()
		select {
		case a.sem <- struct{}{}:
		case <-t.C:
			a.rejected.Add(1)
			return nil, &BackpressureError{Limit: cap(a.sem), Timeout: a.queueTimeout}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	a.admitted.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			<-a.sem
		}
	}, nil
}

// inFlight reports how many admitted queries currently hold a slot.
func (a *admission) inFlight() int { return len(a.sem) }
