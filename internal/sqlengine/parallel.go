package sqlengine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// The engine shares one bounded worker pool across all queries: a semaphore
// sized to GOMAXPROCS. Scan and aggregate partitions acquire a slot to run
// on a separate goroutine; when the pool is saturated (e.g. many concurrent
// Platform.Ask callers) partitions degrade gracefully to running inline on
// the caller's goroutine, so total engine parallelism stays bounded no
// matter how many queries are in flight.
var workerSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// parallelMinRows is the selection size below which the executor stays
// serial: goroutine handoff costs more than the scan itself.
const parallelMinRows = 4096

// chunkLayout computes the partitioning parallelChunks uses: the chunk
// size and the number of chunks [0, n) splits into.
func chunkLayout(n, minChunk int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	nchunks := n / minChunk
	if max := cap(workerSem); nchunks > max {
		nchunks = max
	}
	if nchunks <= 1 {
		return n, 1
	}
	size = (n + nchunks - 1) / nchunks
	return size, (n + size - 1) / size
}

// parallelChunks splits [0, n) into at most GOMAXPROCS contiguous chunks of
// at least minChunk elements and runs fn on each, returning the first error.
// fn must only write to per-chunk (disjoint) state. Chunks run on pool
// workers when slots are free and inline otherwise; with one chunk the call
// is plain function invocation.
//
// Cancellation is observed at chunk granularity: a chunk that has not
// started when ctx is done is skipped (its error becomes ctx.Err()), while
// chunks already running finish their slice. Callers therefore return
// promptly — within one chunk's worth of work — after cancellation, and no
// worker goroutine outlives the call (the WaitGroup is always drained).
//
// A panic in fn is contained here, at the pool boundary: it becomes that
// chunk's error ("sqlengine: internal error: <value>"), the worker still
// gives its slot back and the call still waits for every chunk, so one
// statement's bug fails that statement rather than the process. The cost
// is one deferred call per chunk.
func parallelChunks(ctx context.Context, n, minChunk int, fn func(lo, hi int) error) error {
	return parallelChunksIndexed(ctx, n, minChunk, func(_, lo, hi int) error { return fn(lo, hi) })
}

// parallelChunksIndexed is parallelChunks with the chunk's ordinal (dense,
// 0-based, matching the count from chunkLayout) passed to fn, so chunks can
// deposit results into a preallocated slice without synchronization.
func parallelChunksIndexed(ctx context.Context, n, minChunk int, fn func(ci, lo, hi int) error) error {
	size, count := chunkLayout(n, minChunk)
	if count == 0 {
		return ctx.Err()
	}
	run := func(ci, lo, hi int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sqlengine: internal error: %v", r)
			}
		}()
		return fn(ci, lo, hi)
	}
	if count == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return run(0, 0, n)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for ci, lo := 0, 0; lo < n; ci, lo = ci+1, lo+size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		if err := ctx.Err(); err != nil {
			record(err)
			break
		}
		select {
		case workerSem <- struct{}{}:
			wg.Add(1)
			go func(ci, lo, hi int) {
				defer wg.Done()
				defer func() { <-workerSem }()
				if err := ctx.Err(); err != nil {
					record(err)
					return
				}
				record(run(ci, lo, hi))
			}(ci, lo, hi)
		default:
			record(run(ci, lo, hi))
		}
	}
	wg.Wait()
	return firstErr
}
