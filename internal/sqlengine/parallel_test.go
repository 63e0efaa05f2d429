package sqlengine

import (
	"context"
	"strconv"
	"testing"

	"datalab/internal/table"
)

// TestParallelChunksContainsPanic injects a panicking chunk function at
// the worker-pool boundary: the call returns the panic as an error, every
// pool slot comes back, and a statement on another goroutine — sharing the
// pool while the panics happen — completes. The pooled and the inline
// (pool saturated) dispatch are both driven.
func TestParallelChunksContainsPanic(t *testing.T) {
	const wantErr = "sqlengine: internal error: boom in chunk"
	n := 4 * parallelMinRows
	_, count := chunkLayout(n, parallelMinRows)
	boom := func(ci, lo, hi int) error {
		if ci == count-1 {
			panic("boom in chunk")
		}
		return nil
	}

	tbl := table.MustNew("t", []string{"x"}, []table.Kind{table.KindInt})
	for i := 0; i < 3*parallelMinRows; i++ {
		tbl.MustAppendRow(table.Int(int64(i)))
	}
	cat := NewCatalog()
	cat.Register(tbl)
	sibling := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20 && err == nil; i++ {
			var res *Result
			if res, err = cat.QueryCtx(context.Background(), "SELECT COUNT(*) FROM t WHERE x >= 0"); err == nil {
				if got := res.Strings(); len(got) != 1 || got[0][0] != strconv.Itoa(3*parallelMinRows) {
					t.Errorf("sibling statement counted %v", got)
				}
			}
		}
		sibling <- err
	}()

	for i := 0; i < 20; i++ {
		if err := parallelChunksIndexed(context.Background(), n, parallelMinRows, boom); err == nil || err.Error() != wantErr {
			t.Fatalf("pooled dispatch: err = %v, want %q", err, wantErr)
		}
	}
	if err := <-sibling; err != nil {
		t.Errorf("sibling statement failed: %v", err)
	}
	if got := len(workerSem); got != 0 {
		t.Fatalf("%d pool slots still held after the panics", got)
	}

	// Saturate the pool so every chunk runs inline on this goroutine.
	for i := 0; i < cap(workerSem); i++ {
		workerSem <- struct{}{}
	}
	err := parallelChunksIndexed(context.Background(), n, parallelMinRows, boom)
	for i := 0; i < cap(workerSem); i++ {
		<-workerSem
	}
	if err == nil || err.Error() != wantErr {
		t.Errorf("inline dispatch: err = %v, want %q", err, wantErr)
	}

	// The parallel sort has no error of its own to report, so it used to
	// drop the pool's: a comparator that panics does so in every chunk.
	panicking := func(a, b int) int { panic("boom in comparator") }
	if _, err := parallelSortPerm(context.Background(), panicking, n); err == nil {
		t.Error("parallel sort over a panicking comparator returned no error")
	}
}
