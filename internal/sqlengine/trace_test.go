package sqlengine

import (
	"context"
	"testing"
	"time"
)

// TestTraceAllocatesNothing: a traced QueryCtx of a join grouped by a
// dimension column and ordered allocates the objects an untraced one does
// — the caller allocates the trace and its context — and marks every stage
// the statement enters (all but window), its stages summing to the trace's
// total exactly.
func TestTraceAllocatesNothing(t *testing.T) {
	c := joinTestCatalog(5000)
	const q = "SELECT f.tag, COUNT(*), SUM(p.v) FROM probe p JOIN fanout f ON p.k = f.fk WHERE p.id < 4000 GROUP BY f.tag ORDER BY f.tag"
	run := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := c.QueryCtx(ctx, q); err != nil || res.NumRows() != 24 {
				t.Fatalf("%v rows, %v", res, err)
			}
		})
	}
	tr := NewTrace()
	untraced, traced := run(context.Background()), run(WithTrace(context.Background(), tr))
	if traced != untraced {
		t.Errorf("traced execution allocates %.0f objects, untraced %.0f", traced, untraced)
	}
	var sum time.Duration
	for s := range NumStages {
		d, _, entered := tr.Span(s)
		want := s >= StagePlan && s <= StageFinish && s != StageWindow
		if entered != want {
			t.Errorf("stage %s entered = %v, want %v", s, entered, want)
		}
		sum += d
	}
	if sum != tr.Total() {
		t.Errorf("stages sum to %v, trace total %v", sum, tr.Total())
	}
}

// TestTraceStageRows: output_rows are the rows each stage handed on, and a
// statement marks only the stages it enters — no join stage without a
// JOIN, no group stage without grouping, no window stage without a window
// call, no sort stage without ORDER BY, no project stage for a lazy
// projection of bare columns. A stage that fails, a cancellation
// included, is marked with no rows, and no later stage is entered: a
// statement without a finish stage fails.
func TestTraceStageRows(t *testing.T) {
	c := joinTestCatalog(1000)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		sql    string
		rows   map[Stage]int // every stage the execution enters, with its output rows
		cancel bool          // run under a cancelled context
	}{
		{"SELECT id, v FROM probe WHERE id < 300",
			map[Stage]int{StagePlan: 0, StageScanFilter: 300, StageFinish: 300}, false},
		{"SELECT id + 1 FROM probe WHERE k = 3 ORDER BY id DESC LIMIT 10",
			map[Stage]int{StagePlan: 0, StageScanFilter: 125, StageProject: 125, StageSort: 125, StageFinish: 10}, false},
		{"SELECT p.id, f.tag FROM probe p JOIN fanout f ON p.k = f.fk WHERE p.id < 100",
			map[Stage]int{StagePlan: 0, StageScanFilter: 300, StageJoin: 300, StageFinish: 300}, false},
		{"SELECT k, COUNT(*) FROM probe GROUP BY k",
			map[Stage]int{StagePlan: 0, StageScanFilter: 1000, StageGroup: 8, StageProject: 8, StageFinish: 8}, false},
		{"SELECT k, COUNT(*) FROM probe GROUP BY k HAVING k < 3",
			map[Stage]int{StagePlan: 0, StageScanFilter: 1000, StageGroup: 3, StageProject: 3, StageFinish: 3}, false},
		{"SELECT id, SUM(v) OVER (PARTITION BY k ORDER BY id) FROM probe WHERE id < 200",
			map[Stage]int{StagePlan: 0, StageScanFilter: 200, StageWindow: 200, StageProject: 200, StageFinish: 200}, false},
		{"SELECT COUNT(*) FROM probe GROUP BY YEAR(v)",
			map[Stage]int{StagePlan: 0, StageScanFilter: 1000, StageGroup: 0}, false},
		{"SELECT k, COUNT(*) FROM probe GROUP BY k",
			map[Stage]int{StagePlan: 0, StageScanFilter: 0}, true},
	} {
		ctx := context.Background()
		if tc.cancel {
			ctx = cancelled
		}
		tr := NewTrace()
		_, finishes := tc.rows[StageFinish]
		if _, err := c.QueryCtx(WithTrace(ctx, tr), tc.sql); (err != nil) == finishes {
			t.Fatalf("%s: error %v, want failure %v", tc.sql, err, !finishes)
		}
		for s := range NumStages {
			_, rows, entered := tr.Span(s)
			want, wantEntered := tc.rows[s]
			if entered != wantEntered || rows != want {
				t.Errorf("%s: stage %s entered %v with %d rows, want %v with %d", tc.sql, s, entered, rows, wantEntered, want)
			}
		}
	}
}
