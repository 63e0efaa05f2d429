package sqlengine

import (
	"context"
	"testing"
	"time"
)

// TestTraceAllocatesNothing: a traced QueryCtx of a join grouped by a
// dimension column and ordered allocates the objects an untraced one does
// — the caller allocates the trace and its context — and marks every stage
// the statement enters, its stages summing to the trace's total exactly.
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
		want := s >= StagePlan && s <= StageFinish
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
// JOIN, no sort stage without ORDER BY, no project stage for a lazy
// projection of bare columns.
func TestTraceStageRows(t *testing.T) {
	c := joinTestCatalog(1000)
	for _, tc := range []struct {
		sql  string
		rows map[Stage]int // every stage the execution enters, with its output rows
	}{
		{"SELECT id, v FROM probe WHERE id < 300",
			map[Stage]int{StagePlan: 0, StageScanFilter: 300, StageFinish: 300}},
		{"SELECT id + 1 FROM probe WHERE k = 3 ORDER BY id DESC LIMIT 10",
			map[Stage]int{StagePlan: 0, StageScanFilter: 125, StageProject: 125, StageSort: 125, StageFinish: 10}},
		{"SELECT p.id, f.tag FROM probe p JOIN fanout f ON p.k = f.fk WHERE p.id < 100",
			map[Stage]int{StagePlan: 0, StageScanFilter: 300, StageJoin: 300, StageFinish: 300}},
		{"SELECT k, COUNT(*) FROM probe GROUP BY k",
			map[Stage]int{StagePlan: 0, StageScanFilter: 1000, StageProject: 8, StageFinish: 8}},
	} {
		tr := NewTrace()
		if _, err := c.QueryCtx(WithTrace(context.Background(), tr), tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
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
