package sqlengine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"datalab/internal/table"
)

// planTestTable is an 8-column, 40-row table — the size of an Ask table.
func planTestTable(name string, cols []string) *table.Table {
	kinds := []table.Kind{table.KindInt, table.KindInt, table.KindFloat, table.KindString, table.KindInt, table.KindFloat, table.KindString, table.KindInt}
	tb := table.MustNew(name, cols, kinds)
	for i := 0; i < 40; i++ {
		tb.MustAppendRow(table.Int(int64(i)), table.Int(int64(2*i)), table.Float(float64(i)/2), table.Str(fmt.Sprint("s", i%5)),
			table.Int(1), table.Float(2), table.Str("x"), table.Int(3))
	}
	return tb
}

var planTestCols = []string{"id", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}

// TestOneResolvedPlanPerTemplate: 1,000 executions of one template, with
// different literals, from eight goroutines — cold cache, so the first ones
// race to plan it — all execute one and the same resolved plan, the one the
// cache holds. Run under -race: the plan and its tree are shared and must
// be read-only.
func TestOneResolvedPlanPerTemplate(t *testing.T) {
	c := NewCatalog()
	c.Register(planTestTable("t", planTestCols))
	ctx := context.Background()
	const goroutines, perG = 8, 125
	plans := make([][]*plan, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// QueryCtx, with the plan it picked in hand.
				p, binds, err := c.planQuery(fmt.Sprintf("SELECT c3, COUNT(*) AS n, SUM(c2) FROM t WHERE id >= %d AND c4 IN (SELECT c4 FROM t) GROUP BY c3 ORDER BY n DESC, 1", i%40))
				if err != nil {
					t.Error(err)
					return
				}
				res, err := executeResultBound(ctx, p, binds, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if want := min(40-i%40, 5); res.NumRows() != want {
					t.Errorf("id >= %d: %d groups, want %d", i%40, res.NumRows(), want)
				}
				plans[g] = append(plans[g], p)
			}
		}(g)
	}
	wg.Wait()
	first := plans[0][0]
	for g := range plans {
		for i, p := range plans[g] {
			if p != first {
				t.Fatalf("goroutine %d execution %d ran plan %p, the first ran %p", g, i, p, first)
			}
		}
	}
	if st := c.PlanCacheStats(); st.Size != 1 {
		t.Fatalf("cache holds %d entries for one template", st.Size)
	}
}

// TestReRegisterResolvesOnceMore: a plan is current while the catalog maps
// its table names to the appenders it was resolved against. Appending to and
// publishing the same appender leaves every plan in place; registering the
// table again with another schema makes the next execution — by text or
// through a live Prepared — parse and resolve exactly once more, answer with the new schema's columns and rows, and then stay
// on the new plan.
func TestReRegisterResolvesOnceMore(t *testing.T) {
	c := NewCatalog()
	c.Register(planTestTable("t", planTestCols))
	ctx := context.Background()
	const text = "SELECT * FROM t WHERE id = 7"
	// Not the text path's template, so each has a cache entry of its own.
	prep, err := c.Prepare("SELECT * FROM t WHERE id = ? LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	// Each path executes; the plan it ran and the column list it answered.
	textPlan := func() (*plan, []string) {
		t.Helper()
		p, binds, err := c.planQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := executeResultBound(ctx, p, binds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p, res.Columns()
	}
	handlePlan := func(exec func() (*Result, error)) (*plan, []string) {
		t.Helper()
		res, err := exec()
		if err != nil {
			t.Fatal(err)
		}
		return prep.cur.Load(), res.Columns()
	}
	paths := map[string]func() (*plan, []string){
		"text":     textPlan,
		"prepared": func() (*plan, []string) { return handlePlan(func() (*Result, error) { return prep.Exec(ctx, 7) }) },
	}
	before := map[string]*plan{}
	for name, run := range paths {
		before[name], _ = run()
	}

	app, _ := c.Appender("t")
	if err := appendRows(app, rowAt(planTestTable("t", planTestCols), 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}
	parses := c.PlanCacheStats().Misses
	for name, run := range paths {
		if p, _ := run(); p != before[name] {
			t.Errorf("%s: Append+Publish on the same appender replaced the plan", name)
		}
	}
	if res, _ := c.QueryCtx(ctx, text); res.NumRows() != 2 {
		t.Errorf("after the append id = 7 matches %d rows, want 2", res.NumRows())
	}
	if d := c.PlanCacheStats().Misses - parses; d != 0 {
		t.Errorf("same-appender publish cost %d parses", d)
	}

	renamed := append([]string{"id"}, "k1", "k2", "k3", "k4", "k5", "k6", "k7")
	c.Register(planTestTable("t", renamed))
	for _, name := range []string{"text", "prepared"} {
		parses := c.PlanCacheStats().Misses
		p1, cols := paths[name]()
		if p1 == before[name] {
			t.Errorf("%s: executed the plan resolved against the replaced table", name)
		}
		if fmt.Sprint(cols) != fmt.Sprint(renamed) {
			t.Errorf("%s: columns %v, want the new schema's %v", name, cols, renamed)
		}
		if p2, _ := paths[name](); p2 != p1 {
			t.Errorf("%s: resolved again with nothing re-registered", name)
		}
		if d := c.PlanCacheStats().Misses - parses; d != 1 {
			t.Errorf("%s: %d parses after the re-register, want 1", name, d)
		}
	}
}

// TestSameSchemaReloadMovesPlans: re-registering a table with the schema it
// had clears nothing — the cache keeps its entries and a Prepared its plan —
// yet those plans hold the replaced appender, whose rows are the old ones.
// The appender check alone moves the next execution to the new table.
func TestSameSchemaReloadMovesPlans(t *testing.T) {
	c := NewCatalog()
	c.Register(planTestTable("t", planTestCols))
	ctx := context.Background()
	prep, err := c.Prepare("SELECT COUNT(*) FROM t WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (text, prepared int64) {
		t.Helper()
		tb := mustQuery(t, c, "SELECT COUNT(*) FROM t WHERE id >= 0")
		res, err := prep.Exec(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		prepared, _ = res.Next().Int64(0, 0)
		return tb.Columns[0].Value(0).I, prepared
	}
	if text, prepared := counts(); text != 40 || prepared != 40 {
		t.Fatalf("counts = %d, %d, want 40", text, prepared)
	}
	reload := planTestTable("t", planTestCols)
	reload.MustAppendRow(rowAt(reload, 0)...)
	c.Register(reload)
	if st := c.PlanCacheStats(); st.Invalidations != 0 || st.Size == 0 {
		t.Fatalf("same-schema reload touched the cache: %+v", st)
	}
	if text, prepared := counts(); text != 41 || prepared != 41 {
		t.Errorf("after the reload counts = %d, %d, want 41: a plan read the replaced table", text, prepared)
	}
}

// TestCachedPlanAllocations pins what the plan cache saves: executing the
// cached `SELECT * FROM t WHERE id = ?` over an 8-column table allocates
// nothing for names — no schema, no expanded select list, no output-name
// set. 25 allocations per execution by text and 15 through a Prepared at
// this PR; 49 and 39 when every execution re-derived them.
func TestCachedPlanAllocations(t *testing.T) {
	c := NewCatalog()
	c.Register(planTestTable("t", planTestCols))
	ctx := context.Background()
	prep, err := c.Prepare("SELECT * FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*Result, error){
		"text":     func() (*Result, error) { return c.QueryCtx(ctx, "SELECT * FROM t WHERE id = 7") },
		"prepared": func() (*Result, error) { return prep.Exec(ctx, 7) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if res, err := run(); err != nil || res.NumRows() != 1 || len(res.Columns()) != 8 {
				t.Fatalf("%s: %v", name, err)
			}
		})
		t.Logf("%s: %.0f allocs per execution", name, allocs)
		if allocs >= 32 {
			t.Errorf("%s: %.0f allocs per execution, want under 32", name, allocs)
		}
	}
}
