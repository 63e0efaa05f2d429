package server

import (
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"datalab/internal/sqlengine"
)

// wireStages checks a terminal line's trace: it is present, its stages
// come in stage order and sum to its duration_ms within 1 µs per stage
// (each is truncated to the microsecond), and the line's own duration_ms,
// when it carries one, is the trace's. It returns each stage's output_rows.
func wireStages(t *testing.T, what string, l map[string]any) map[string]int {
	t.Helper()
	tr, ok := l["trace"].(map[string]any)
	if !ok {
		t.Fatalf("%s: no trace on %v", what, l)
	}
	total := tr["duration_ms"].(float64)
	if d, ok := l["duration_ms"]; ok && d.(float64) != total {
		t.Errorf("%s: line duration_ms %v, trace total %v", what, d, total)
	}
	rows := map[string]int{}
	sum, last := 0.0, sqlengine.Stage(0)
	for i, v := range tr["stages"].([]any) {
		st := v.(map[string]any)
		name := st["stage"].(string)
		s := sqlengine.Stage(0)
		for s < sqlengine.NumStages && s.String() != name {
			s++
		}
		if s == sqlengine.NumStages || (i > 0 && s <= last) {
			t.Errorf("%s: stage %q out of order in %v", what, name, tr)
		}
		last = s
		sum += st["duration_ms"].(float64)
		rows[name] = int(st["output_rows"].(float64))
	}
	if n := float64(len(rows)); math.Abs(sum-total) > n*0.001+1e-9 {
		t.Errorf("%s: stages sum to %v ms, trace total %v ms", what, sum, total)
	}
	return rows
}

// TestTraceTilesRequest: every terminal line of /v1/query, cursor create
// and next, a bad-SQL 400 and a 429 carries the request's trace. The
// stages of a Trace sum to its total exactly; on the wire they sum to the
// trace's duration_ms within rounding, which is the line's duration_ms; a
// statement has a join stage only with a JOIN and a sort stage only with
// ORDER BY; and scan_filter, finish and encode hand on the statement's
// rows.
func TestTraceTilesRequest(t *testing.T) {
	srv, ts, _ := newTestServer(t, 5000, Config{MaxConcurrentQueries: 1, QueueTimeout: 20 * time.Millisecond})

	// The Trace itself: the server's queue and plan marks, the engine's
	// and a cursor page's drain and encode tile it exactly.
	tr := sqlengine.NewTrace()
	tr.Mark(sqlengine.StageRead, 0)
	res, release, err := srv.execute(context.Background(), queryRequest{SQL: "SELECT id FROM events WHERE id < ? ORDER BY id", Args: []any{int64(1500)}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := newCursor("", res, nil).next(pageRows, tr); err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for s := range sqlengine.NumStages {
		d, _, _ := tr.Span(s)
		sum += d
	}
	if sum != tr.Total() {
		t.Errorf("stages sum to %v, trace total %v", sum, tr.Total())
	}

	for _, q := range []struct {
		sql                 string
		args                []any
		filtered, out       int
		join, project, sort bool
	}{
		{sql: "SELECT id, kind, value FROM events WHERE id < 3000", filtered: 3000, out: 3000},
		{sql: "SELECT id, value FROM events WHERE id < ?", args: []any{2500}, filtered: 2500, out: 2500},
		{sql: "SELECT kind, COUNT(*) FROM events WHERE id < 2500 GROUP BY kind", filtered: 2500, out: 3, project: true},
		{sql: "SELECT a.kind, COUNT(*) FROM events a JOIN events b ON a.id = b.id WHERE a.id < 600 GROUP BY a.kind ORDER BY a.kind",
			filtered: 600, out: 3, join: true, project: true, sort: true},
	} {
		resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": q.sql, "args": q.args})
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		last := lines[len(lines)-1]
		if last["code"] != CodeOK {
			t.Fatalf("%s: %v", q.sql, last)
		}
		for _, l := range lines[:len(lines)-1] {
			if _, ok := l["trace"]; ok {
				t.Errorf("%s: a trace on a %v line", q.sql, l["code"])
			}
		}
		rows := wireStages(t, q.sql, last)
		for name, want := range map[string]int{"scan_filter": q.filtered, "finish": q.out, "encode": q.out, "send": q.out} {
			if rows[name] != want {
				t.Errorf("%s: %s output_rows %d, want %d", q.sql, name, rows[name], want)
			}
		}
		for name, want := range map[string]bool{"read": true, "queue": true, "plan": true, "drain": true,
			"join": q.join, "project": q.project, "sort": q.sort} {
			if _, got := rows[name]; got != want {
				t.Errorf("%s: stage %s present = %v, want %v", q.sql, name, got, want)
			}
		}
	}

	// A cursor: create runs the statement, each page drains and encodes.
	resp := postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events WHERE id >= 1000 ORDER BY id DESC"})
	created := decodeLines(t, resp.Body)[0]
	resp.Body.Close()
	rows := wireStages(t, "cursor create", created)
	if rows["scan_filter"] != 4000 || rows["finish"] != 4000 || rows["sort"] != 4000 {
		t.Errorf("cursor create rows %v", rows)
	}
	if _, ok := rows["drain"]; ok {
		t.Errorf("cursor create drained: %v", rows)
	}
	id := created["cursor_id"].(string)
	for page := 0; ; page++ {
		r, err := http.Post(ts.URL+"/v1/cursors/"+id+"/next?max_rows=1500", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		l := decodeLines(t, r.Body)[0]
		r.Body.Close()
		rows := wireStages(t, "cursor next", l)
		if n := len(l["rows"].([]any)); rows["encode"] != n || rows["drain"] != n || len(rows) != 3 {
			t.Errorf("page %d: %d rows, stages %v", page, n, rows)
		}
		if l["cursor_done"] == true {
			break
		}
	}

	// Bad SQL fails in the plan stage; the 400 carries the trace so far.
	resp = postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELEKT 1"})
	bad := decodeLines(t, resp.Body)[0]
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL: status %d", resp.StatusCode)
	}
	if rows := wireStages(t, "bad SQL", bad); len(rows) != 3 || !has(rows, "read", "queue", "plan") {
		t.Errorf("bad SQL stages %v", rows)
	}

	// With the one slot held, a query queues out: its 429 has read and
	// queue, and its queue_wait_ms is the queue stage.
	hold, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM events"})
	rejected := decodeLines(t, resp.Body)[0]
	resp.Body.Close()
	hold()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("held slot: status %d", resp.StatusCode)
	}
	if rows := wireStages(t, "429", rejected); len(rows) != 2 || !has(rows, "read", "queue") {
		t.Errorf("429 stages %v", rows)
	}
	queue := rejected["trace"].(map[string]any)["stages"].([]any)[1].(map[string]any)
	if queue["duration_ms"] != rejected["queue_wait_ms"] || rejected["queue_wait_ms"].(float64) < 15 {
		t.Errorf("429 queue_wait_ms %v, queue stage %v", rejected["queue_wait_ms"], queue)
	}
	if !strings.Contains(rejected["error"].(string), "20ms") {
		t.Errorf("429 error %q does not name the queue timeout", rejected["error"])
	}
}

// has reports whether every name is a key of rows.
func has(rows map[string]int, names ...string) bool {
	for _, n := range names {
		if _, ok := rows[n]; !ok {
			return false
		}
	}
	return true
}

// TestTraceRoomFollowsEnteredStages: addTrace reserves room for the stages
// a trace entered, not for every stage. A one-stage trace added to a short
// line allocates fewer bytes than the 80 a stage the reservation once made
// for all of them.
func TestTraceRoomFollowsEnteredStages(t *testing.T) {
	tr := sqlengine.NewTrace()
	tr.Mark(sqlengine.StageRead, 0)
	const runs = 100
	lws := make([]*lineWriter, runs)
	for i := range lws {
		lws[i] = &lineWriter{w: io.Discard, flush: func() {}}
		lws[i].buf.WriteString(`{"code":"ok"`)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, lw := range lws {
		lw.addTrace(tr)
	}
	runtime.ReadMemStats(&after)
	old := 80 * uint64(sqlengine.NumStages)
	perLine := (after.TotalAlloc - before.TotalAlloc) / runs
	if perLine >= old {
		t.Errorf("a one-stage trace allocated %d bytes a line, want under %d", perLine, old)
	}
	t.Logf("a one-stage trace allocated %d bytes a line", perLine)
	if got := lws[0].buf.String(); !strings.HasPrefix(got, `{"code":"ok","trace":{"duration_ms":`) || !strings.HasSuffix(got, `"output_rows":0}]}`) {
		t.Errorf("line = %s", got)
	}
}
