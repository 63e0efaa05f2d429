package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"datalab"
)

// syncBuffer is a mutex-guarded log sink: handler goroutines write while
// the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTestServer builds a server over a demo platform, capturing its JSONL
// log, and registers cleanup.
func newTestServer(t *testing.T, rows int, cfg Config) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	p := datalab.MustNew()
	if err := LoadDemo(p, rows); err != nil {
		t.Fatal(err)
	}
	logBuf := &syncBuffer{}
	srv := New(p, cfg, logBuf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, logBuf
}

// knownCodes is the complete wire vocabulary; every line anywhere must
// carry one of these.
var knownCodes = map[string]bool{
	CodeStartup: true, CodeProgress: true, CodeOK: true, CodeError: true, CodeCancel: true,
}

// decodeLines parses a JSONL body, failing the test on any malformed line
// or unknown code, and asserting no *_secret field anywhere survives
// unredacted.
func decodeLines(t *testing.T, body io.Reader) []map[string]any {
	t.Helper()
	var lines []map[string]any
	dec := json.NewDecoder(body)
	for {
		var l map[string]any
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("malformed JSONL line %d: %v", len(lines)+1, err)
		}
		code, _ := l["code"].(string)
		if !knownCodes[code] {
			t.Fatalf("line %d: unknown code %q in %v", len(lines)+1, code, l)
		}
		assertRedacted(t, l)
		lines = append(lines, l)
	}
	if len(lines) == 0 {
		t.Fatal("response carried no JSONL lines")
	}
	return lines
}

// assertRedacted walks a decoded line and fails on any *_secret field
// whose value is not the redaction marker.
func assertRedacted(t *testing.T, v any) {
	t.Helper()
	switch m := v.(type) {
	case map[string]any:
		for k, val := range m {
			if strings.HasSuffix(strings.ToLower(k), "_secret") {
				if s, _ := val.(string); s != "***" && val != nil {
					t.Fatalf("unredacted secret field %q = %v", k, val)
				}
			}
			assertRedacted(t, val)
		}
	case []any:
		for _, val := range m {
			assertRedacted(t, val)
		}
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestQueryStreamsValidatedJSONL drives the primary endpoint: a multi-
// batch query must arrive as startup + N progress + ok, with consistent
// suffix-named counters and the right row payloads.
func TestQueryStreamsValidatedJSONL(t *testing.T) {
	const rows = 5000
	_, ts, _ := newTestServer(t, rows, Config{})
	resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT id, kind, value FROM events"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if got := lines[0]["code"]; got != CodeStartup {
		t.Fatalf("first line code = %v, want startup", got)
	}
	if got := lines[0]["rows_total"]; got != float64(rows) {
		t.Fatalf("startup rows_total = %v, want %d", got, rows)
	}
	cols, _ := lines[0]["columns"].([]any)
	if len(cols) != 3 {
		t.Fatalf("startup columns = %v", lines[0]["columns"])
	}
	last := lines[len(lines)-1]
	if last["code"] != CodeOK {
		t.Fatalf("terminal code = %v, want ok", last["code"])
	}
	if _, ok := last["duration_ms"].(float64); !ok {
		t.Fatalf("terminal line missing duration_ms: %v", last)
	}
	seen := 0
	for _, l := range lines[1 : len(lines)-1] {
		if l["code"] != CodeProgress {
			t.Fatalf("middle line code = %v, want progress", l["code"])
		}
		batchRows := int(l["batch_rows"].(float64))
		rowsArr, _ := l["rows"].([]any)
		if len(rowsArr) != batchRows {
			t.Fatalf("progress batch_rows=%d but %d rows attached", batchRows, len(rowsArr))
		}
		seen += batchRows
		if int(l["rows_sent"].(float64)) != seen {
			t.Fatalf("rows_sent = %v, want %d", l["rows_sent"], seen)
		}
		if _, ok := l["duration_ms"].(float64); !ok {
			t.Fatalf("progress line missing duration_ms")
		}
	}
	if seen != rows {
		t.Fatalf("streamed %d rows, want %d", seen, rows)
	}
	// Spot-check a cell payload: row 0 is [0, "view", 0].
	firstRow := lines[1]["rows"].([]any)[0].([]any)
	if firstRow[0] != float64(0) || firstRow[1] != "view" {
		t.Fatalf("row 0 = %v", firstRow)
	}
}

// TestQueryWithBoundArgs exercises the Prepare/Exec path over the wire.
func TestQueryWithBoundArgs(t *testing.T) {
	_, ts, _ := newTestServer(t, 1000, Config{})
	n, _ := wireQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM events WHERE id < ? AND kind = ?", 500, "view")
	want := 0
	for i := 0; i < 500; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if int(n) != want {
		t.Fatalf("bound COUNT = %v, want %d", n, want)
	}
}

// TestQueryLimitPlusOffsetOverflow: LIMIT and OFFSET bound to values whose
// sum passes int64 must behave as "no limit", not as an empty result (the
// selection-truncating pushdown once wrapped the sum negative).
func TestQueryLimitPlusOffsetOverflow(t *testing.T) {
	_, ts, _ := newTestServer(t, 21, Config{})
	first, rows := wireQuery(t, ts.URL, "SELECT id FROM events LIMIT ? OFFSET ?", int64(math.MaxInt64), 5)
	if rows != 16 || first != 5 {
		t.Fatalf("LIMIT MaxInt64 OFFSET 5 over 21 rows: %d rows starting at id %v, want 16 starting at 5", rows, first)
	}
	if _, rows := wireQuery(t, ts.URL, "SELECT id FROM events WHERE id > ? LIMIT ? OFFSET ?", 2, int64(math.MaxInt64), 5); rows != 13 {
		t.Fatalf("filtered: %d rows, want 13", rows)
	}
}

// TestQueryErrorLine pins the failure shape: HTTP 400 with one error line
// carrying error_code=query_failed — for an unknown table, and for names no
// table has, which fail when the statement is planned whatever rows its
// filter keeps (`nosuch.*` used to answer ok with "columns":[]).
func TestQueryErrorLine(t *testing.T) {
	_, ts, _ := newTestServer(t, 10, Config{})
	for _, sql := range []string{
		"SELECT nope FROM missing",
		"SELECT nosuch.* FROM events",
		"SELECT id FROM events WHERE id > 100 AND nosuch = 1",
	} {
		resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": sql})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", sql, resp.StatusCode)
		}
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		if len(lines) != 1 || lines[0]["code"] != CodeError || lines[0]["error_code"] != ErrCodeQuery {
			t.Fatalf("%s: lines = %v, want one query_failed error line", sql, lines)
		}
	}
}

// TestPanicIsOneRequestsFailure: a handler that panics before answering
// yields one typed internal error line, one that panics mid-stream an
// aborted connection, the log names the path both times — and a query
// stream open on another session throughout runs to its ok line.
func TestPanicIsOneRequestsFailure(t *testing.T) {
	const rows = 200_000 // more than the socket buffers hold: the stream is still being written
	srv, ts, logBuf := newTestServer(t, rows, Config{})
	srv.mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	srv.mux.HandleFunc("GET /panic-midstream", func(w http.ResponseWriter, _ *http.Request) {
		_ = newLineWriter(w).write(line{"code": CodeStartup})
		panic("boom midstream")
	})

	sess := postJSON(t, ts.URL+"/v1/sessions", map[string]any{})
	sessionID, _ := decodeLines(t, sess.Body)[0]["session_id"].(string)
	sess.Body.Close()
	stream := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT id, kind, value FROM events", "session_id": sessionID})
	defer stream.Body.Close()
	dec := json.NewDecoder(stream.Body)
	var first map[string]any
	if err := dec.Decode(&first); err != nil || first["code"] != CodeStartup {
		t.Fatalf("stream opened with %v (err %v), want a startup line", first, err)
	}

	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || len(lines) != 1 ||
		lines[0]["code"] != CodeError || lines[0]["error_code"] != ErrCodeInternal {
		t.Errorf("panicking handler answered %d %v, want 500 and one internal error line", resp.StatusCode, lines)
	}

	resp, err = http.Get(ts.URL + "/panic-midstream")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Error("a stream cut by a panic ended cleanly: the client cannot tell it from a finished one")
	}

	for _, path := range []string{"/panic", "/panic-midstream"} {
		if !strings.Contains(logBuf.String(), `"event":"panic"`) || !strings.Contains(logBuf.String(), `"path":"`+path+`"`) {
			t.Errorf("log has no panic event for %s:\n%s", path, logBuf.String())
		}
	}

	var last map[string]any
	for {
		var l map[string]any
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("sibling stream broke: %v", err)
		}
		last = l
	}
	if last["code"] != CodeOK || last["rows_total"] != float64(rows) {
		t.Errorf("sibling stream ended with %v, want ok over %d rows", last, rows)
	}
}

// TestOversizedBodyIsRefused: the two endpoints that take a JSON statement
// answer a body past the protocol's bound with a typed 413 line.
func TestOversizedBodyIsRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, 10, Config{})
	big := map[string]any{"sql": "SELECT id FROM events WHERE kind = '" + strings.Repeat("x", 2<<20) + "'"}
	for _, path := range []string{"/v1/query", "/v1/cursors"} {
		resp := postJSON(t, ts.URL+path, big)
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || len(lines) != 1 ||
			lines[0]["code"] != CodeError || lines[0]["error_code"] != ErrCodeRequestTooLarge {
			t.Errorf("%s answered %d %v, want 413 and one request_too_large line", path, resp.StatusCode, lines)
		}
	}
	// Just under the bound still parses (and fails later, as a query).
	resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT " + strings.Repeat(" ", maxRequestBodyBytes-64) + "nope"})
	defer resp.Body.Close()
	if lines := decodeLines(t, resp.Body); resp.StatusCode != http.StatusBadRequest || lines[0]["error_code"] != ErrCodeQuery {
		t.Errorf("a body under the bound answered %d %v, want a query error", resp.StatusCode, lines)
	}
}

// TestIngestThenQuery streams JSONL rows in and verifies they are visible
// (and only publish-batch granular) to queries.
func TestIngestThenQuery(t *testing.T) {
	const base, extra = 100, 2*ingestPublishRows + 500
	_, ts, _ := newTestServer(t, base, Config{})
	var body bytes.Buffer
	for _, r := range DemoRecords(base, extra) {
		body.WriteString(fmt.Sprintf("[%s, %q, %s]\n", r[0], r[1], r[2]))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := decodeLines(t, resp.Body)
	last := lines[len(lines)-1]
	if last["code"] != CodeOK || int(last["rows_appended_total"].(float64)) != extra {
		t.Fatalf("ingest terminal line = %v", last)
	}
	if got := int(last["rows_visible_total"].(float64)); got != base+extra {
		t.Fatalf("rows_visible_total = %d, want %d", got, base+extra)
	}
	// Two publishes at ingestPublishRows boundaries → two progress lines.
	progress := 0
	for _, l := range lines {
		if l["code"] == CodeProgress {
			progress++
		}
	}
	if progress != extra/ingestPublishRows {
		t.Fatalf("progress lines = %d, want %d", progress, extra/ingestPublishRows)
	}
	if n, _ := wireQuery(t, ts.URL, "SELECT COUNT(*) FROM events"); int(n) != base+extra {
		t.Fatalf("post-ingest COUNT = %v, want %d", n, base+extra)
	}
}

// wireQuery runs a statement over /v1/query and returns the first cell of
// its first row and the terminal line's rows_total.
func wireQuery(t *testing.T, url, sql string, args ...any) (first float64, rows int) {
	t.Helper()
	resp := postJSON(t, url+"/v1/query", map[string]any{"sql": sql, "args": args})
	defer resp.Body.Close()
	lines := decodeLines(t, resp.Body)
	last := lines[len(lines)-1]
	if last["code"] != CodeOK {
		t.Fatalf("%s %v: %v", sql, args, last)
	}
	return lines[1]["rows"].([]any)[0].([]any)[0].(float64), int(last["rows_total"].(float64))
}

// TestWireNumbersKeepTheirKind: a JSON integer literal is that int64 on
// both request paths — an ingested id past 2^53 is stored exactly and
// LIMIT ? accepts a bound 3 — while 1e3, 2.0 and -0 still land as the
// ints 1000, 2 and 0 and a non-integral argument still binds as a float.
func TestWireNumbersKeepTheirKind(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, Config{}) // one row, id 0
	body := "[9007199254740993, \"view\", 1.5]\n[1e3, \"view\", 1.5]\n[2.0, \"view\", 1.5]\n[-0, \"view\", 1.5]\n"
	resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	if last := lines[len(lines)-1]; last["code"] != CodeOK || last["rows_appended_total"] != float64(4) {
		t.Fatalf("ingest terminal line = %v", last)
	}
	for _, c := range []struct {
		sql         string
		args        []any
		first, rows int
	}{
		{"SELECT COUNT(*) FROM events WHERE id = 9007199254740993", nil, 1, 1},
		{"SELECT COUNT(*) FROM events WHERE id = 9007199254740992", nil, 0, 1},
		{"SELECT COUNT(*) FROM events WHERE id = ?", []any{json.Number("9007199254740993")}, 1, 1},
		{"SELECT COUNT(*) FROM events WHERE id = 1000", nil, 1, 1},
		{"SELECT COUNT(*) FROM events WHERE id = 2", nil, 1, 1},
		{"SELECT COUNT(*) FROM events WHERE id = 0", nil, 2, 1},
		{"SELECT COUNT(*) FROM events WHERE id < ?", []any{2.5}, 3, 1},
		{"SELECT id FROM events ORDER BY id LIMIT ?", []any{3}, 0, 3},
	} {
		if first, rows := wireQuery(t, ts.URL, c.sql, c.args...); int(first) != c.first || rows != c.rows {
			t.Errorf("%s %v: first cell %v over %d rows, want %d over %d", c.sql, c.args, first, rows, c.first, c.rows)
		}
	}
}

// TestIngestRowCap: a row past maxIngestLineBytes ends the stream with a
// typed request_too_large line; the rows before it are published and the
// server keeps serving.
func TestIngestRowCap(t *testing.T) {
	_, ts, _ := newTestServer(t, 5, Config{})
	var body bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&body, "[%d, \"view\", 1.5]\n", 100+i)
	}
	fmt.Fprintf(&body, "[200, %q, 1.5]\n[201, \"view\", 1.5]\n", strings.Repeat("x", 2*maxIngestLineBytes))
	resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	last := lines[len(lines)-1]
	if resp.StatusCode != http.StatusRequestEntityTooLarge || last["code"] != CodeError ||
		last["error_code"] != ErrCodeRequestTooLarge || last["rows_appended_total"] != float64(10) {
		t.Fatalf("oversized row answered %d %v, want 413 request_too_large after 10 rows", resp.StatusCode, last)
	}
	if got, _ := wireQuery(t, ts.URL, "SELECT COUNT(*) FROM events"); got != 15 {
		t.Errorf("rows visible after the refused row = %v, want 15", got)
	}
}

// TestIngestRejectsNestedCells: a nested array or object cell ends the
// stream with a bad_request line naming the line; the rows before it are
// published and the server keeps serving.
func TestIngestRejectsNestedCells(t *testing.T) {
	for _, bad := range []string{`[1,"a",[2]]`, `[1,{"k":1}]`} {
		_, ts, _ := newTestServer(t, 5, Config{})
		body := "[100, \"view\", 1.5]\n[101, \"view\", 1.5]\n[102, \"view\", 1.5]\n" + bad + "\n[103, \"view\", 1.5]\n"
		resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		last := lines[len(lines)-1]
		if resp.StatusCode != http.StatusBadRequest || last["code"] != CodeError || last["error_code"] != ErrCodeBadRequest ||
			last["rows_appended_total"] != float64(3) || !strings.Contains(last["error"].(string), "ingest line 4") {
			t.Fatalf("%s answered %d %v, want 400 bad_request at line 4 after 3 rows", bad, resp.StatusCode, last)
		}
		if got, _ := wireQuery(t, ts.URL, "SELECT COUNT(*) FROM events"); got != 8 {
			t.Errorf("%s: rows visible after the refused line = %v, want 8", bad, got)
		}
	}
}

// TestIngestRefusesInexactCells: a cell its column cannot store exactly
// ends the stream with a bad_request line whose row, column and cell fields
// name it; the rows before it are published and the server keeps serving.
func TestIngestRefusesInexactCells(t *testing.T) {
	for _, c := range []struct{ table, good, bad, column, cell string }{
		{"events", `[100, "view", 1.5]`, `["abc", "view", 1.5]`, "id", "abc"},
		{"events", `[100, "view", 1.5]`, `[1.5, "view", 1.5]`, "id", "1.5"},
		{"events", `[100, "view", 1.5]`, `[1e300, "view", 1.5]`, "id", "1e300"},
		{"events", `[100, "view", 1.5]`, `[9223372036854775808, "view", 1.5]`, "id", "9223372036854775808"},
		{"stamps", `[100, "20240101"]`, `[101, "x"]`, "ts", "x"},
	} {
		p := datalab.MustNew()
		if err := LoadDemo(p, 5); err != nil {
			t.Fatal(err)
		}
		if err := p.LoadRecords("stamps", []string{"id", "ts"}, [][]string{{"1", "2024-01-01"}}); err != nil {
			t.Fatal(err)
		}
		srv := New(p, Config{}, &syncBuffer{})
		ts := httptest.NewServer(srv.Handler())
		body := strings.Repeat(c.good+"\n", 3) + c.bad + "\n" + c.good + "\n"
		resp, err := http.Post(ts.URL+"/v1/ingest/"+c.table, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		last := lines[len(lines)-1]
		if resp.StatusCode != http.StatusBadRequest || last["code"] != CodeError || last["error_code"] != ErrCodeBadRequest ||
			last["rows_appended_total"] != float64(3) || last["row"] != float64(4) || last["column"] != c.column || last["cell"] != c.cell {
			t.Errorf("%s answered %d %v, want 400 bad_request at row 4, column %s, cell %q, after 3 rows", c.bad, resp.StatusCode, last, c.column, c.cell)
		}
		if got, _ := wireQuery(t, ts.URL, "SELECT COUNT(*) FROM "+c.table+" WHERE id = 100"); got != 3 {
			t.Errorf("%s: rows visible after the refused row = %v, want the 3 before it", c.bad, got)
		}
		ts.Close()
		srv.Close()
	}
}

// TestIngestNumberLiteralIsTheCell: a JSON number's literal text is the
// cell its column parses, so a text column keeps the literal as sent and
// a float column takes an integer literal's value.
func TestIngestNumberLiteralIsTheCell(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, Config{})
	body := "[7, 2.50, 7]\n[8, 1e3, 1.5]\n[9, 10, 1.5]\n"
	resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	if last := lines[len(lines)-1]; last["code"] != CodeOK || last["rows_appended_total"] != float64(3) {
		t.Fatalf("ingest terminal line = %v", last)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM events WHERE id = 7 AND kind = '2.50' AND value = 7",
		"SELECT COUNT(*) FROM events WHERE id = 8 AND kind = '1e3'",
		"SELECT COUNT(*) FROM events WHERE id = 9 AND kind = '10'",
	} {
		if got, _ := wireQuery(t, ts.URL, sql); got != 1 {
			t.Errorf("%s = %v, want 1", sql, got)
		}
	}
}

// TestIngestUnknownTable pins the typed not_found error.
func TestIngestUnknownTable(t *testing.T) {
	_, ts, _ := newTestServer(t, 10, Config{})
	resp, err := http.Post(ts.URL+"/v1/ingest/nosuch", "application/x-ndjson", strings.NewReader("[1]\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if lines[0]["error_code"] != ErrCodeNotFound {
		t.Fatalf("error line = %v", lines[0])
	}
}

// TestCursorPaginationAndRewind drives the server-side cursor lifecycle:
// create, page to exhaustion, rewind, re-read identically, delete, and
// observe the defined closed error afterward.
func TestCursorPaginationAndRewind(t *testing.T) {
	const rows = 3000
	_, ts, _ := newTestServer(t, rows, Config{})
	resp := postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events"})
	defer resp.Body.Close()
	created := decodeLines(t, resp.Body)[0]
	if created["code"] != CodeOK {
		t.Fatalf("create = %v", created)
	}
	id := created["cursor_id"].(string)
	if int(created["rows_total"].(float64)) != rows {
		t.Fatalf("rows_total = %v", created["rows_total"])
	}

	readAll := func() []float64 {
		var got []float64
		for {
			r := postJSON(t, ts.URL+"/v1/cursors/"+id+"/next?max_rows=1000", nil)
			l := decodeLines(t, r.Body)[0]
			r.Body.Close()
			if l["code"] != CodeOK {
				t.Fatalf("next = %v", l)
			}
			for _, row := range l["rows"].([]any) {
				got = append(got, row.([]any)[0].(float64))
			}
			if l["cursor_done"].(bool) {
				return got
			}
		}
	}
	first := readAll()
	if len(first) != rows {
		t.Fatalf("paged %d rows, want %d", len(first), rows)
	}
	// Exhausted cursor: another next returns an empty done page, not junk —
	// and its rows are an empty array, not null.
	r := postJSON(t, ts.URL+"/v1/cursors/"+id+"/next", nil)
	l := decodeLines(t, r.Body)[0]
	r.Body.Close()
	if rows, isArray := l["rows"].([]any); !l["cursor_done"].(bool) || !isArray || len(rows) != 0 || l["page_rows"] != float64(0) {
		t.Fatalf("post-exhaustion page = %v", l)
	}
	// Rewind → identical second read.
	r = postJSON(t, ts.URL+"/v1/cursors/"+id+"/rewind", nil)
	if got := decodeLines(t, r.Body)[0]; got["rewound"] != true {
		t.Fatalf("rewind = %v", got)
	}
	r.Body.Close()
	second := readAll()
	if len(second) != rows {
		t.Fatalf("re-read %d rows, want %d", len(second), rows)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d diverged after rewind: %v vs %v", i, first[i], second[i])
		}
	}
	// Delete, then every access is a defined error.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cursors/"+id, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	r = postJSON(t, ts.URL+"/v1/cursors/"+id+"/next", nil)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("next after delete status = %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestCursorRegistrySingleOwner pins cursor ownership: Server.cursors is
// the only id → cursor map, so a DELETE and a session close each remove
// the entry and close the Result — no closed cursor lingers in the map, no
// open Result survives its session, and a session-less cursor is untouched.
func TestCursorRegistrySingleOwner(t *testing.T) {
	srv, ts, _ := newTestServer(t, 100, Config{})
	resp := postJSON(t, ts.URL+"/v1/sessions", nil)
	sess := decodeLines(t, resp.Body)[0]["session_id"].(string)
	resp.Body.Close()

	create := func(sessionID string) *cursor {
		t.Helper()
		r := postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events", "session_id": sessionID})
		defer r.Body.Close()
		id := decodeLines(t, r.Body)[0]["cursor_id"].(string)
		srv.cursorMu.Lock()
		defer srv.cursorMu.Unlock()
		return srv.cursors[id]
	}
	httpDelete := func(path string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s status = %d", path, r.StatusCode)
		}
	}

	const n = 6
	owned := make([]*cursor, n)
	for i := range owned {
		owned[i] = create(sess)
	}
	free := create("")
	for _, c := range owned[:n/2] {
		httpDelete("/v1/cursors/" + c.id)
	}
	httpDelete("/v1/sessions/" + sess)

	srv.cursorMu.Lock()
	left := len(srv.cursors)
	_, freeKept := srv.cursors[free.id]
	srv.cursorMu.Unlock()
	if left != 1 || !freeKept {
		t.Fatalf("registry holds %d cursors (session-less kept: %v), want only the session-less one", left, freeKept)
	}
	for i, c := range owned {
		if _, _, closed := c.stats(); !closed || c.res.Err() == nil {
			t.Errorf("session cursor %d: Result still open after delete/session close", i)
		}
	}
	if _, _, closed := free.stats(); closed {
		t.Error("session-less cursor closed by another session's close")
	}
	// A cursor cannot be created under the closed session.
	r := postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events", "session_id": sess})
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("create under closed session status = %d", r.StatusCode)
	}
}

// TestSessionlessCursorIdlesOut: a cursor opened without a session closes
// once it has sat idle longer than SessionIdleTimeout, so a client that
// never deletes it, or crashes, leaks no Result. /next marks a cursor used,
// and a session-scoped cursor follows its session, not its own idleness.
func TestSessionlessCursorIdlesOut(t *testing.T) {
	srv, ts, _ := newTestServer(t, 100, Config{SessionIdleTimeout: time.Minute})
	resp := postJSON(t, ts.URL+"/v1/sessions", nil)
	sess := decodeLines(t, resp.Body)[0]["session_id"].(string)
	resp.Body.Close()
	open := func(sessionID string) string {
		t.Helper()
		r := postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events", "session_id": sessionID})
		defer r.Body.Close()
		return decodeLines(t, r.Body)[0]["cursor_id"].(string)
	}
	next := func(id string) map[string]any {
		t.Helper()
		r := postJSON(t, ts.URL+"/v1/cursors/"+id+"/next?max_rows=10", nil)
		defer r.Body.Close()
		return decodeLines(t, r.Body)[0]
	}
	cursorsOpen := func() float64 {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return decodeLines(t, r.Body)[0]["cursors_open"].(float64)
	}
	idle, used, scoped := open(""), open(""), open(sess)
	// Two minutes pass with no request to any cursor; then used is read.
	srv.cursorMu.Lock()
	for _, c := range srv.cursors {
		c.lastUsed = c.lastUsed.Add(-2 * time.Minute)
	}
	srv.cursorMu.Unlock()
	if l := next(used); l["code"] != CodeOK {
		t.Fatalf("next on a live cursor = %v", l)
	}
	srv.sweep(time.Now())
	if l := next(idle); l["error_code"] != ErrCodeNotFound {
		t.Fatalf("next on the idle session-less cursor after the sweep = %v", l)
	}
	if l := next(scoped); l["code"] != CodeOK {
		t.Fatalf("the session-scoped cursor did not survive its own idleness: %v", l)
	}
	if n := cursorsOpen(); n != 2 {
		t.Fatalf("cursors_open = %v after the first sweep, want 2", n)
	}
	// Later still, the session and the used cursor have idled out too.
	srv.sweep(time.Now().Add(2 * time.Minute))
	if l := next(used); l["error_code"] != ErrCodeNotFound {
		t.Fatalf("next after the second sweep = %v", l)
	}
	if n := cursorsOpen(); n != 0 {
		t.Fatalf("cursors_open = %v after the second sweep, want 0", n)
	}
}

// TestSessionScopedCancellation pins the multi-session contract: closing
// a session cancels its in-flight query (observed as a cancel log event,
// not an error) and closes its cursors.
func TestSessionScopedCancellation(t *testing.T) {
	srv, ts, logBuf := newTestServer(t, 200_000, Config{})
	resp := postJSON(t, ts.URL+"/v1/sessions", nil)
	sess := decodeLines(t, resp.Body)[0]["session_id"].(string)
	resp.Body.Close()

	// Park a cursor on the session.
	resp = postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": "SELECT id FROM events", "session_id": sess})
	cur := decodeLines(t, resp.Body)[0]["cursor_id"].(string)
	resp.Body.Close()

	// Start a heavy session-scoped query, then close the session while it
	// streams.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{
			"sql":        "SELECT id, kind, value FROM events ORDER BY value, id",
			"session_id": sess,
		})
		r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			close(started)
			finished <- err
			return
		}
		defer r.Body.Close()
		buf := make([]byte, 1)
		_, _ = r.Body.Read(buf) // first byte: the stream is live
		close(started)
		_, err = io.Copy(io.Discard, r.Body)
		finished <- err
	}()
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	<-finished // stream ended (truncated or complete — the race is real)

	// The session's cursor died with it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r := postJSON(t, ts.URL+"/v1/cursors/"+cur+"/next", nil)
		status := r.StatusCode
		r.Body.Close()
		if status == http.StatusNotFound || status == http.StatusConflict {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor still alive after session close (status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = srv
	// The log must carry session_close; a canceled query logs cancel, not
	// error (when the query outpaced the close, there is an ok instead —
	// but never an error).
	logs := logBuf.String()
	if !strings.Contains(logs, `"event":"session_close"`) {
		t.Fatalf("no session_close event in log:\n%s", logs)
	}
	if strings.Contains(logs, `"error_code":"query_failed"`) {
		t.Fatalf("session cancellation logged as query failure:\n%s", logs)
	}
}

// TestClientDisconnectCancelsAndLogsCancel is the mid-stream-disconnect
// contract: the server observes the dropped connection, aborts the
// executor, increments queries_canceled_total, and logs a cancel line —
// never an error line.
func TestClientDisconnectCancelsAndLogsCancel(t *testing.T) {
	srv, ts, logBuf := newTestServer(t, 300_000, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"sql": "SELECT id, kind, value FROM events"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk so the stream is known to be flowing, then hang up.
	buf := make([]byte, 4096)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.queriesCanceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queries_canceled_total never incremented after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"code":"cancel"`) || !strings.Contains(logs, `"event":"query_canceled"`) {
		t.Fatalf("no cancel event in log:\n%s", logs)
	}
	if strings.Contains(logs, `"event":"query","error_code"`) {
		t.Fatalf("disconnect logged as query error:\n%s", logs)
	}
}

// TestAuthAndStartupRedaction: with a bearer token configured, /healthz
// stays open, everything else requires the token, and the startup log
// line redacts the secret.
func TestAuthAndStartupRedaction(t *testing.T) {
	const token = "hunter2-very-secret"
	_, ts, logBuf := newTestServer(t, 10, Config{AuthTokenSecret: token})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz without token = %d", r.StatusCode)
	}
	r.Body.Close()
	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("stats without token = %d, want 401", r.StatusCode)
	}
	lines := decodeLines(t, r.Body)
	r.Body.Close()
	if lines[0]["error_code"] != ErrCodeUnauthorized {
		t.Fatalf("unauthorized line = %v", lines[0])
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats with token = %d", r.StatusCode)
	}
	r.Body.Close()
	logs := logBuf.String()
	if strings.Contains(logs, token) {
		t.Fatalf("startup log leaked the auth token:\n%s", logs)
	}
	if !strings.Contains(logs, `"auth_token_secret":"***"`) {
		t.Fatalf("startup log missing redacted secret field:\n%s", logs)
	}
}

// TestStatsShape validates /v1/stats carries the suffix-named counters
// the smoke client and dashboards key on.
func TestStatsShape(t *testing.T) {
	_, ts, _ := newTestServer(t, 100, Config{})
	resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM events"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	st := decodeLines(t, r.Body)[0]
	for _, k := range []string{
		"uptime_ms", "queries_total", "queries_canceled_total", "queries_rejected_total",
		"rows_streamed_total", "ingest_rows_total", "sessions_open", "cursors_open",
		"plan_cache_hits_total", "plan_cache_hit_rate",
		"durability_enabled", "wal_bytes_total", "checkpoints_total",
		"checkpoint_epoch_ms", "snapshot_version", "recovered_rows_total", "wal_error",
	} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, st)
		}
	}
	if st["queries_total"].(float64) < 1 {
		t.Fatalf("queries_total = %v", st["queries_total"])
	}
	// Memory-only server: durability fields present but zeroed.
	if st["durability_enabled"] != false || st["wal_bytes_total"].(float64) != 0 || st["wal_error"] != "" {
		t.Fatalf("memory-only durability stats: enabled=%v wal_bytes=%v wal_error=%v",
			st["durability_enabled"], st["wal_bytes_total"], st["wal_error"])
	}
}

// TestDurableServerRestart runs the crash-recovery loop in-process: a
// durable server ingests over HTTP, is torn down without any graceful
// catalog handoff, and a second server over the same data directory must
// serve byte-identical query results with matching snapshot_version.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*datalab.Platform, *httptest.Server, *Server) {
		p, err := datalab.OpenDurable(dir, datalab.DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(p, Config{}, io.Discard)
		ts := httptest.NewServer(srv.Handler())
		return p, ts, srv
	}

	p1, ts1, srv1 := open()
	if err := LoadDemo(p1, 500); err != nil {
		t.Fatal(err)
	}
	body := &bytes.Buffer{}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(body, "[%d, \"extra\", %g]\n", 100000+i, float64(i))
	}
	resp, err := http.Post(ts1.URL+"/v1/ingest/events", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	if last := lines[len(lines)-1]; last["code"] != CodeOK || last["rows_appended_total"].(float64) != 300 {
		t.Fatalf("ingest terminal line: %v", last)
	}

	const probe = "SELECT kind, COUNT(*), SUM(value) FROM events GROUP BY kind ORDER BY kind"
	// queryBody canonicalizes the response stream: every line, in order,
	// with only the timing fields dropped, the trace's included — so data,
	// row order, batch structure, codes and the trace's stages and rows
	// must all match across the restart.
	queryBody := func(ts *httptest.Server) string {
		r := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": probe})
		defer r.Body.Close()
		var out []byte
		for _, l := range decodeLines(t, r.Body) {
			delete(l, "duration_ms")
			if tr, ok := l["trace"].(map[string]any); ok {
				delete(tr, "duration_ms")
				for _, st := range tr["stages"].([]any) {
					delete(st.(map[string]any), "duration_ms")
				}
			}
			b, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, b...), '\n')
		}
		return string(out)
	}
	statsLine := func(ts *httptest.Server) map[string]any {
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return decodeLines(t, r.Body)[0]
	}

	want := queryBody(ts1)
	st1 := statsLine(ts1)
	if st1["durability_enabled"] != true || st1["wal_bytes_total"].(float64) == 0 || st1["wal_error"] != "" {
		t.Fatalf("durable server stats: %v", st1)
	}
	// Tear down abruptly: no checkpoint, no graceful catalog handoff —
	// recovery must come from the log alone.
	ts1.Close()
	srv1.Close()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, ts2, srv2 := open()
	defer func() { ts2.Close(); srv2.Close(); p2.Close() }()
	if got := queryBody(ts2); got != want {
		t.Fatalf("recovered query diverged:\nwant %s\ngot  %s", want, got)
	}
	st2 := statsLine(ts2)
	if st2["snapshot_version"] != st1["snapshot_version"] {
		t.Fatalf("snapshot_version %v -> %v across restart", st1["snapshot_version"], st2["snapshot_version"])
	}
	if st2["recovered_rows_total"].(float64) != 800 {
		t.Fatalf("recovered_rows_total = %v, want 800", st2["recovered_rows_total"])
	}
}

// TestRedact unit-tests the secret scrubber on nested shapes.
func TestRedact(t *testing.T) {
	in := map[string]any{
		"api_key_secret": "sk-123",
		"nested":         map[string]any{"db_password_secret": "pw", "timeout_s": 30},
		"list":           []any{map[string]any{"token_secret": "t"}},
		"plain":          "ok",
	}
	out := Redact(in).(map[string]any)
	if out["api_key_secret"] != "***" {
		t.Fatalf("top-level secret survived: %v", out)
	}
	if out["nested"].(map[string]any)["db_password_secret"] != "***" {
		t.Fatal("nested secret survived")
	}
	if out["list"].([]any)[0].(map[string]any)["token_secret"] != "***" {
		t.Fatal("secret inside list survived")
	}
	if out["plain"] != "ok" || in["api_key_secret"] != "sk-123" {
		t.Fatal("Redact mutated non-secret data or its input")
	}
}
