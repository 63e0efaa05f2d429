// Command datalab-smoke is the end-to-end smoke client CI runs against a
// containerized datalab-server. It validates the agent-first JSONL wire
// protocol line by line — every line must carry a known `code`, the
// suffix-named fields each code promises (`rows_total`, `batch_rows`,
// `duration_ms`, ...), suffix-consistent value types, no unredacted
// `*_secret` value, and a `trace` on every terminal query, cursor and ingest
// line — across five scenarios:
//
//  1. streamed query of the full demo table (startup → progress* → ok,
//     with row-count bookkeeping cross-checked)
//  2. streamed JSONL ingest followed by a count query proving visibility
//  3. admission control: a flood of concurrent heavy queries must produce
//     at least one typed HTTP 429 backpressure rejection
//  4. mid-stream disconnect: dropping a streaming connection must surface
//     as queries_canceled_total on /v1/stats (a cancellation, not an error)
//  5. server-side cursors: paginate, rewind, re-read identically, delete
//
// Exit status 0 means every scenario passed; any protocol violation or
// failed expectation exits 1 with one JSONL error line per finding.
//
// With -crash prepare|verify the client instead runs one half of the
// crash-recovery scenario (see crash.go): prepare ingests a large durable
// workload and records ground-truth query results; after the harness
// SIGKILLs and restarts the server, verify asserts the recovered state is
// byte-identical.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

var (
	baseURL   = flag.String("url", "http://localhost:8080", "server base URL")
	rows      = flag.Int("rows", 100_000, "expected demo table row count")
	flood     = flag.Int("flood", 8, "concurrent heavy queries for the backpressure scenario")
	waitFor   = flag.Duration("wait", 60*time.Second, "how long to wait for the server to become healthy")
	crashMode = flag.String("crash", "", "crash-recovery phase: `prepare` (ingest + record ground truth) or `verify` (assert recovery); empty runs the standard scenarios")
	crashRows = flag.Int("crash-rows", 100_000, "rows to ingest in the -crash prepare phase")
	statePath = flag.String("state", "smoke-crash-state.json", "ground-truth state file shared between -crash prepare and verify")
	failures  int
)

func failf(format string, args ...any) {
	failures++
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Printf(`{"code":"error","error":%s}`+"\n", msg)
}

func okf(scenario string, fields string) {
	fmt.Printf(`{"code":"ok","scenario":%q%s}`+"\n", scenario, fields)
}

var token = os.Getenv("DATALAB_AUTH_TOKEN_SECRET")

func do(method, path string, body io.Reader, contentType string) (*http.Response, error) {
	req, err := http.NewRequest(method, *baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return http.DefaultClient.Do(req)
}

func postJSON(path string, v any) (*http.Response, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return do(http.MethodPost, path, bytes.NewReader(data), "application/json")
}

// knownCodes is the complete wire vocabulary.
var knownCodes = map[string]bool{"startup": true, "progress": true, "ok": true, "error": true, "cancel": true}

// requiredFields maps a code to the fields every such line must carry
// regardless of which stream it appears in. Progress lines are stream
// specific (query batches vs ingest watermarks), so the query scenario
// checks its own progress shape.
var requiredFields = map[string][]string{
	"startup": {"columns", "rows_total"},
	"error":   {"error", "error_code"},
}

// queryProgressFields is the shape of a query-stream progress line.
var queryProgressFields = []string{"batch_rows", "rows_sent", "rows_total", "duration_ms", "rows"}

// checkLine validates one decoded wire line: known code, required fields,
// suffix/type consistency, redacted secrets. where names the scenario for
// error messages.
func checkLine(where string, l map[string]any) {
	code, _ := l["code"].(string)
	if !knownCodes[code] {
		failf("%s: unknown code %q in line %v", where, code, l)
		return
	}
	for _, f := range requiredFields[code] {
		if _, ok := l[f]; !ok {
			failf("%s: %s line missing required field %q: %v", where, code, f, l)
		}
	}
	checkFields(where, l)
}

// checkFields walks every field recursively: numeric suffixes must hold
// numbers, *_secret values must be redacted.
func checkFields(where string, v any) {
	switch m := v.(type) {
	case map[string]any:
		for k, val := range m {
			lk := strings.ToLower(k)
			if strings.HasSuffix(lk, "_secret") {
				if s, _ := val.(string); s != "***" && val != nil {
					failf("%s: unredacted secret field %q", where, k)
				}
			}
			for _, suf := range []string{"_ms", "_total", "_rows", "_bytes", "_epoch_ms"} {
				if strings.HasSuffix(lk, suf) {
					if _, ok := val.(float64); !ok {
						failf("%s: field %q has suffix %s but non-numeric value %v", where, k, suf, val)
					}
					break
				}
			}
			checkFields(where, val)
		}
	case []any:
		for _, val := range m {
			checkFields(where, val)
		}
	}
}

// traceStages is the wire's stage vocabulary, in stage order.
var traceStages = []string{"read", "queue", "plan", "scan_filter", "join", "group", "window", "project", "sort", "finish", "drain", "encode", "send"}

// checkTrace validates a terminal line's trace: an object whose stages are
// known, in stage order, and sum to its duration_ms within a microsecond
// per stage (each is rounded down to the microsecond), and whose
// duration_ms is the line's own when the line carries one. checkFields has
// already checked every suffix-named member inside it.
func checkTrace(where string, l map[string]any) {
	tr, ok := l["trace"].(map[string]any)
	if !ok {
		failf("%s: terminal %v line carries no trace object: %v", where, l["code"], l)
		return
	}
	total, ok := tr["duration_ms"].(float64)
	if d, has := l["duration_ms"]; !ok || (has && d != total) {
		failf("%s: trace duration_ms %v, line duration_ms %v", where, tr["duration_ms"], l["duration_ms"])
	}
	stages, ok := tr["stages"].([]any)
	if !ok {
		failf("%s: trace carries no stages array: %v", where, tr)
		return
	}
	sum, next := 0.0, 0
	for _, v := range stages {
		st, _ := v.(map[string]any)
		name, _ := st["stage"].(string)
		i := next
		for i < len(traceStages) && traceStages[i] != name {
			i++
		}
		if i == len(traceStages) {
			failf("%s: trace stage %q unknown or out of order", where, name)
			return
		}
		next = i + 1
		if _, ok := st["output_rows"].(float64); !ok {
			failf("%s: trace stage %q without output_rows", where, name)
		}
		sum += num(st["duration_ms"])
	}
	if len(stages) > 0 && math.Abs(sum-total) > float64(len(stages))*0.001+1e-9 {
		failf("%s: trace stages sum to %v ms, duration_ms %v", where, sum, total)
	}
}

// decodeStream reads and validates every JSONL line of a response body;
// traced says the stream's terminal line must carry a trace.
func decodeStream(where string, body io.Reader, traced bool) []map[string]any {
	var lines []map[string]any
	dec := json.NewDecoder(body)
	for {
		var l map[string]any
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			failf("%s: malformed JSONL line %d: %v", where, len(lines)+1, err)
			return lines
		}
		checkLine(where, l)
		lines = append(lines, l)
	}
	if len(lines) == 0 {
		failf("%s: response carried no JSONL lines", where)
	} else if last := lines[len(lines)-1]; traced && (last["code"] == "ok" || last["code"] == "error") {
		checkTrace(where, last)
	}
	return lines
}

func waitHealthy() bool {
	deadline := time.Now().Add(*waitFor)
	for time.Now().Before(deadline) {
		resp, err := do(http.MethodGet, "/healthz", nil, "")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
	failf("server never became healthy at %s within %v", *baseURL, *waitFor)
	return false
}

// scenarioQueryStream: the full demo table must stream as validated
// batches whose counters add up.
func scenarioQueryStream() {
	start := time.Now()
	resp, err := postJSON("/v1/query", map[string]any{"sql": "SELECT id, kind, value FROM events"})
	if err != nil {
		failf("query: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		failf("query: status %d", resp.StatusCode)
		return
	}
	lines := decodeStream("query", resp.Body, true)
	if len(lines) < 3 {
		failf("query: expected startup + progress* + ok, got %d lines", len(lines))
		return
	}
	if lines[0]["code"] != "startup" {
		failf("query: first line code = %v", lines[0]["code"])
	}
	if got := int(num(lines[0]["rows_total"])); got != *rows {
		failf("query: rows_total = %d, want %d", got, *rows)
	}
	last := lines[len(lines)-1]
	if last["code"] != "ok" {
		failf("query: terminal code = %v", last["code"])
	}
	seen, batches := 0, 0
	for _, l := range lines[1 : len(lines)-1] {
		if l["code"] != "progress" {
			failf("query: mid-stream code = %v", l["code"])
			continue
		}
		batches++
		for _, f := range queryProgressFields {
			if _, ok := l[f]; !ok {
				failf("query: batch %d missing required field %q", batches, f)
			}
		}
		n := int(num(l["batch_rows"]))
		if rowsArr, ok := l["rows"].([]any); !ok || len(rowsArr) != n {
			failf("query: batch %d: batch_rows=%d but rows payload has %d", batches, n, len(l["rows"].([]any)))
		}
		seen += n
		if int(num(l["rows_sent"])) != seen {
			failf("query: batch %d: rows_sent=%v, want %d", batches, l["rows_sent"], seen)
		}
	}
	if seen != *rows {
		failf("query: streamed %d rows, want %d", seen, *rows)
	}
	checkEntered("SELECT kind, COUNT(*) FROM events GROUP BY kind", "group")
	checkEntered("SELECT id, SUM(value) OVER (PARTITION BY kind ORDER BY id) FROM events WHERE id < 1000", "window")
	okf("query_stream", fmt.Sprintf(`,"rows_total":%d,"batches_total":%d,"duration_ms":%d`,
		seen, batches, time.Since(start).Milliseconds()))
}

// checkEntered runs sql, whose trace decodeStream checks, and requires
// the trace to have entered stage.
func checkEntered(sql, stage string) {
	where := "query_" + stage
	resp, err := postJSON("/v1/query", map[string]any{"sql": sql})
	if err != nil {
		failf("%s: %v", where, err)
		return
	}
	defer resp.Body.Close()
	lines := decodeStream(where, resp.Body, true)
	if len(lines) == 0 {
		return
	}
	last := lines[len(lines)-1]
	tr, _ := last["trace"].(map[string]any)
	stages, _ := tr["stages"].([]any)
	for _, v := range stages {
		if st, _ := v.(map[string]any); st["stage"] == stage {
			return
		}
	}
	failf("%s: %v line's trace has no %s stage: %v", where, last["code"], stage, tr)
}

// scenarioIngest: stream rows in as JSONL, then prove they are visible.
func scenarioIngest() {
	const extra = 5000
	var body bytes.Buffer
	for i := 0; i < extra; i++ {
		id := *rows + i
		fmt.Fprintf(&body, "[%d, \"smoke\", %d.5]\n", id, i%100)
	}
	resp, err := do(http.MethodPost, "/v1/ingest/events", &body, "application/x-ndjson")
	if err != nil {
		failf("ingest: %v", err)
		return
	}
	lines := decodeStream("ingest", resp.Body, true)
	resp.Body.Close()
	last := lines[len(lines)-1]
	if last["code"] != "ok" || int(num(last["rows_appended_total"])) != extra {
		failf("ingest: terminal line = %v", last)
		return
	}
	resp, err = postJSON("/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM events WHERE kind = 'smoke'"})
	if err != nil {
		failf("ingest: count query: %v", err)
		return
	}
	qlines := decodeStream("ingest_count", resp.Body, true)
	resp.Body.Close()
	if len(qlines) < 2 {
		failf("ingest: count query returned %d lines", len(qlines))
		return
	}
	row, ok := qlines[1]["rows"].([]any)
	if !ok || len(row) == 0 {
		failf("ingest: count query progress line carried no rows")
		return
	}
	if got := int(num(row[0].([]any)[0])); got != extra {
		failf("ingest: %d smoke rows visible, want %d", got, extra)
		return
	}
	okf("ingest_stream", fmt.Sprintf(`,"rows_appended_total":%d`, extra))
}

// scenarioBackpressure floods the server with heavy concurrent queries;
// at least one must be rejected with the typed backpressure error.
func scenarioBackpressure() {
	heavy := map[string]any{"sql": "SELECT id, kind, value FROM events ORDER BY value, kind, id"}
	var mu sync.Mutex
	rejected, succeeded := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < *flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postJSON("/v1/query", heavy)
			if err != nil {
				failf("backpressure: flood request: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				lines := decodeStream("backpressure", resp.Body, true)
				mu.Lock()
				rejected++
				mu.Unlock()
				if len(lines) > 0 {
					if lines[0]["error_code"] != "backpressure" {
						failf("backpressure: 429 line error_code = %v", lines[0]["error_code"])
					}
					if _, ok := lines[0]["queue_wait_ms"]; !ok {
						failf("backpressure: 429 line missing queue_wait_ms")
					}
				}
			case http.StatusOK:
				io.Copy(io.Discard, resp.Body)
				mu.Lock()
				succeeded++
				mu.Unlock()
			default:
				failf("backpressure: unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		failf("backpressure: %d concurrent heavy queries, none rejected — admission control inert", *flood)
		return
	}
	if succeeded == 0 {
		failf("backpressure: every query rejected — admission control admits nothing")
		return
	}
	okf("backpressure", fmt.Sprintf(`,"queries_rejected_total":%d,"queries_ok_total":%d`, rejected, succeeded))
}

// scenarioDisconnect drops a streaming connection mid-query and expects
// the server to record a cancellation (not an error) in its stats.
func scenarioDisconnect() {
	before := statValue("queries_canceled_total")
	ctx, cancel := context.WithCancel(context.Background())
	data, _ := json.Marshal(map[string]any{"sql": "SELECT id, kind, value FROM events"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, *baseURL+"/v1/query", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		failf("disconnect: %v", err)
		return
	}
	buf := make([]byte, 8192)
	if _, err := resp.Body.Read(buf); err != nil {
		failf("disconnect: first read: %v", err)
	}
	cancel() // hang up mid-stream
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if statValue("queries_canceled_total") > before {
			okf("disconnect_cancels", fmt.Sprintf(`,"queries_canceled_total":%d`, int(statValue("queries_canceled_total"))))
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	failf("disconnect: queries_canceled_total never advanced past %v — disconnect not observed as cancellation", before)
}

// scenarioCursor paginates a server-side cursor, rewinds, and re-reads.
func scenarioCursor() {
	resp, err := postJSON("/v1/cursors", map[string]any{"sql": "SELECT id FROM events ORDER BY id LIMIT 5000"})
	if err != nil {
		failf("cursor: %v", err)
		return
	}
	lines := decodeStream("cursor_create", resp.Body, true)
	resp.Body.Close()
	if lines[0]["code"] != "ok" {
		failf("cursor: create line = %v", lines[0])
		return
	}
	id, _ := lines[0]["cursor_id"].(string)
	readAll := func() int {
		total := 0
		for {
			r, err := do(http.MethodPost, "/v1/cursors/"+id+"/next?max_rows=1500", nil, "")
			if err != nil {
				failf("cursor: next: %v", err)
				return total
			}
			pl := decodeStream("cursor_next", r.Body, true)
			r.Body.Close()
			if len(pl) == 0 {
				return total
			}
			if rowsArr, ok := pl[0]["rows"].([]any); ok {
				total += len(rowsArr)
			}
			if done, _ := pl[0]["cursor_done"].(bool); done {
				return total
			}
		}
	}
	first := readAll()
	if first != 5000 {
		failf("cursor: first read paged %d rows, want 5000", first)
	}
	r, err := do(http.MethodPost, "/v1/cursors/"+id+"/rewind", nil, "")
	if err != nil {
		failf("cursor: rewind: %v", err)
		return
	}
	decodeStream("cursor_rewind", r.Body, false)
	r.Body.Close()
	if second := readAll(); second != first {
		failf("cursor: re-read after rewind paged %d rows, want %d", second, first)
	}
	r, err = do(http.MethodDelete, "/v1/cursors/"+id, nil, "")
	if err != nil {
		failf("cursor: delete: %v", err)
		return
	}
	decodeStream("cursor_delete", r.Body, false)
	r.Body.Close()
	okf("cursor_pagination", fmt.Sprintf(`,"rows_total":%d`, first))
}

// statsLine fetches the /v1/stats line (nil on failure).
func statsLine() map[string]any {
	resp, err := do(http.MethodGet, "/v1/stats", nil, "")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var l map[string]any
	if json.NewDecoder(resp.Body).Decode(&l) != nil {
		return nil
	}
	return l
}

// statValue fetches one numeric field from /v1/stats (-1 on failure).
func statValue(field string) float64 {
	l := statsLine()
	if l == nil {
		return -1
	}
	return num(l[field])
}

// statBool fetches one boolean field from /v1/stats (false on failure).
func statBool(field string) bool {
	b, _ := statsLine()[field].(bool)
	return b
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func main() {
	flag.Parse()
	if !waitHealthy() {
		os.Exit(1)
	}
	switch *crashMode {
	case "":
		// fall through to the standard five scenarios
	case "prepare", "verify":
		if *crashMode == "prepare" {
			crashPrepare(*crashRows, *statePath)
		} else {
			crashVerify(*statePath)
		}
		if failures > 0 {
			fmt.Printf(`{"code":"error","error":"crash %s failed","failures_total":%d}`+"\n", *crashMode, failures)
			os.Exit(1)
		}
		return
	default:
		fmt.Printf(`{"code":"error","error":"unknown -crash mode %q (want prepare or verify)"}`+"\n", *crashMode)
		os.Exit(2)
	}
	scenarioQueryStream()
	scenarioIngest()
	scenarioBackpressure()
	scenarioDisconnect()
	scenarioCursor()
	if failures > 0 {
		fmt.Printf(`{"code":"error","error":"smoke failed","failures_total":%d}`+"\n", failures)
		os.Exit(1)
	}
	fmt.Println(`{"code":"ok","event":"smoke","scenarios_total":5}`)
}
