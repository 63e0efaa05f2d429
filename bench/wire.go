package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"

	"datalab"
	"datalab/internal/server"
)

// wire_mixed: a request mix against the internal/server HTTP handler on
// one keep-alive connection. Per-request overhead, JSONL encoding,
// admission, sessions and cursors dominate; the engine that
// sql_analytics stresses does little. Ingest posts put writes beside
// reads, so every replay starts from a fresh platform and server.
const (
	wireRows       = 100_000
	wireCountSpan  = 1000
	wireGroupSpan  = 5000
	wireStreamSpan = 20_000
	wirePageRows   = 4096
	wireCursorSpan = 5 * wirePageRows
	wireIngestRows = 500
)

type wireKind int

const (
	wireCount  wireKind = iota // bound-arg COUNT(*) round trip
	wireGroup                  // bound-arg grouped aggregate over 5000 ids
	wireStream                 // 20 000 rows streamed from /v1/query
	wireCursor                 // create, 5 pages, rewind, 1 page, delete
	wireIngest                 // 500 JSONL rows to /v1/ingest/events
)

// wireMix is the number of ops of each kind: 45/30/10/7/8 % of 500. The
// cursor cycles are the slowest ops and more than 5 % of the mix, so
// p95 falls inside their class and not on the edge between two.
var wireMix = map[wireKind]int{wireCount: 225, wireGroup: 150, wireStream: 50, wireCursor: 35, wireIngest: 40}

const (
	wireCountSQL = "SELECT COUNT(*) FROM events WHERE id >= ? AND id < ?"
	wireGroupSQL = "SELECT kind, COUNT(*), SUM(value) FROM events WHERE id >= ? AND id < ? GROUP BY kind"
)

type wireOp struct {
	kind wireKind
	lo   int    // base range start; replay r reads from lo+r
	body []byte // ingest: the JSONL rows
	rows [][]string
	// visible is the table size an ingest post must report afterwards.
	visible int
}

// terminal is the part of a closing ok/error line the checks read.
type terminal struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	RowsTotal    int    `json:"rows_total"`
	CursorID     string `json:"cursor_id"`
	PageRows     int    `json:"page_rows"`
	RowsSent     int    `json:"rows_sent_total"`
	RowsAppended int    `json:"rows_appended_total"`
	RowsVisible  int    `json:"rows_visible_total"`
}

type wireMixed struct {
	ops []wireOp

	p      *datalab.Platform
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	twin   *datalab.Ingestor // traced pass: the same rows through the library

	shift    int
	bodies   [][]byte // this replay's request bodies for the query kinds
	lineBuf  []byte
	validate bool // traced pass: JSON-decode and check every line
	// firstCell is the first cell of the last row-carrying line seen
	// while validating: the value of a COUNT(*).
	firstCell any
	requests  int
	rejected  int
}

func newWireMixed(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &wireMixed{lineBuf: make([]byte, 1<<20)}
	span := map[wireKind]int{wireCount: wireCountSpan, wireGroup: wireGroupSpan, wireStream: wireStreamSpan, wireCursor: wireCursorSpan}
	for kind := wireCount; kind <= wireIngest; kind++ {
		for k := 0; k < wireMix[kind]; k++ {
			op := wireOp{kind: kind}
			if kind != wireIngest {
				op.lo = rng.Intn(wireRows - span[kind] - replayShiftMax)
			}
			w.ops = append(w.ops, op)
		}
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	// Ingested ids start past every range a read touches, so reads have
	// closed-form answers whatever has been appended.
	visible := wireRows
	for i := range w.ops {
		op := &w.ops[i]
		if op.kind != wireIngest {
			continue
		}
		var body bytes.Buffer
		for j := 0; j < wireIngestRows; j++ {
			id, kind, val := visible+j, "wire", strconv.FormatFloat(float64(rng.Intn(10000))/100, 'f', 2, 64)
			fmt.Fprintf(&body, "[%d,%q,%s]\n", id, kind, val)
			op.rows = append(op.rows, []string{strconv.Itoa(id), kind, val})
		}
		visible += wireIngestRows
		op.body, op.visible = body.Bytes(), visible
	}
	w.bodies = make([][]byte, len(w.ops))
	return w, nil
}

func (w *wireMixed) numOps() int   { return len(w.ops) }
func (w *wireMixed) mutates() bool { return true }

func (w *wireMixed) describe() []string {
	return []string{
		fmt.Sprintf("server.LoadDemo(%d) behind httptest.NewServer, one keep-alive connection, fresh platform+server per replay", wireRows),
		fmt.Sprintf("%d requests: %d count(%d ids) / %d group(%d) / %d stream(%d rows) / %d cursor life cycles (%d-row pages) / %d ingest posts (%d rows), shuffled",
			len(w.ops), wireMix[wireCount], wireCountSpan, wireMix[wireGroup], wireGroupSpan, wireMix[wireStream], wireStreamSpan,
			wireMix[wireCursor], wirePageRows, wireMix[wireIngest], wireIngestRows),
	}
}

func (w *wireMixed) build() error {
	p, err := datalab.New()
	if err != nil {
		return err
	}
	if err := server.LoadDemo(p, wireRows); err != nil {
		return err
	}
	w.p = p
	w.srv = server.New(p, server.Config{}, io.Discard)
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return nil
}

func (w *wireMixed) teardown() {
	if w.srv != nil { // build got past LoadDemo
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.srv.Close()
	}
	w.p, w.srv, w.ts, w.client, w.twin = nil, nil, nil, nil, nil
}

func (w *wireMixed) begin(r replay) error {
	w.shift = r.Index % replayShiftMax
	w.validate = r.Traced
	for i := range w.ops {
		op := &w.ops[i]
		lo := op.lo + w.shift
		var req map[string]any
		switch op.kind {
		case wireCount:
			req = map[string]any{"sql": wireCountSQL, "args": []int{lo, lo + wireCountSpan}}
		case wireGroup:
			req = map[string]any{"sql": wireGroupSQL, "args": []int{lo, lo + wireGroupSpan}}
		case wireStream:
			req = map[string]any{"sql": w.rangeSQL("id, kind, value", lo, wireStreamSpan)}
		case wireCursor:
			req = map[string]any{"sql": w.rangeSQL("id, value", lo, wireCursorSpan)}
		default:
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	if r.Traced {
		twin, err := datalab.New()
		if err != nil {
			return err
		}
		if err := server.LoadDemo(twin, wireCountSpan); err != nil {
			return err
		}
		if w.twin, err = twin.Ingest("events"); err != nil {
			return err
		}
	}
	return nil
}

func (w *wireMixed) rangeSQL(cols string, lo, span int) string {
	return fmt.Sprintf("SELECT %s FROM events WHERE id >= %d AND id < %d", cols, lo, lo+span)
}

func (w *wireMixed) end(r replay) error {
	if w.rejected > 0 {
		return fmt.Errorf("%d of %d requests were rejected with 429; one client must never queue", w.rejected, w.requests)
	}
	return nil
}

var codeKey = []byte(`"code":"`)

// lineCode extracts the value of a wire line's "code" field without
// decoding the line. The server marshals lines from maps, so keys are
// sorted and "code" follows at most a couple of batch_* keys.
func lineCode(line []byte) []byte {
	i := bytes.Index(line, codeKey)
	if i < 0 {
		return nil
	}
	rest := line[i+len(codeKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// do sends one request and reads the JSONL response to its end. The
// timed pass is deliberately cheap, so that the load generator's CPU
// does not dilute cpu_ms_per_op: it scans lines, checks each carries a
// known code, and JSON-decodes only the terminal line. With w.validate
// (traced pass) every line is fully decoded.
func (w *wireMixed) do(method, path string, body []byte) (terminal, int64, error) {
	var term terminal
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return term, 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return term, 0, err
	}
	defer resp.Body.Close()
	w.requests++
	if resp.StatusCode == http.StatusTooManyRequests {
		w.rejected++
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(w.lineBuf, 16<<20)
	var wire int64
	closed := false
	for sc.Scan() {
		line := sc.Bytes()
		wire += int64(len(line)) + 1
		if closed {
			return term, wire, fmt.Errorf("%s %s: line after the terminal line", method, path)
		}
		if w.validate {
			var full struct {
				Rows [][]any `json:"rows"`
			}
			if err := json.Unmarshal(line, &full); err != nil {
				return term, wire, fmt.Errorf("%s %s: malformed line: %w", method, path, err)
			}
			if len(full.Rows) > 0 && len(full.Rows[0]) > 0 {
				w.firstCell = full.Rows[0][0]
			}
		}
		switch code := lineCode(line); string(code) {
		case server.CodeStartup, server.CodeProgress:
		case server.CodeOK, server.CodeError:
			if err := json.Unmarshal(line, &term); err != nil {
				return term, wire, fmt.Errorf("%s %s: malformed terminal line: %w", method, path, err)
			}
			closed = true
		default:
			return term, wire, fmt.Errorf("%s %s: line with code %q", method, path, code)
		}
	}
	if err := sc.Err(); err != nil {
		return term, wire, err
	}
	if term.Code != server.CodeOK {
		return term, wire, fmt.Errorf("%s %s: status %d, terminal line %q %s", method, path, resp.StatusCode, term.Code, term.Error)
	}
	return term, wire, nil
}

func wantField(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// query posts a /v1/query body and checks the terminal rows_total.
func (w *wireMixed) query(i, wantRows int) (int64, error) {
	term, wire, err := w.do("POST", "/v1/query", w.bodies[i])
	if err != nil {
		return wire, err
	}
	return wire, wantField("rows_total", term.RowsTotal, wantRows)
}

func (w *wireMixed) ingest(op *wireOp) error {
	term, _, err := w.do("POST", "/v1/ingest/events", op.body)
	if err != nil {
		return err
	}
	if err := wantField("rows_appended_total", term.RowsAppended, wireIngestRows); err != nil {
		return err
	}
	return wantField("rows_visible_total", term.RowsVisible, op.visible)
}

// cursorPage fetches one page and checks its size and position.
func (w *wireMixed) cursorPage(id string, wantSent int) error {
	term, _, err := w.do("POST", "/v1/cursors/"+id+"/next?max_rows="+strconv.Itoa(wirePageRows), nil)
	if err != nil {
		return err
	}
	if err := wantField("page_rows", term.PageRows, wirePageRows); err != nil {
		return err
	}
	return wantField("rows_sent_total", term.RowsSent, wantSent)
}

// cursorCycle is one cursor op: create, page through, rewind, re-read
// the first page, delete. page wraps each page fetch (the traced pass
// puts a span there).
func (w *wireMixed) cursorCycle(i int, page func(fetch func() error) error) error {
	term, _, err := w.do("POST", "/v1/cursors", w.bodies[i])
	if err != nil {
		return err
	}
	if err := wantField("rows_total", term.RowsTotal, wireCursorSpan); err != nil {
		return err
	}
	id := term.CursorID
	for sent := wirePageRows; sent <= wireCursorSpan; sent += wirePageRows {
		if err := page(func() error { return w.cursorPage(id, sent) }); err != nil {
			return err
		}
	}
	if _, _, err := w.do("POST", "/v1/cursors/"+id+"/rewind", nil); err != nil {
		return err
	}
	if err := page(func() error { return w.cursorPage(id, wirePageRows) }); err != nil {
		return err
	}
	_, _, err = w.do("DELETE", "/v1/cursors/"+id, nil)
	return err
}

func (w *wireMixed) op(i int) error {
	op := &w.ops[i]
	var err error
	switch op.kind {
	case wireCount:
		_, err = w.query(i, 1)
	case wireGroup:
		_, err = w.query(i, 3)
	case wireStream:
		_, err = w.query(i, wireStreamSpan)
	case wireCursor:
		err = w.cursorCycle(i, func(fetch func() error) error { return fetch() })
	case wireIngest:
		err = w.ingest(op)
	}
	return err
}

func (w *wireMixed) tracedOp(i int, tr *tracer) error {
	op := &w.ops[i]
	lo := op.lo + w.shift
	root := tr.start("op")
	var err error
	switch op.kind {
	case wireCount:
		id := tr.start("server.count")
		_, err = w.query(i, 1)
		tr.finish(id)
		if n, _ := w.firstCell.(float64); err == nil && n != wireCountSpan {
			err = fmt.Errorf("COUNT(*) over the wire = %v, want %d", w.firstCell, wireCountSpan)
		}
	case wireGroup:
		_, err = w.query(i, 3)
	case wireStream:
		id := tr.start("server.stream")
		var wire int64
		wire, err = w.query(i, wireStreamSpan)
		tr.finishCount(id, wire)
	case wireCursor:
		err = w.cursorCycle(i, func(fetch func() error) error {
			id := tr.start("server.cursor_page")
			defer tr.finish(id)
			return fetch()
		})
	case wireIngest:
		id := tr.start("server.ingest")
		err = w.ingest(op)
		tr.finish(id)
	}
	tr.finish(root)
	if err != nil {
		return err
	}

	// Probes: the same work through the library, beside the wire call.
	switch op.kind {
	case wireCount:
		// What the server does for a request with args, minus the wire.
		id := tr.start("sqlengine.library_count")
		stmt, err := w.p.Prepare(wireCountSQL)
		var res *datalab.Result
		if err == nil {
			res, err = stmt.Exec(context.Background(), lo, lo+wireCountSpan)
		}
		n := int64(0)
		if err == nil {
			for b := res.Next(); b != nil; b = res.Next() {
				n, _ = b.Int64(0, 0)
			}
		}
		tr.finish(id)
		if err != nil {
			return err
		}
		if n != wireCountSpan {
			return fmt.Errorf("library COUNT(*) = %d, want %d", n, wireCountSpan)
		}
		return probeFrontEnd(tr, wireCountSQL)
	case wireStream:
		return probeFrontEnd(tr, w.rangeSQL("id, kind, value", lo, wireStreamSpan))
	case wireIngest:
		id := tr.start("table.ingest_twin")
		for _, row := range op.rows {
			if err := w.twin.Append(row...); err != nil {
				tr.finish(id)
				return err
			}
		}
		_, err := w.twin.PublishErr()
		tr.finish(id)
		return err
	}
	return nil
}

func (w *wireMixed) layers(rd *runData) (map[string]float64, error) {
	tr := rd.tr
	streamSeconds, streamBytes := sum(tr.durations("server.stream")), sum(tr.counts("server.stream"))
	streams := float64(len(tr.durations("server.stream")))
	return map[string]float64{
		"server.roundtrip_overhead_ms": (median(tr.durations("server.count")) - median(tr.durations("sqlengine.library_count"))) * 1e3,
		"server.stream_mb_s":           streamBytes / 1e6 / streamSeconds,
		"server.bytes_per_row":         streamBytes / (streams * wireStreamSpan),
		"server.cursor_page_ms":        median(tr.durations("server.cursor_page")) * 1e3,
		"server.ingest_rows_s":         wireIngestRows / median(tr.durations("server.ingest")),
		"table.append_rows_s":          wireIngestRows / median(tr.durations("table.ingest_twin")),
		"server.rejected_share":        float64(w.rejected) / float64(w.requests),
		"sqlengine.fingerprint_us":     median(tr.durations("sqlengine.fingerprint")) * 1e6,
		"sqlengine.parse_us":           median(tr.durations("sqlengine.parse")) * 1e6,
	}, nil
}
