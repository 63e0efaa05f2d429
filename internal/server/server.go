// Package server exposes a datalab Platform over HTTP with an agent-first
// JSONL wire protocol: every response is a stream of self-describing JSON
// lines (`code: startup/progress/ok/error`, suffix-named fields like
// `rows_total` and `duration_ms`, `*_secret` values redacted), so agent
// clients parse it line by line without an external schema.
//
// The server is multi-session over one shared catalog: sessions scope
// cancellation and cursor lifetime (closing a session aborts its in-flight
// queries and releases its cursors), not data. Admission control — a
// max-concurrent-query semaphore with a bounded queue — sits above the
// engine's worker pool and rejects overload with a typed backpressure
// error instead of letting latency collapse. A dropped connection cancels
// the request context, which the executor observes mid-scan.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datalab"
	"datalab/internal/sqlengine"
)

// Config carries the server's tunables. Zero values select the defaults
// noted on each field.
type Config struct {
	// MaxConcurrentQueries caps how many queries execute at once (default
	// 2×GOMAXPROCS). Requests past the cap queue for QueueTimeout and then
	// fail with a typed backpressure error.
	MaxConcurrentQueries int
	// QueueTimeout bounds how long an over-limit query waits for a slot
	// (default 1s).
	QueueTimeout time.Duration
	// SessionIdleTimeout closes sessions with no activity (default 15m;
	// negative disables sweeping).
	SessionIdleTimeout time.Duration
	// PageRows is the default cursor page size (default 4096).
	PageRows int
	// IngestPublishRows is how many streamed ingest rows are batched into
	// one published snapshot (default 4096).
	IngestPublishRows int
	// AuthTokenSecret, when non-empty, requires `Authorization: Bearer
	// <token>` on every endpoint except /healthz. The suffix is the
	// contract: the value is redacted from logs and wire lines.
	AuthTokenSecret string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.SessionIdleTimeout == 0 {
		c.SessionIdleTimeout = 15 * time.Minute
	}
	if c.PageRows <= 0 {
		c.PageRows = 4096
	}
	if c.IngestPublishRows <= 0 {
		c.IngestPublishRows = 4096
	}
	return c
}

// Server serves one Platform over HTTP. Create with New, mount Handler,
// and Close on shutdown (cancels every session and stops the sweeper).
type Server struct {
	platform *datalab.Platform
	cfg      Config
	adm      *admission
	sessions *sessionRegistry
	logger   *jsonLogger
	mux      *http.ServeMux
	started  time.Time

	// cursors is the one id → cursor registry: a cursor is in it from
	// creation until its DELETE, its session's close, or server shutdown,
	// and whoever removes it closes it — so an entry is never a closed
	// cursor and a closed Result is never still pinned by an entry.
	cursorMu sync.Mutex
	cursors  map[string]*cursor

	queriesTotal    atomic.Int64
	queriesCanceled atomic.Int64
	queriesFailed   atomic.Int64
	rowsStreamed    atomic.Int64
	ingestRows      atomic.Int64

	sweepDone chan struct{}
	closeOnce sync.Once
}

// New builds a Server over the platform, logging operational JSONL lines
// (startup, per-request ok/cancel/error events) to logw; nil discards
// them. The startup line echoes the effective config with secrets
// redacted.
func New(p *datalab.Platform, cfg Config, logw io.Writer) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		platform:  p,
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxConcurrentQueries, cfg.QueueTimeout),
		sessions:  newSessionRegistry(cfg.SessionIdleTimeout),
		logger:    newJSONLogger(logw),
		mux:       http.NewServeMux(),
		started:   time.Now(),
		cursors:   map[string]*cursor{},
		sweepDone: make(chan struct{}),
	}
	s.routes()
	s.logger.log(CodeStartup, line{
		"event": "server",
		"config": line{
			"max_concurrent_queries": cfg.MaxConcurrentQueries,
			"queue_timeout_ms":       durationMS(cfg.QueueTimeout),
			"session_idle_ms":        durationMS(cfg.SessionIdleTimeout),
			"page_rows":              cfg.PageRows,
			"ingest_publish_rows":    cfg.IngestPublishRows,
			"auth_token_secret":      cfg.AuthTokenSecret,
			"auth_enabled":           cfg.AuthTokenSecret != "",
		},
		"tables": p.Tables(),
	})
	go s.sweepLoop()
	return s
}

// sweepLoop closes idle sessions in the background until Close.
func (s *Server) sweepLoop() {
	if s.cfg.SessionIdleTimeout <= 0 {
		<-s.sweepDone
		return
	}
	period := s.cfg.SessionIdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.sweepDone:
			return
		case now := <-t.C:
			if n := s.sessions.sweep(now); n > 0 {
				s.reapCursors()
				s.logger.log(CodeOK, line{"event": "session_sweep", "sessions_closed": n})
			}
		}
	}
}

// Close cancels every session (aborting their in-flight queries), closes
// every cursor, and stops the sweeper. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.sweepDone)
		s.sessions.closeAll()
		s.cursorMu.Lock()
		for _, c := range s.cursors {
			c.close()
		}
		s.cursors = map[string]*cursor{}
		s.cursorMu.Unlock()
	})
}

// Handler returns the server's HTTP handler: the routes behind bearer auth
// (when configured) and per-request panic containment. A handler's panic
// is logged as an error line with event "panic" and becomes that request's
// failure only: a typed internal error line if the response had not
// started, an aborted connection if it had — so a client never mistakes a
// truncated stream for a finished one.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackedWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.logger.log(CodeError, line{"event": "panic", "path": r.URL.Path,
				"error": fmt.Sprint(v), "stack": string(debug.Stack())})
			if tw.started {
				panic(http.ErrAbortHandler)
			}
			writeErrorLine(tw, http.StatusInternalServerError, ErrCodeInternal, "internal error; see the server log")
		}()
		if s.cfg.AuthTokenSecret != "" && r.URL.Path != "/healthz" &&
			r.Header.Get("Authorization") != "Bearer "+s.cfg.AuthTokenSecret {
			writeErrorLine(tw, http.StatusUnauthorized, ErrCodeUnauthorized, "missing or invalid bearer token")
			return
		}
		s.mux.ServeHTTP(tw, r)
	})
}

// trackedWriter notes whether the response has started. It passes on the
// two optional interfaces the handlers use: Flush (streamed lines) and,
// through Unwrap, http.ResponseController (full-duplex ingest).
type trackedWriter struct {
	http.ResponseWriter
	started bool
}

func (t *trackedWriter) WriteHeader(status int) {
	t.started = true
	t.ResponseWriter.WriteHeader(status)
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	t.started = true
	return t.ResponseWriter.Write(p)
}

func (t *trackedWriter) Flush() {
	t.started = true
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (t *trackedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/ingest/{table}", s.handleIngest)
	s.mux.HandleFunc("POST /v1/cursors", s.handleCursorCreate)
	s.mux.HandleFunc("POST /v1/cursors/{id}/next", s.handleCursorNext)
	s.mux.HandleFunc("POST /v1/cursors/{id}/rewind", s.handleCursorRewind)
	s.mux.HandleFunc("DELETE /v1/cursors/{id}", s.handleCursorDelete)
}

// writeErrorLine terminates a response with one CodeError JSONL line.
func writeErrorLine(w http.ResponseWriter, status int, errCode, msg string, extra ...line) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(status)
	l := line{"code": CodeError, "error": msg, "error_code": errCode}
	for _, e := range extra {
		redactInto(l, e)
	}
	_ = newLineWriter(w).writeRedacted(l)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{
		"code":      CodeOK,
		"status":    "healthy",
		"uptime_ms": durationMS(time.Since(s.started)),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pcs := s.platform.PlanCacheStats()
	ds := s.platform.DurabilityStats()
	s.cursorMu.Lock()
	cursorsOpen := len(s.cursors)
	s.cursorMu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The durability fields are always present (zeros when memory-only)
	// so clients can pin the shape without probing the deployment mode.
	_ = newLineWriter(w).write(line{
		"code":                    CodeOK,
		"uptime_ms":               durationMS(time.Since(s.started)),
		"queries_total":           s.queriesTotal.Load(),
		"queries_canceled_total":  s.queriesCanceled.Load(),
		"queries_failed_total":    s.queriesFailed.Load(),
		"queries_rejected_total":  s.adm.rejected.Load(),
		"queries_admitted_total":  s.adm.admitted.Load(),
		"queries_inflight":        s.adm.inFlight(),
		"rows_streamed_total":     s.rowsStreamed.Load(),
		"ingest_rows_total":       s.ingestRows.Load(),
		"sessions_open":           s.sessions.count(),
		"cursors_open":            cursorsOpen,
		"plan_cache_hits_total":   pcs.Hits,
		"plan_cache_misses_total": pcs.Misses,
		"plan_cache_hit_rate":     pcs.HitRate(),
		"durability_enabled":      ds.Enabled,
		"wal_bytes_total":         ds.WALBytes,
		"checkpoints_total":       ds.Checkpoints,
		"checkpoint_epoch_ms":     ds.LastCheckpointUnixMilli,
		"snapshot_version":        ds.SnapshotVersion,
		"recovered_rows_total":    ds.RecoveredRows,
	})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.create()
	s.logger.log(CodeOK, line{"event": "session_open", "session_id": sess.id})
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{
		"code":                CodeOK,
		"session_id":          sess.id,
		"created_at_epoch_ms": sess.created.UnixMilli(),
		"idle_timeout_ms":     durationMS(s.cfg.SessionIdleTimeout),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.closeSession(id) {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	s.reapCursors()
	s.logger.log(CodeOK, line{"event": "session_close", "session_id": id})
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{"code": CodeOK, "session_id": id, "closed": true})
}

// queryRequest is the body of POST /v1/query and POST /v1/cursors.
type queryRequest struct {
	SQL       string `json:"sql"`
	Args      []any  `json:"args"`
	SessionID string `json:"session_id"`
}

// readQueryRequest decodes a queryRequest from a body of at most
// maxRequestBodyBytes. On failure it has answered — 413 for an oversized
// body, 400 for anything else — and returns false.
func readQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, bool) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBodyBytes))
	dec.UseNumber()
	err := dec.Decode(&req)
	for i := 0; err == nil && i < len(req.Args); i++ {
		if n, isNumber := req.Args[i].(json.Number); isNumber {
			req.Args[i], err = wireNumber(n)
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErrorLine(w, http.StatusRequestEntityTooLarge, ErrCodeRequestTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxRequestBodyBytes))
	case err != nil || req.SQL == "":
		writeErrorLine(w, http.StatusBadRequest, ErrCodeBadRequest, "body must be JSON with a non-empty \"sql\"")
	default:
		return req, true
	}
	return req, false
}

// wireNumber is the one reading of a JSON number off the wire, for bind
// arguments and ingest cells alike: a literal that parses as an int64 is
// that exact int64 (a float64 rounds past 2^53, and LIMIT ? wants an
// integer); any other number is the float64 encoding/json would produce.
func wireNumber(n json.Number) (any, error) {
	if i, err := strconv.ParseInt(string(n), 10, 64); err == nil {
		return i, nil
	}
	return n.Float64()
}

// requestCtx derives the execution context: the HTTP request context
// (cancelled when the client disconnects), additionally cancelled when the
// named session closes. The returned stop func releases the linkage.
func (s *Server) requestCtx(r *http.Request, sessionID string) (context.Context, context.CancelFunc, *session, error) {
	ctx, cancel := context.WithCancel(r.Context())
	if sessionID == "" {
		return ctx, cancel, nil, nil
	}
	sess, ok := s.sessions.get(sessionID)
	if !ok {
		cancel()
		return nil, nil, nil, fmt.Errorf("unknown session %q", sessionID)
	}
	unlink := context.AfterFunc(sess.ctx, cancel)
	return ctx, func() { unlink(); cancel() }, sess, nil
}

// execute runs one SQL text (with optional bound args) under ctx,
// behind admission control.
func (s *Server) execute(ctx context.Context, req queryRequest) (*sqlengine.Result, func(), error) {
	release, err := s.adm.acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	var res *sqlengine.Result
	if len(req.Args) > 0 {
		stmt, perr := s.platform.Prepare(req.SQL)
		if perr == nil {
			res, err = stmt.Exec(ctx, req.Args...)
		} else {
			err = perr
		}
	} else {
		res, err = s.platform.QueryCtx(ctx, req.SQL)
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return res, release, nil
}

// handleQuery streams a query's result as JSONL: one startup line with
// the column metadata, one progress line per batch carrying the rows and
// cumulative counters, and a terminal ok (or error) line. A client that
// disconnects mid-stream cancels the executor; the server logs a cancel
// event, not an error.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, ok := readQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, stop, _, err := s.requestCtx(r, req.SessionID)
	if err != nil {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
		return
	}
	defer stop()

	s.queriesTotal.Add(1)
	res, release, err := s.execute(ctx, req)
	if err != nil {
		s.finishQueryError(w, r, req, start, err, 0)
		return
	}
	defer release()
	defer res.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	_ = lw.write(line{
		"code":           CodeStartup,
		"columns":        res.Columns(),
		"rows_total":     res.NumRows(),
		"batch_rows_max": sqlengine.BatchRows,
		"session_id":     req.SessionID,
	})
	sent, seq := 0, 0
	var rows []byte // one batch's rows; reused across the response's batches
	for b := res.Next(); b != nil; b = res.Next() {
		if ctx.Err() != nil {
			s.logCancel(req, start, sent)
			return
		}
		seq++
		sent += b.NumRows()
		rows = appendRows(rows[:0], b)
		err := lw.writeRows(line{
			"code":        CodeProgress,
			"batch_seq":   seq,
			"batch_rows":  b.NumRows(),
			"rows_sent":   sent,
			"rows_total":  res.NumRows(),
			"duration_ms": durationMS(time.Since(start)),
		}, rows)
		if err != nil { // client went away mid-write
			s.logCancel(req, start, sent)
			return
		}
	}
	s.rowsStreamed.Add(int64(sent))
	_ = lw.write(line{
		"code":          CodeOK,
		"rows_total":    res.NumRows(),
		"batches_total": seq,
		"duration_ms":   durationMS(time.Since(start)),
	})
	s.logger.log(CodeOK, line{
		"event":       "query",
		"sql":         req.SQL,
		"rows_total":  res.NumRows(),
		"duration_ms": durationMS(time.Since(start)),
	})
}

// finishQueryError classifies an execution failure onto the wire and the
// log: backpressure → 429 typed error, cancellation → cancel log (the
// client is gone; nothing useful can be written), anything else → 400.
func (s *Server) finishQueryError(w http.ResponseWriter, r *http.Request, req queryRequest, start time.Time, err error, rowsSent int) {
	var bp *BackpressureError
	switch {
	case errors.As(err, &bp):
		writeErrorLine(w, http.StatusTooManyRequests, ErrCodeBackpressure, bp.Error(), line{
			"queue_wait_ms":          durationMS(bp.QueueWait),
			"max_concurrent_queries": bp.Limit,
		})
		s.logger.log(CodeError, line{
			"event":         "query_rejected",
			"error_code":    ErrCodeBackpressure,
			"sql":           req.SQL,
			"queue_wait_ms": durationMS(bp.QueueWait),
		})
	case errors.Is(err, context.Canceled) || r.Context().Err() != nil:
		s.logCancel(req, start, rowsSent)
	default:
		s.queriesFailed.Add(1)
		writeErrorLine(w, http.StatusBadRequest, ErrCodeQuery, err.Error(), line{
			"duration_ms": durationMS(time.Since(start)),
		})
		s.logger.log(CodeError, line{
			"event":      "query",
			"error_code": ErrCodeQuery,
			"sql":        req.SQL,
			"error":      err.Error(),
		})
	}
}

// logCancel records a query aborted by a dropped connection or closed
// session: a cancel event, not an error — the executor was asked to stop
// and did.
func (s *Server) logCancel(req queryRequest, start time.Time, rowsSent int) {
	s.queriesCanceled.Add(1)
	s.logger.log(CodeCancel, line{
		"event":       "query_canceled",
		"sql":         req.SQL,
		"rows_sent":   rowsSent,
		"duration_ms": durationMS(time.Since(start)),
	})
}

// handleIngest streams rows into one table: the request body is JSONL,
// one JSON array of cell values per line, batched into a published
// snapshot every IngestPublishRows rows (one progress line per publish)
// with a final publish and ok line. Rows become visible to queries only
// at publish points — a burst is one snapshot, not thousands.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("table")
	ing, err := s.platform.Ingest(name)
	if err != nil {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
		return
	}
	// Mid-ingest progress lines interleave response writes with request
	// body reads; HTTP/1.1 needs full-duplex opted in for that. When the
	// transport can't do it, progress lines are skipped and only the
	// terminal line (written after the body is fully consumed) is sent.
	fullDuplex := http.NewResponseController(w).EnableFullDuplex() == nil
	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := newLineWriter(w)
	streamed := false
	appended, visible := 0, 0
	body := &rowCapReader{r: r.Body}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	// On a durable platform Publish journals (and under the "always"
	// policy fsyncs) the chunk before it becomes visible; a log failure
	// keeps the rows staged and must surface as an internal error, not
	// be reported as appended-and-visible.
	walFail := func(err error) {
		l := line{"code": CodeError, "error": err.Error(), "error_code": ErrCodeInternal,
			"rows_appended_total": appended, "rows_visible_total": visible}
		if !streamed {
			w.WriteHeader(http.StatusInternalServerError)
		}
		_ = lw.write(l)
	}
	publish := func() error {
		if ing.Pending() == 0 {
			return nil
		}
		n, err := ing.PublishErr()
		if err != nil {
			return err
		}
		visible = n
		return nil
	}
	// fail ends the stream on a bad row. Rows already staged stay
	// consistent: publish what we have, then the typed error line.
	fail := func(status int, errorCode, msg string) {
		if err := publish(); err != nil {
			walFail(err)
			return
		}
		if !streamed {
			// The rest of the body is abandoned unread, so the server
			// closes the connection; tell the client not to reuse it.
			w.Header().Set("Connection", "close")
			w.WriteHeader(status)
		}
		_ = lw.write(line{"code": CodeError, "error": msg, "error_code": errorCode,
			"rows_appended_total": appended})
	}
	badLine := func(err error) {
		fail(http.StatusBadRequest, ErrCodeBadRequest, fmt.Sprintf("ingest line %d: %v", appended+1, err))
	}
	for {
		var cells []any
		body.limit = dec.InputOffset() + maxIngestLineBytes
		if err := dec.Decode(&cells); err == io.EOF {
			break
		} else if errors.Is(err, errIngestLineTooLarge) {
			fail(http.StatusRequestEntityTooLarge, ErrCodeRequestTooLarge,
				fmt.Sprintf("ingest line %d exceeds %d bytes", appended+1, maxIngestLineBytes))
			return
		} else if err != nil {
			badLine(err)
			return
		}
		strs := make([]string, len(cells))
		for i, c := range cells {
			var err error
			if strs[i], err = cellString(c); err != nil {
				badLine(err)
				return
			}
		}
		if err := ing.Append(strs...); err != nil {
			fail(http.StatusBadRequest, ErrCodeBadRequest, err.Error())
			return
		}
		appended++
		if fullDuplex && appended%s.cfg.IngestPublishRows == 0 {
			if err := publish(); err != nil {
				walFail(err)
				return
			}
			streamed = true
			_ = lw.write(line{
				"code":                CodeProgress,
				"rows_appended_total": appended,
				"rows_visible_total":  visible,
				"duration_ms":         durationMS(time.Since(start)),
			})
		}
	}
	if err := publish(); err != nil {
		walFail(err)
		return
	}
	s.ingestRows.Add(int64(appended))
	_ = lw.write(line{
		"code":                CodeOK,
		"table":               name,
		"rows_appended_total": appended,
		"rows_visible_total":  visible,
		"duration_ms":         durationMS(time.Since(start)),
	})
	s.logger.log(CodeOK, line{
		"event":               "ingest",
		"table":               name,
		"rows_appended_total": appended,
		"duration_ms":         durationMS(time.Since(start)),
	})
}

var errIngestLineTooLarge = errors.New("ingest line too large")

// rowCapReader is the ingest body with the per-row cap applied: a read
// fails once limit bytes have been supplied. handleIngest moves limit to
// maxIngestLineBytes past the start of each row, so the decoder asks for
// bytes beyond it only when the row it is assembling is over the cap, and
// never buffers more than one capped row of it.
type rowCapReader struct {
	r           io.Reader
	read, limit int64
}

func (c *rowCapReader) Read(p []byte) (int, error) {
	if c.read >= c.limit {
		return 0, errIngestLineTooLarge
	}
	if left := c.limit - c.read; int64(len(p)) > left {
		p = p[:left]
	}
	n, err := c.r.Read(p)
	c.read += int64(n)
	return n, err
}

// cellString renders one JSON ingest cell for type inference by the
// appender. An integer literal passes through as its own text; any other
// number prints as the float64 it decodes to, integral ones (1e3, 2.0)
// without the decimal point so they infer to ints.
func cellString(c any) (string, error) {
	switch v := c.(type) {
	case nil:
		return "", nil
	case string:
		return v, nil
	case bool:
		return strconv.FormatBool(v), nil
	case json.Number:
		n, err := wireNumber(v)
		if err != nil {
			return "", err
		}
		f, isFloat := n.(float64)
		if !isFloat {
			return string(v), nil
		}
		if f == float64(int64(f)) {
			return strconv.FormatInt(int64(f), 10), nil
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	default:
		return fmt.Sprint(v), nil
	}
}

// handleCursorCreate executes a query (behind admission control, like
// /v1/query) but parks the Result in the cursor registry instead of
// streaming it, for paginated and rewindable reads. Session-scoped
// cursors die with their session.
func (s *Server) handleCursorCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, ok := readQueryRequest(w, r)
	if !ok {
		return
	}
	ctx, stop, sess, err := s.requestCtx(r, req.SessionID)
	if err != nil {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
		return
	}
	defer stop()
	s.queriesTotal.Add(1)
	res, release, err := s.execute(ctx, req)
	if err != nil {
		s.finishQueryError(w, r, req, start, err, 0)
		return
	}
	release() // execution is done; paging is cheap iteration, not admission-gated
	cur := newCursor(req.SQL, res, sess)
	if !s.addCursor(cur) {
		cur.close()
		writeErrorLine(w, http.StatusNotFound, ErrCodeClosed, "session closed during cursor creation")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{
		"code":              CodeOK,
		"cursor_id":         cur.id,
		"columns":           res.Columns(),
		"rows_total":        res.NumRows(),
		"page_rows_default": s.cfg.PageRows,
		"session_id":        req.SessionID,
		"duration_ms":       durationMS(time.Since(start)),
	})
}

// addCursor registers a cursor; it fails when the cursor's session has
// already closed. A session that closes after the check is handled by
// reapCursors, which runs after the close and therefore sees the entry.
func (s *Server) addCursor(c *cursor) bool {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	if c.orphaned() {
		return false
	}
	s.cursors[c.id] = c
	return true
}

// reapCursors removes and closes every cursor whose session has closed.
// It runs after each session close (explicit delete or idle sweep).
func (s *Server) reapCursors() {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	for id, c := range s.cursors {
		if c.orphaned() {
			delete(s.cursors, id)
			c.close()
		}
	}
}

// lookupCursor fetches a registered cursor whose session (if any) is
// still open.
func (s *Server) lookupCursor(id string) (*cursor, bool) {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	c, ok := s.cursors[id]
	return c, ok && !c.orphaned()
}

func (s *Server) handleCursorNext(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	c, ok := s.lookupCursor(id)
	if !ok {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("unknown or closed cursor %q", id))
		return
	}
	maxRows := s.cfg.PageRows
	if v := r.URL.Query().Get("max_rows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErrorLine(w, http.StatusBadRequest, ErrCodeBadRequest, "max_rows must be a positive integer")
			return
		}
		maxRows = n
	}
	p, err := c.next(maxRows)
	if err != nil {
		writeErrorLine(w, http.StatusConflict, ErrCodeClosed, err.Error())
		return
	}
	_, total, _ := c.stats()
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).writeRows(line{
		"code":            CodeOK,
		"cursor_id":       id,
		"page_rows":       p.numRows,
		"rows_sent_total": p.rowsSent,
		"rows_total":      total,
		"cursor_done":     p.done,
		"duration_ms":     durationMS(time.Since(start)),
	}, p.rows)
}

func (s *Server) handleCursorRewind(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.lookupCursor(id)
	if !ok {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("unknown or closed cursor %q", id))
		return
	}
	if err := c.rewind(); err != nil {
		writeErrorLine(w, http.StatusConflict, ErrCodeClosed, err.Error())
		return
	}
	_, total, _ := c.stats()
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{"code": CodeOK, "cursor_id": id, "rows_total": total, "rewound": true})
}

func (s *Server) handleCursorDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.cursorMu.Lock()
	c, ok := s.cursors[id]
	delete(s.cursors, id)
	s.cursorMu.Unlock()
	if !ok {
		writeErrorLine(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("unknown cursor %q", id))
		return
	}
	c.close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = newLineWriter(w).write(line{"code": CodeOK, "cursor_id": id, "closed": true})
}
