package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The wire format is the agent-first-data JSONL convention: every line is
// one JSON object carrying a `code` field naming its lifecycle phase, and
// every other field is suffix-named so the name is the schema —
// `duration_ms` is milliseconds, `rows_total` is a count, anything ending
// in `_secret` is sensitive and redacted before it leaves the process.
// Agent clients parse responses line by line with no external schema.
const (
	// CodeStartup opens a stream (and the server's own startup log line):
	// configuration, column metadata, identifiers.
	CodeStartup = "startup"
	// CodeProgress is one unit of streamed work: a batch of result rows or
	// an ingest publish, with cumulative counters.
	CodeProgress = "progress"
	// CodeOK terminates a successful stream with final totals.
	CodeOK = "ok"
	// CodeError terminates a failed stream with the error message and a
	// machine-readable error_code.
	CodeError = "error"
	// CodeCancel is a server-log-only code: the peer went away and the
	// query was cancelled mid-stream. It is deliberately distinct from
	// CodeError — a dropped connection is lifecycle, not failure.
	CodeCancel = "cancel"
)

// maxRequestBodyBytes bounds the JSON body of POST /v1/query and POST
// /v1/cursors: a statement and its bind arguments, not data. A larger body
// is answered 413 with ErrCodeRequestTooLarge. (Streamed /v1/ingest bodies
// are unbounded by design and read row by row; maxIngestLineBytes bounds
// each row.)
const maxRequestBodyBytes = 1 << 20

// maxIngestLineBytes bounds one row (one JSON array) of a /v1/ingest body.
// A longer row ends the stream with ErrCodeRequestTooLarge after the rows
// before it are published.
const maxIngestLineBytes = 1 << 20

// Typed error_code values carried on CodeError lines.
const (
	// ErrCodeBackpressure: admission control rejected the request — the
	// max-concurrent-query semaphore stayed full past the queue timeout.
	ErrCodeBackpressure = "backpressure"
	// ErrCodeBadRequest: the request body or parameters did not parse.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeQuery: the SQL failed to plan or execute.
	ErrCodeQuery = "query_failed"
	// ErrCodeNotFound: unknown session, cursor, or table.
	ErrCodeNotFound = "not_found"
	// ErrCodeUnauthorized: missing or wrong bearer token.
	ErrCodeUnauthorized = "unauthorized"
	// ErrCodeClosed: the cursor or session was already closed.
	ErrCodeClosed = "closed"
	// ErrCodeInternal: a server-side invariant failed — e.g. the
	// write-ahead log rejected a publish, leaving the rows staged but
	// not visible — or a handler panicked before answering.
	ErrCodeInternal = "internal"
	// ErrCodeRequestTooLarge: the request body exceeded
	// maxRequestBodyBytes, or one ingest row maxIngestLineBytes.
	ErrCodeRequestTooLarge = "request_too_large"
)

// line is one JSONL wire line: code plus suffix-named fields.
type line map[string]any

// Redact returns v with every map value whose key ends in "_secret"
// (case-insensitive) replaced by "***", recursing through nested maps and
// slices. Non-container values pass through unchanged. The original is
// never mutated.
func Redact(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, val := range t {
			if strings.HasSuffix(strings.ToLower(k), "_secret") {
				out[k] = "***"
			} else {
				out[k] = Redact(val)
			}
		}
		return out
	case line:
		return Redact(map[string]any(t))
	case []any:
		out := make([]any, len(t))
		for i, val := range t {
			out[i] = Redact(val)
		}
		return out
	default:
		return v
	}
}

// durationMS renders a duration with the _ms suffix convention:
// millisecond float with microsecond precision.
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// lineWriter emits redacted JSONL lines to an HTTP response, flushing
// after each line so clients observe progress as it happens rather than
// when a buffer fills.
type lineWriter struct {
	w     io.Writer
	flush func()
	enc   *json.Encoder
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		lw.flush = f.Flush
	}
	lw.enc = json.NewEncoder(w)
	return lw
}

// write marshals one line (secrets redacted) followed by '\n' and flushes.
func (lw *lineWriter) write(l line) error {
	if err := lw.enc.Encode(Redact(l)); err != nil {
		return err
	}
	lw.flush()
	return nil
}

// jsonLogger serializes redacted JSONL log lines to one writer — the
// server's operational log (startup, per-request ok/cancel/error events).
type jsonLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newJSONLogger(w io.Writer) *jsonLogger {
	if w == nil {
		w = io.Discard
	}
	return &jsonLogger{w: w}
}

func (l *jsonLogger) log(code string, fields line) {
	out := line{"code": code}
	for k, v := range fields {
		out[k] = v
	}
	data, err := json.Marshal(Redact(out))
	if err != nil {
		data = []byte(fmt.Sprintf(`{"code":"error","error":"log marshal: %s"}`, err))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(data, '\n'))
}
