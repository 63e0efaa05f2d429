package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"datalab/internal/sqlengine"
	"datalab/internal/table"
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
		return redactInto(make(map[string]any, len(t)), t)
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

// redactInto copies src's members into dst, redacted as Redact describes,
// and returns dst.
func redactInto(dst, src map[string]any) map[string]any {
	for k, val := range src {
		if strings.HasSuffix(strings.ToLower(k), "_secret") {
			dst[k] = "***"
		} else {
			dst[k] = Redact(val)
		}
	}
	return dst
}

// durationMS renders a duration with the _ms suffix convention:
// millisecond float with microsecond precision.
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// lineWriter emits redacted JSONL lines to an HTTP response, flushing
// after each line so clients observe progress as it happens rather than
// when a buffer fills. A line is assembled in buf and leaves in one Write,
// so an error from a write method is the socket's: the peer went away.
type lineWriter struct {
	w     io.Writer
	flush func()
	buf   bytes.Buffer // the line being assembled; reused across lines
	enc   *json.Encoder
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		lw.flush = f.Flush
	}
	lw.enc = json.NewEncoder(&lw.buf)
	return lw
}

// write marshals one line (secrets redacted) followed by '\n' and flushes.
func (lw *lineWriter) write(l line) error {
	return lw.writeRedacted(redactInto(make(line, len(l)), l))
}

// writeRedacted is write for a line the caller has already redacted.
func (lw *lineWriter) writeRedacted(l line) error {
	if err := lw.encode(l); err != nil {
		return err
	}
	return lw.send()
}

// writeRows is write with `"rows":[rows]` as the line's last member; rows
// is what appendRows produced, which Redact would pass through untouched
// (cells are data, not suffix-named members).
func (lw *lineWriter) writeRows(l line, rows []byte) error {
	if err := lw.encode(redactInto(make(line, len(l)), l)); err != nil {
		return err
	}
	lw.buf.Truncate(lw.buf.Len() - len("}\n")) // l has a code, so a member precedes
	lw.buf.WriteString(`,"rows":[`)
	lw.buf.Write(rows)
	lw.buf.WriteString("]}\n")
	return lw.send()
}

// encode starts a new line in buf: l as encoding/json writes it, '\n' included.
func (lw *lineWriter) encode(l line) error {
	lw.buf.Reset()
	return lw.enc.Encode(l)
}

// send writes the assembled line out and flushes.
func (lw *lineWriter) send() error {
	if _, err := lw.w.Write(lw.buf.Bytes()); err != nil {
		return err
	}
	lw.flush()
	return nil
}

// appendRows appends b's rows to dst as comma-separated JSON arrays — the
// elements of a `rows` array without its brackets, so a cursor page can
// run several batches into one array — and returns the extended slice.
// Cells are JSON-native: NULL is null, ints and floats are numbers, bools
// are booleans and everything else is a string; the bytes are the ones
// encoding/json writes for the same values, except that a non-finite
// float, which JSON cannot spell, is null. Each column's typed slab is
// resolved once per batch, so no cell is boxed on the way.
func appendRows(dst []byte, b *sqlengine.Batch) []byte {
	type slab struct {
		kind   table.Kind // KindNull: not a typed int/float/string slab; read cells through Batch.Value
		ints   []int64
		floats []float64
		strs   []string
		nulls  []bool
	}
	var stack [8]slab
	cols := stack[:0]
	for j := 0; j < b.NumCols(); j++ {
		var s slab
		if v, nulls, ok := b.Int64s(j); ok {
			s = slab{kind: table.KindInt, ints: v, nulls: nulls}
		} else if v, nulls, ok := b.Float64s(j); ok {
			s = slab{kind: table.KindFloat, floats: v, nulls: nulls}
		} else if v, nulls, ok := b.StringsCol(j); ok {
			s = slab{kind: table.KindString, strs: v, nulls: nulls}
		}
		cols = append(cols, s)
	}
	for i, n := 0, b.NumRows(); i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j := range cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			switch s := &cols[j]; {
			case s.kind == table.KindNull:
				dst = appendValue(dst, b.Value(j, i))
			case s.nulls[i]:
				dst = append(dst, "null"...)
			case s.kind == table.KindInt:
				dst = strconv.AppendInt(dst, s.ints[i], 10)
			case s.kind == table.KindFloat:
				dst = appendFloat(dst, s.floats[i])
			default:
				dst = appendString(dst, s.strs[i])
			}
		}
		dst = append(dst, ']')
	}
	return dst
}

// appendValue is the boxed cell path of appendRows: bool and time columns
// and columns degraded to mixed kinds.
func appendValue(dst []byte, v table.Value) []byte {
	switch v.Kind {
	case table.KindNull:
		return append(dst, "null"...)
	case table.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case table.KindFloat:
		return appendFloat(dst, v.F)
	case table.KindBool:
		return strconv.AppendBool(dst, v.B)
	default:
		return appendString(dst, v.AsString())
	}
}

// appendFloat writes f as encoding/json does — the ES6 number-to-string
// form: shortest digits that round-trip, exponent form only below 1e-6 or
// from 1e21, exponent unpadded — and NaN and ±Inf as null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 to e-9
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string in encoding/json's default,
// HTML-safe form: `"` and `\` backslash-escaped, \b \f \n \r \t by name,
// other control bytes and < > & as \u00XX, U+2028 and U+2029 as \u2028
// and \u2029, each byte of invalid UTF-8 as \ufffd, everything else as is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
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
	out := redactInto(make(line, len(fields)+1), fields)
	out["code"] = code
	data, err := json.Marshal(out)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"code":"error","error":"log marshal: %s"}`, err))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(data, '\n'))
}
