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

// pageRows is a cursor page's size, in rows, when POST
// /v1/cursors/{id}/next names no max_rows.
const pageRows = 4096

// ingestPublishRows is how many streamed /v1/ingest rows are batched into
// one published snapshot, each publish one progress line.
const ingestPublishRows = 4096

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
func (lw *lineWriter) write(l line) error { return lw.writeTraced(l, nil) }

// writeTraced is write with `"trace":{…}` (appendTrace) as the line's last
// member when t is non-nil.
func (lw *lineWriter) writeTraced(l line, t *sqlengine.Trace) error {
	if err := lw.encode(l); err != nil {
		return err
	}
	if t != nil {
		lw.reopen()
		lw.addTrace(t)
		lw.buf.WriteString("}\n")
	}
	return lw.send()
}

// writeRows is write with `"rows":[rows]` as the line's last member, after
// the trace when t is non-nil; rows is what appendRows produced, which
// Redact would pass through untouched (cells are data, not suffix-named
// members).
func (lw *lineWriter) writeRows(l line, t *sqlengine.Trace, rows []byte) error {
	if err := lw.encode(l); err != nil {
		return err
	}
	lw.reopen()
	if t != nil {
		lw.addTrace(t)
	}
	lw.buf.WriteString(`,"rows":[`)
	lw.buf.Write(rows)
	lw.buf.WriteString("]}\n")
	return lw.send()
}

// encode starts a new line in buf: l, secrets redacted, as encoding/json
// writes it, '\n' included.
func (lw *lineWriter) encode(l line) error {
	lw.buf.Reset()
	return lw.enc.Encode(redactInto(make(line, len(l)), l))
}

// reopen strips the closing "}\n" off the line in buf, so members can be
// appended after l's: l has a code, so a member precedes them.
func (lw *lineWriter) reopen() {
	lw.buf.Truncate(lw.buf.Len() - len("}\n"))
}

// addTrace appends t's member (appendTrace) to the line in buf, in place:
// buf grows once, to room for the head and the stages t entered, before it
// is written into.
func (lw *lineWriter) addTrace(t *sqlengine.Trace) {
	room := 64
	for s := range sqlengine.NumStages {
		if _, _, entered := t.Span(s); entered {
			room += 80
		}
	}
	lw.buf.Grow(room)
	lw.buf.Write(appendTrace(lw.buf.AvailableBuffer(), t))
}

// appendTrace appends t as a line's `trace` member, comma first:
// `,"trace":{"duration_ms":…,"stages":[…]}`, with t's total and, in stage
// order, each stage a mark charged, with its time and output rows. The
// stages sum to the total: marks tile the request (ingest, whose stages are
// not split yet, has none).
func appendTrace(dst []byte, t *sqlengine.Trace) []byte {
	dst = append(dst, `,"trace":{"duration_ms":`...)
	dst = appendFloat(dst, durationMS(t.Total()))
	dst = append(dst, `,"stages":[`...)
	sep := false
	for s := range sqlengine.NumStages {
		d, rows, entered := t.Span(s)
		if !entered {
			continue
		}
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = append(dst, `{"stage":"`...)
		dst = append(dst, s.String()...)
		dst = append(dst, `","duration_ms":`...)
		dst = appendFloat(dst, durationMS(d))
		dst = append(dst, `,"output_rows":`...)
		dst = strconv.AppendInt(dst, int64(rows), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
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
// float, which JSON cannot spell, is null. Each int, float and string
// column's typed slab is resolved once per batch, so none of their cells
// becomes a Value on the way.
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

// appendValue is appendRows' cell path through a Value, for the columns
// with no int, float or string slab: bool, time and all-NULL columns.
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
//
// A short decimal, such as a money or measure value like 12.34, takes a
// path that skips strconv's shortest-digit search (Ryū): when 1e-6 ≤ |f|
// < 1e14, for k = 0, 1, … 15 it rounds |f|·10^k to an integer m, stops
// once m ≥ 2^47, and writes m with the point k digits from the right as
// soon as m/10^k == |f|. That test is exact (m and 10^k are exact doubles
// and IEEE division rounds once, as ParseFloat does), so it holds exactly
// when the decimal round-trips. The output is strconv's, byte for byte:
//   - Below 2^47 a k-digit decimal that round-trips lies within 1/64 of
//     |f|·10^k (half an ulp of f is at most |f|·2^-53), and the computed
//     product within 1/128 of that, so the rounded product finds it.
//   - Such a decimal has at most 15 significant digits, and two k-digit
//     decimals are 1 apart at scale 10^k, so it is the only one with k
//     fraction digits that maps to f.
//   - So the least such k gives strconv's shortest output. Its rival with
//     the same digit count across a power of ten would differ from it by
//     at least 10^-15 of f, more than f's rounding interval spans.
//
// Below the range encoding/json writes an exponent; at its top, 1e14,
// |f| itself is still below 2^47. Everything else keeps the strconv path:
// 0 and −0, the exponent range, and any f with no short decimal.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e14 {
		for k, p := range pow10 {
			m := int64(abs*p + 0.5)
			if m >= 1<<47 {
				break
			}
			if float64(m)/p == abs {
				return appendDecimal(dst, uint64(m), k, f < 0)
			}
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 to e-9
		dst = dst[:n-1]
	}
	return dst
}

// pow10 holds 10^k for appendFloat's k = 0 … 15, each an exact double.
var pow10 = [16]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendDecimal writes m·10^-k in plain decimal form, with a leading 0
// before a point that has no integer digits and a '-' when neg.
func appendDecimal(dst []byte, m uint64, k int, neg bool) []byte {
	var buf [24]byte // room for the longest: a sign, "0." and 15 fraction digits
	i := len(buf)
	for j := 0; j < k; j++ {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if k > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
		if m == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
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
