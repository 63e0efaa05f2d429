package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"datalab"
	"datalab/internal/sqlengine"
	"datalab/internal/table"
)

// batchRows and wireValue are the row path the server had before
// appendRows — every cell boxed into an any, one []any per row, the lot
// handed to encoding/json — kept here as the oracle appendRows must match
// byte for byte.
func batchRows(b *sqlengine.Batch) [][]any {
	rows := make([][]any, b.NumRows())
	ncols := b.NumCols()
	for i := range rows {
		row := make([]any, ncols)
		for j := 0; j < ncols; j++ {
			row[j] = wireValue(b.Value(j, i))
		}
		rows[i] = row
	}
	return rows
}

func wireValue(v table.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind {
	case table.KindInt:
		if i, ok := v.AsInt(); ok {
			return i
		}
	case table.KindFloat:
		if f, ok := v.AsFloat(); ok {
			return f
		}
	case table.KindBool:
		if b, ok := v.AsBool(); ok {
			return b
		}
	}
	return v.AsString()
}

// oracleRows is batchRows with the one intended difference applied:
// encoding/json refuses a non-finite float, the wire writes null.
func oracleRows(b *sqlengine.Batch) [][]any {
	rows := batchRows(b)
	for _, row := range rows {
		for j, c := range row {
			if f, ok := c.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
				row[j] = nil
			}
		}
	}
	return rows
}

// oracleLine is a row-carrying line as the old path wrote it: rows is one
// more member of the map, and encoding/json does the rest.
func oracleLine(t testing.TB, l line, rows [][]any) []byte {
	t.Helper()
	full := line{"rows": rows}
	for k, v := range l {
		full[k] = v
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Redact(full)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireLine is the same line through lineWriter.writeRows.
func wireLine(t testing.TB, l line, rows []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := newLineWriter(rec).writeRows(l, nil, rows); err != nil {
		t.Fatal(err)
	}
	return rec.Body.Bytes()
}

// requireSameLine: the two lines decode to the same value (member order
// is not part of the protocol, so the bytes of a whole line may differ),
// and the rows arrays inside them are the same bytes.
func requireSameLine(t testing.TB, what string, l line, rows []byte, oracle [][]any) {
	t.Helper()
	if oracle == nil {
		oracle = [][]any{} // the old path wrote null for no rows; the wire now says []
	}
	want := oracleLine(t, l, oracle)
	wantRows, err := json.Marshal(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got := "[" + string(rows) + "]"; got != string(wantRows) {
		t.Fatalf("%s: rows differ from encoding/json\n got %s\nwant %s", what, got, wantRows)
	}
	got := wireLine(t, l, rows)
	if !bytes.HasSuffix(got, append(append([]byte(`,"rows":`), wantRows...), "}\n"...)) {
		t.Fatalf("%s: rows is not the line's last member: %s", what, got)
	}
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("%s: line does not parse: %v\n%s", what, err, got)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: line decodes differently\n got %s\nwant %s", what, got, want)
	}
}

var (
	wireInts   = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1<<53 + 1}
	wireFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 9.99e20,
		5e-324, 1.5e300, math.MaxFloat64, 1e-9, 1.5e-10, 1e-100, 0.1, 1.0 / 3, 100, -12345.678,
		math.NaN(), math.Inf(1), math.Inf(-1),
		// short decimals and the edges of appendFloat's short-decimal path
		12.34, -0.07, 99.99, 0.1 + 0.2, 1234567.89012345, 1234567.890123456,
		1 << 47 / 1e3, math.Nextafter(1<<47/1e3, 0), 9.999999999999998e13, 99999999999999.98, 1e14,
	}
	wireStrings = []string{
		"", "plain", `say "hi"`, `back\slash`, "<script>a&b</script>",
		"\x00\x01\x1f\b\f\n\r\t", "\x7f", "line\u2028sep\u2029end", "bad\xffutf8\xc3",
		"\xe2\x80", "\xed\xa0\x80", "h\u00e9llo \u4e16\u754c \U0001f389", "\ufffd", `{"code":"ok"}`,
	}
)

// wireTestTable is 64 rows of every cell shape the wire carries: k is the
// row number (what the selections filter on), i/f/s/b/ts are typed columns
// with a NULL every few rows, m is the text column a CASE whose arms mix
// every kind makes (each cell its value's AsString), and z is all NULL.
func wireTestTable() *table.Table {
	const n = 64
	at := time.Date(2024, 2, 29, 13, 4, 5, 0, time.UTC)
	k := make([]int64, n)
	i, f, s := make([]int64, n), make([]float64, n), make([]string, n)
	b, ts := make([]bool, n), make([]int64, n)
	nulls := [5][]bool{}
	for c := range nulls {
		nulls[c] = make([]bool, n)
	}
	var m []table.Value
	for r := 0; r < n; r++ {
		k[r] = int64(r)
		i[r] = wireInts[r%len(wireInts)]
		f[r] = wireFloats[r%len(wireFloats)]
		s[r] = wireStrings[r%len(wireStrings)]
		b[r] = r%2 == 0
		ts[r] = at.Add(time.Duration(r) * 37 * time.Hour).UnixNano()
		for c := range nulls {
			nulls[c][r] = r%(5+c) == c
		}
		switch r % 7 {
		case 0:
			m = append(m, table.Int(i[r]))
		case 1:
			m = append(m, table.Float(f[r]))
		case 2:
			m = append(m, table.Str(s[r]))
		case 3:
			m = append(m, table.Bool(b[r]))
		case 4:
			m = append(m, table.Time(time.Unix(0, ts[r])))
		case 5:
			m = append(m, table.Null())
		default:
			m = append(m, table.Float(math.NaN()))
		}
	}
	mixed := table.NewColumn("m", table.KindString)
	z := table.NewColumn("z", table.KindNull)
	for _, v := range m {
		text, _ := table.KindString.Coerce(v)
		mixed.Append(text)
		z.AppendNull()
	}
	return &table.Table{Name: "t", Columns: []table.Column{
		table.ColumnFromInts("k", k, nil),
		table.ColumnFromInts("i", i, nulls[0]),
		table.ColumnFromFloats("f", f, nulls[1]),
		table.ColumnFromStrings("s", s, nulls[2]),
		table.ColumnFromBools("b", b, nulls[3]),
		table.ColumnFromTimes("ts", ts, nulls[4]),
		mixed,
		z,
	}}
}

// huge is 1e300 as the SQL lexer reads it (it has no exponent form):
// multiplying by it twice overflows any float of ordinary size to ±Inf.
var huge = "1" + strings.Repeat("0", 300) + ".0"

// TestWireRowsMatchEncodingJSON is the differential test for the one-pass
// row encoder: over whole-table views, span-form and gathered selections,
// materialized results, zero-row and zero-column results, every batch's
// appendRows bytes equal encoding/json's rendering of the boxed oracle,
// and so does a cursor page that runs the batches together.
func TestWireRowsMatchEncodingJSON(t *testing.T) {
	cat := sqlengine.NewCatalog()
	cat.Register(wireTestTable())
	cat.Register(&table.Table{Name: "nocols"})
	big := make([]int64, 3*sqlengine.BatchRows+17) // several batches to a page
	for r := range big {
		big[r] = int64(r) * 1_000_003
	}
	cat.Register(&table.Table{Name: "big", Columns: []table.Column{table.ColumnFromInts("k", big, nil)}})

	for _, q := range []struct {
		name, sql string
		rows      int
	}{
		{"whole table", "SELECT * FROM t", 64},
		{"span selection", "SELECT * FROM t WHERE k >= 5 AND k < 50", 45},
		{"gathered selection", "SELECT * FROM t WHERE k % 3 = 0", 22},
		{"materialized", "SELECT k, f, s, m FROM t ORDER BY k DESC", 64},
		{"computed", "SELECT k * 2, f * " + huge + ", s FROM t WHERE k < 23", 23},
		{"grouped", "SELECT b, COUNT(*), SUM(f), MIN(s) FROM t GROUP BY b", 3},
		{"one column", "SELECT s FROM t", 64},
		{"zero rows", "SELECT * FROM t WHERE k < 0", 0},
		{"zero columns", "SELECT * FROM nocols", 0},
		{"many batches", "SELECT k FROM big", len(big)},
		{"many gathered batches", "SELECT k FROM big WHERE k % 2 = 0", (len(big) + 1) / 2},
	} {
		t.Run(q.name, func(t *testing.T) {
			res, err := cat.QueryCtx(context.Background(), q.sql)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.NumRows() != q.rows {
				t.Fatalf("%d rows, want %d", res.NumRows(), q.rows)
			}
			var all [][]any
			var buf []byte
			seq := 0
			for b := res.Next(); b != nil; b = res.Next() {
				seq++
				oracle := oracleRows(b)
				all = append(all, oracle...)
				buf = appendRows(buf[:0], b)
				requireSameLine(t, fmt.Sprintf("batch %d", seq),
					line{"code": CodeProgress, "batch_seq": seq, "batch_rows": b.NumRows(), "duration_ms": 0.25}, buf, oracle)
			}
			if len(all) != q.rows {
				t.Fatalf("batches carried %d rows, want %d", len(all), q.rows)
			}
			if err := res.Rewind(); err != nil {
				t.Fatal(err)
			}
			p, err := newCursor(q.sql, res, nil).next(q.rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.numRows != q.rows || p.rowsSent != q.rows || !p.done {
				t.Fatalf("page = %d rows, %d sent, done %v; want all %d", p.numRows, p.rowsSent, p.done, q.rows)
			}
			requireSameLine(t, "cursor page",
				line{"code": CodeOK, "page_rows": p.numRows, "cursor_done": p.done, "api_secret": "x"}, p.rows, all)
		})
	}
}

// FuzzWireRows: for any string bytes and any float bits — alone in typed
// columns and together in the text column COALESCE(f, s) makes —
// appendRows writes what encoding/json writes, and null where
// encoding/json has nothing to write.
func FuzzWireRows(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(s, math.Float64bits(wireFloats[i%len(wireFloats)]))
	}
	for _, x := range wireFloats {
		f.Add("x", math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		x := math.Float64frombits(bits)
		cat := sqlengine.NewCatalog()
		cat.Register(&table.Table{Name: "t", Columns: []table.Column{
			table.ColumnFromStrings("s", []string{s, s}, nil),
			table.ColumnFromFloats("f", []float64{x, -x}, []bool{false, true}),
		}})
		res, err := cat.QueryCtx(context.Background(), "SELECT s, f, COALESCE(f, s) AS m FROM t")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		b := res.Next()
		rows := appendRows(nil, b)
		requireSameLine(t, "fuzz", line{"code": CodeProgress}, rows, oracleRows(b))
		var cells [][]any
		if err := json.Unmarshal([]byte("["+string(rows)+"]"), &cells); err != nil {
			t.Fatal(err)
		}
		if nonFinite := math.IsNaN(x) || math.IsInf(x, 0); nonFinite != (cells[0][1] == nil) {
			t.Fatalf("float bits %#x: non-finite %v, rows %s", bits, nonFinite, rows)
		}
	})
}

// FuzzAppendFloat: for any float bits appendFloat appends what
// encoding/json writes for a finite value and null for a non-finite one,
// and inside the short-decimal path's range (1e-6 ≤ |f| < 1e14) it writes
// strconv's shortest 'f' form byte for byte.
func FuzzAppendFloat(f *testing.F) {
	seeds := []float64{
		0.1 + 0.2, 9.999999999999998e13, 99999999999999.98, 5e-324, math.Copysign(0, -1), 1e-6, 9.999999e-7,
		123456789.012345, 0.123456789012345, 1234567890.123456, 0.1234567890123456, // 15 and 16 significant digits
		12.34, 0.07, 99.99, 1e14, math.MaxFloat64, math.NaN(), math.Inf(-1),
	}
	for k := 0; k <= 15; k++ {
		p := math.Pow(10, float64(k))
		for _, m := range []float64{1<<47 - 1, 1 << 47, 1<<47 + 1} {
			x := m / p
			seeds = append(seeds, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
	}
	for v := 0; v < 10_000; v += 7 { // the demo table's value cells
		seeds = append(seeds, float64(v)/100)
	}
	for _, x := range seeds {
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got := appendFloat([]byte("["), x)
		if got[0] != '[' {
			t.Fatalf("%#x: prefix overwritten: %s", bits, got)
		}
		got = got[1:]
		want := []byte("null")
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			var err error
			if want, err = json.Marshal(x); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#x: appendFloat wrote %s, encoding/json %s", bits, got, want)
		}
		if abs := math.Abs(x); abs >= 1e-6 && abs < 1e14 {
			if want := strconv.AppendFloat(nil, x, 'f', -1, 64); !bytes.Equal(got, want) {
				t.Fatalf("%#x: appendFloat wrote %s, strconv %s", bits, got, want)
			}
		}
	})
}

// TestAppendFloatAllocs: formatting a float into a buffer with room
// allocates nothing, on the short-decimal path or off it.
func TestAppendFloatAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		for _, x := range wireFloats {
			buf = appendFloat(buf[:0], x)
		}
	}); allocs != 0 {
		t.Fatalf("appendFloat made %.1f allocations per pass, want 0", allocs)
	}
}

// BenchmarkAppendRows is the wire's encode stage alone: every batch of a
// 20,000-row SELECT id, kind, value FROM events result, demo data,
// appended into one reused buffer.
func BenchmarkAppendRows(b *testing.B) {
	const rows = 20_000
	p := datalab.MustNew()
	if err := LoadDemo(p, rows); err != nil {
		b.Fatal(err)
	}
	res, err := p.QueryCtx(context.Background(), "SELECT id, kind, value FROM events")
	if err != nil {
		b.Fatal(err)
	}
	defer res.Close()
	var buf []byte
	for b.Loop() {
		if err := res.Rewind(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for batch := res.Next(); batch != nil; batch = res.Next() {
			buf = appendRows(buf[:0], batch)
			n += batch.NumRows()
		}
		if n != rows {
			b.Fatalf("%d rows, want %d", n, rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// nonFiniteServer is a demo server whose events table also holds, from id
// 100, a NaN and an Inf ingested over the wire (both Infer to floats).
func nonFiniteServer(t *testing.T) (*httptest.Server, *syncBuffer) {
	t.Helper()
	_, ts, logBuf := newTestServer(t, 10, Config{})
	resp, err := http.Post(ts.URL+"/v1/ingest/events", "application/x-ndjson",
		strings.NewReader("[100,\"x\",\"NaN\"]\n[101,\"x\",\"Inf\"]\n[102,\"x\",1.5]\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if last := decodeLines(t, resp.Body); last[len(last)-1]["rows_appended_total"] != float64(3) {
		t.Fatalf("ingest = %v", last)
	}
	return ts, logBuf
}

// nonFiniteQueries are the two ways a non-finite float reaches the wire:
// stored ones read back, and arithmetic overflowing to +Inf.
var nonFiniteQueries = []struct {
	sql  string
	want [][]any
}{
	{"SELECT id, value FROM events WHERE id >= 100", [][]any{{100.0, nil}, {101.0, nil}, {102.0, 1.5}}},
	{"SELECT id, value * " + huge + " * " + huge + " FROM events WHERE id = 102", [][]any{{102.0, nil}}},
}

// TestNonFiniteFloatsAreNull: a NaN or ±Inf cell is null on the wire and
// the response runs to its terminal ok line. (It used to end after the
// startup line with a cancel in the log: encoding/json refuses such a
// value, and handleQuery read every write error as a disconnect.)
func TestNonFiniteFloatsAreNull(t *testing.T) {
	ts, logBuf := nonFiniteServer(t)
	for _, q := range nonFiniteQueries {
		resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"sql": q.sql})
		lines := decodeLines(t, resp.Body)
		resp.Body.Close()
		if len(lines) != 3 || lines[0]["code"] != CodeStartup || lines[1]["code"] != CodeProgress || lines[2]["code"] != CodeOK {
			t.Fatalf("%s: stream = %v, want startup, progress, ok", q.sql, lines)
		}
		if got := lines[1]["rows"]; !reflect.DeepEqual(got, anyRows(q.want)) {
			t.Fatalf("%s: rows = %v, want %v", q.sql, got, q.want)
		}

		resp = postJSON(t, ts.URL+"/v1/cursors", map[string]any{"sql": q.sql})
		created := decodeLines(t, resp.Body)[0]
		resp.Body.Close()
		if created["code"] != CodeOK {
			t.Fatalf("%s: cursor create = %v", q.sql, created)
		}
		resp = postJSON(t, ts.URL+"/v1/cursors/"+created["cursor_id"].(string)+"/next", nil)
		page := decodeLines(t, resp.Body)[0]
		resp.Body.Close()
		if page["code"] != CodeOK || page["cursor_done"] != true || !reflect.DeepEqual(page["rows"], anyRows(q.want)) {
			t.Fatalf("%s: cursor page = %v, want rows %v", q.sql, page, q.want)
		}
	}
	if logs := logBuf.String(); strings.Contains(logs, `"code":"cancel"`) {
		t.Fatalf("a fully delivered stream was logged as cancelled:\n%s", logs)
	}
}

// anyRows is rows as json.Unmarshal into an any yields them.
func anyRows(rows [][]any) any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// failingWriter is a response whose socket is gone: every Write fails.
type failingWriter struct{ header http.Header }

func (f failingWriter) Header() http.Header       { return f.header }
func (f failingWriter) WriteHeader(int)           {}
func (f failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("broken pipe") }

// TestCancelIsLoggedWhenTheSocketWriteFails is the other half of
// TestNonFiniteFloatsAreNull: the cancel event still fires when the
// progress line cannot be written, and counts the query as cancelled.
func TestCancelIsLoggedWhenTheSocketWriteFails(t *testing.T) {
	srv, _, logBuf := newTestServer(t, 10, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"sql":"SELECT id FROM events"}`))
	srv.Handler().ServeHTTP(failingWriter{header: http.Header{}}, req)
	if got := srv.queriesCanceled.Load(); got != 1 {
		t.Fatalf("queries_canceled_total = %d, want 1", got)
	}
	if logs := logBuf.String(); !strings.Contains(logs, `"event":"query_canceled"`) {
		t.Fatalf("no cancel event in log:\n%s", logs)
	}
}

// TestStreamAllocationPin guards against the boxed row path coming back: a
// 20 000-row, three-column /v1/query cost 80,757 allocations when every
// cell became an any inside a []any inside a [][]any for encoding/json to
// reflect over; encoded straight from the column slabs into one reused
// buffer it is a few hundred (request parsing, the control lines' maps,
// buffer growth), and no per-row or per-cell allocation fits under the pin.
func TestStreamAllocationPin(t *testing.T) {
	const rows = 20_000
	srv, _, _ := newTestServer(t, rows, Config{})
	h := srv.Handler()
	const body = `{"sql":"SELECT id, kind, value FROM events"}`
	stream := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		return rec
	}
	lines := decodeLines(t, stream().Body)
	if last := lines[len(lines)-1]; last["code"] != CodeOK || last["rows_total"] != float64(rows) {
		t.Fatalf("terminal line = %v", last)
	}
	if allocs := testing.AllocsPerRun(5, func() { stream() }); allocs > 1000 {
		t.Fatalf("a %d-row stream made %.0f allocations, want at most 1000", rows, allocs)
	}
}
