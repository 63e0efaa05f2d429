package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"datalab/internal/table"
)

// randomValue draws a value of the given kind (or NULL with probability
// nullP). Floats include exact-bit extremes; strings include empties and
// multibyte runes; times carry non-zero nanoseconds.
func randomValue(rng *rand.Rand, kind table.Kind, nullP float64) table.Value {
	if rng.Float64() < nullP {
		return table.Null()
	}
	switch kind {
	case table.KindInt:
		switch rng.Intn(4) {
		case 0:
			return table.Int(math.MinInt64)
		case 1:
			return table.Int(math.MaxInt64)
		default:
			return table.Int(rng.Int63() - rng.Int63())
		}
	case table.KindFloat:
		switch rng.Intn(5) {
		case 0:
			return table.Float(math.Inf(1))
		case 1:
			return table.Float(math.Inf(-1))
		case 2:
			return table.Float(math.Copysign(0, -1))
		default:
			return table.Float(rng.NormFloat64() * 1e6)
		}
	case table.KindString:
		switch rng.Intn(4) {
		case 0:
			return table.Str("")
		case 1:
			return table.Str("héllo wörld — " + strings.Repeat("δ", rng.Intn(8)))
		default:
			b := make([]byte, rng.Intn(24))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			return table.Str(string(b))
		}
	case table.KindBool:
		return table.Bool(rng.Intn(2) == 0)
	case table.KindTime:
		sec := rng.Int63n(4e9) - 2e9
		return table.Time(time.Unix(sec, rng.Int63n(1e9)).UTC())
	default:
		return table.Null()
	}
}

var allKinds = []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool, table.KindTime}

// randomColumn builds a column of n cells of a random kind.
func randomColumn(rng *rand.Rand, name string, n int) table.Column {
	kind := allKinds[rng.Intn(len(allKinds))]
	col := table.NewColumn(name, kind)
	for i := 0; i < n; i++ {
		col.Append(randomValue(rng, kind, 0.15))
	}
	return col
}

func valuesEqual(a, b table.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case table.KindNull:
		return true
	case table.KindInt:
		return a.I == b.I
	case table.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case table.KindString:
		return a.S == b.S
	case table.KindBool:
		return a.B == b.B
	case table.KindTime:
		return a.I == b.I
	}
	return false
}

func assertColumnsEqual(t *testing.T, want, got *table.Column) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("column name: want %q, got %q", want.Name, got.Name)
	}
	if want.Kind != got.Kind {
		t.Fatalf("column %q kind: want %v, got %v", want.Name, want.Kind, got.Kind)
	}
	if want.Len() != got.Len() {
		t.Fatalf("column %q length: want %d, got %d", want.Name, want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !valuesEqual(want.Value(i), got.Value(i)) {
			t.Fatalf("column %q row %d: want %+v, got %+v", want.Name, i, want.Value(i), got.Value(i))
		}
	}
}

// TestColumnRoundTrip proves the codec reproduces exact column storage —
// kind, values, nulls and NaN/±0 bit patterns — across many random
// columns.
func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		col := randomColumn(rng, "c", rng.Intn(64))
		b, err := appendColumn(nil, &col)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		d := recordDecoder{b: b}
		got, err := d.column()
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(d.b) != 0 {
			t.Fatalf("trial %d: %d bytes left after decode", trial, len(d.b))
		}
		assertColumnsEqual(t, &col, &got)
	}
}

// TestColumnRoundTripNaN pins the one float case multiset equality
// can't: NaN payload bits survive the trip.
func TestColumnRoundTripNaN(t *testing.T) {
	weirdNaN := math.Float64frombits(0x7ff8000000000abc)
	col := table.ColumnFromFloats("f", []float64{math.NaN(), weirdNaN, 1.5}, nil)
	b, err := appendColumn(nil, &col)
	if err != nil {
		t.Fatal(err)
	}
	d := recordDecoder{b: b}
	got, err := d.column()
	if err != nil {
		t.Fatal(err)
	}
	vals, _, ok := got.Floats()
	if !ok {
		t.Fatal("decoded column not typed float")
	}
	for i, want := range []float64{math.NaN(), weirdNaN, 1.5} {
		if math.Float64bits(vals[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: bits %x != %x", i, math.Float64bits(vals[i]), math.Float64bits(want))
		}
	}
}

// TestRegisterRecordRoundTrip round-trips full tables through the
// register record codec.
func TestRegisterRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		ncols := 1 + rng.Intn(5)
		nrows := rng.Intn(40)
		cols := make([]table.Column, ncols)
		for i := range cols {
			cols[i] = randomColumn(rng, string(rune('a'+i)), nrows)
		}
		src := &table.Table{Name: "t", Columns: cols}
		payload, err := encodeRegister(nil, src)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		if payload[0] != recRegister {
			t.Fatalf("trial %d: record type %d", trial, payload[0])
		}
		rr, err := decodeRegister(payload[1:])
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if rr.table.Name != "t" || len(rr.table.Columns) != ncols {
			t.Fatalf("trial %d: got table %q with %d columns", trial, rr.table.Name, len(rr.table.Columns))
		}
		for i := range cols {
			assertColumnsEqual(t, &cols[i], &rr.table.Columns[i])
		}
	}
}

// TestChunkRecordRoundTrip round-trips chunk records via a real
// Appender, exercising the publish-hook encoding path end to end.
func TestChunkRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := table.MustNew("t", []string{"i", "s"}, []table.Kind{table.KindInt, table.KindString})
	app := table.NewAppender(tbl)
	var captured []byte
	app.SetPublishHook(func(name string, version uint64, ck *table.Chunk) error {
		b, err := encodeChunk(nil, name, version, ck)
		captured = b
		return err
	})
	for i := 0; i < 50; i++ {
		if err := appendRows(app, []table.Value{table.Int(rng.Int63()), table.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := app.PublishErr(); err != nil {
		t.Fatal(err)
	}
	if captured == nil || captured[0] != recChunk {
		t.Fatalf("hook did not capture a chunk record")
	}
	cr, err := decodeChunk(captured[1:])
	if err != nil {
		t.Fatal(err)
	}
	if cr.name != "t" || cr.version != 2 || len(cr.cols) != 2 || cr.cols[0].Len() != 50 {
		t.Fatalf("decoded chunk: name=%q version=%d cols=%d rows=%d", cr.name, cr.version, len(cr.cols), cr.cols[0].Len())
	}
	want := app.Snapshot().Chunk(app.Snapshot().NumChunks() - 1)
	for i := 0; i < want.NumCols(); i++ {
		assertColumnsEqual(t, want.Column(i), &cr.cols[i])
	}
}

// TestFrameRejectsCorruption flips every byte of a framed record in
// turn and asserts the reader reports errTorn each time (CRC or length
// guard), never a bogus success.
func TestFrameRejectsCorruption(t *testing.T) {
	var sb strings.Builder
	fw := newFrameWriter(&sb)
	if _, err := fw.writeFrame([]byte{recChunk, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	clean := sb.String()
	for i := 0; i < len(clean); i++ {
		mut := []byte(clean)
		mut[i] ^= 0x40
		fr := newFrameReader(strings.NewReader(string(mut)), 0, int64(len(mut)))
		payload, err := fr.next()
		if err == nil && string(payload) == clean[8:] {
			t.Fatalf("byte %d: corruption went undetected", i)
		}
	}
}

// TestWriteFrameRefusesOversizedRecord: a payload one byte past maxRecord
// would be read back as a torn frame, truncating the log there, so the
// writer refuses it with a RecordTooLargeError and nothing reaches the
// file. The payload is a fresh allocation the OS backs lazily; refusing it
// must not touch its pages.
func TestWriteFrameRefusesOversizedRecord(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fw := newFrameWriter(f)
	n, err := fw.writeFrame(make([]byte, maxRecord+1))
	var tooLarge *RecordTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Size != maxRecord+1 || n != 0 {
		t.Fatalf("writeFrame = %d, %v; want 0 and a RecordTooLargeError of %d bytes", n, err, maxRecord+1)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Stat(); err != nil || st.Size() != 0 {
		t.Fatalf("file holds %d bytes after the refusal (%v), want 0", st.Size(), err)
	}
}

// nullSlabRecord is FuzzWALDecode's first finding: a 12-byte chunk body
// declaring one typed KindNull column of 2^26 rows. A null slab is zero
// bytes, so nothing tied the length to the body and decoding allocated
// 375 MB; maxNullColumnRows now refuses it.
func nullSlabRecord() []byte {
	b := appendUvarint(appendString(nil, "t"), 1) // table, version
	b = appendString(appendUvarint(b, 1), "c")    // one column
	return append(appendUvarint(append(b, byte(table.KindNull)), 1<<26), storageTyped)
}

// mixedColumnRecord is a register record for table t whose column "m" is
// of the mixed-kind storage class (class 0: a kind byte and a payload per
// cell), which recovery refuses: an int 1, then a string "two".
func mixedColumnRecord() []byte {
	b := append([]byte{recRegister}, appendString(nil, "t")...)
	b = appendUvarint(b, 1)
	b = append(appendString(b, "m"), byte(table.KindInt))
	b = append(appendUvarint(b, 2), storageMixed)
	b = appendUint64(append(b, byte(table.KindInt)), 1)
	return appendString(append(b, byte(table.KindString)), "two")
}

// TestRecoveryRefusesMixedColumn: a column of the mixed-kind storage class
// decodes to a *MixedColumnError naming it, and a log holding one is
// refused by Open rather than replayed or cut as a torn tail.
func TestRecoveryRefusesMixedColumn(t *testing.T) {
	var mixed *MixedColumnError
	_, err := decodeRegister(mixedColumnRecord()[1:])
	if !errors.As(err, &mixed) || mixed.Column != "m" {
		t.Fatalf("decode = %v, want a MixedColumnError naming m", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir, 1), framedFile(t, mixedColumnRecord()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := openErr(dir); !errors.As(err, &mixed) || mixed.Column != "m" {
		t.Fatalf("Open = %v, want a MixedColumnError naming m", err)
	}
}

// framedFile is a log or checkpoint file holding payloads: the magic, then
// each payload framed.
func framedFile(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	fw := newFrameWriter(&buf)
	for _, p := range payloads {
		if _, err := fw.writeFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openErr is the error Open returns for dir, closing what it opens.
func openErr(dir string) error {
	m, _, err := Open(dir, Options{})
	if err == nil {
		m.Close()
	}
	return err
}

// FuzzWALDecode: arbitrary bytes — as a framed log, as one record payload
// applied to a state that knows a table, and as a bare register or chunk
// body — never panic the decoder, and every record that does decode has
// columns of one length. Seeds: a valid log, nullSlabRecord and the two
// records recovery refuses.
func FuzzWALDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	src := &table.Table{Name: "t", Columns: []table.Column{randomColumn(rng, "a", 5), randomColumn(rng, "b", 5)}}
	register, err := encodeRegister(nil, src)
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := encodeChunk(nil, "t", 2, table.NewAppender(src).Snapshot().Chunk(0))
	if err != nil {
		f.Fatal(err)
	}
	var log bytes.Buffer
	fw := newFrameWriter(&log)
	for _, payload := range [][]byte{register, chunk} {
		if _, err := fw.writeFrame(payload); err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[1:])
	}
	if err := fw.flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(log.Bytes())
	f.Add(nullSlabRecord())
	f.Add(mixedColumnRecord())
	f.Add(outOfRangeTimeRecord())
	// The first finding stays refused, before its null mask is built.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeChunk(nullSlabRecord()); err == nil {
		f.Fatal("a 12-byte record declaring 2^26 all-NULL rows decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxNullColumnRows {
		f.Fatalf("rejecting it allocated %d bytes, more than maxNullColumnRows", grew)
	}

	sameLength := func(t *testing.T, cols []table.Column) {
		for i := range cols {
			if cols[i].Len() != cols[0].Len() {
				t.Fatalf("decoded column %d has %d rows, column 0 has %d", i, cols[i].Len(), cols[0].Len())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := newReplayState()
		fr := newFrameReader(bytes.NewReader(data), 0, int64(len(data)))
		for payload, err := fr.next(); err == nil; payload, err = fr.next() {
			if st.apply(payload) != nil {
				break
			}
		}
		st = newReplayState()
		if err := st.apply(register); err != nil {
			t.Fatal(err)
		}
		_ = st.apply(data) // any error is fine; a panic is not
		if rr, err := decodeRegister(data); err == nil {
			sameLength(t, rr.table.Columns)
		}
		if cr, err := decodeChunk(data); err == nil {
			sameLength(t, cr.cols)
		}
	})
}

// TestTimeColumnBytes pins the log format of a time column: a NULL, a
// pre-1970 sub-second instant and a sub-second instant after it, each as
// int64 Unix seconds then uvarint nanoseconds behind the null bitmap. The
// literal was written by the codec that kept time cells as time.Time, so
// logs it wrote still recover.
func TestTimeColumnBytes(t *testing.T) {
	col := table.NewColumn("ts", table.KindTime)
	col.Append(table.Null())
	col.Append(table.Time(time.Date(1969, 7, 20, 20, 17, 40, 500_000_001, time.UTC)))
	col.Append(table.Time(time.Date(2024, 1, 1, 8, 0, 0, 123456789, time.UTC)))
	b, err := appendColumn(nil, &col)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0274730503010100096e88f1ffffff00e49527ffffffffff81cab5ee010071926500000000959aef3a"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("time column encodes as\n%s\nwant\n%s", got, want)
	}
	d := recordDecoder{b: b}
	got, err := d.column()
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsEqual(t, &col, &got)
}

// outOfRangeTimeRecord is a register record for table t whose time column
// "when" holds 2024-01-01 and then 9999-12-31, an instant with no int64
// nanosecond count, which recovery refuses.
func outOfRangeTimeRecord() []byte {
	b := append([]byte{recRegister}, appendString(nil, "t")...)
	b = appendUvarint(b, 1)
	b = append(appendString(b, "when"), byte(table.KindTime))
	b = append(appendUvarint(b, 2), storageTyped)
	b = appendBitmap(b, []bool{false, false})
	b = appendTime(b, time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	return appendTime(b, time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC))
}

// TestRecoveryRefusesOutOfRangeTime: a logged time cell outside the range a
// time column holds decodes to a *table.CellError naming its column, and
// Open refuses it in a log record and in the newest checkpoint alike —
// without falling back to the older checkpoint beside it.
func TestRecoveryRefusesOutOfRangeTime(t *testing.T) {
	wantRefused := func(what string, err error) {
		t.Helper()
		var cell *table.CellError
		if !errors.As(err, &cell) || cell.Column != "when" || cell.Kind != table.KindTime || !strings.HasPrefix(cell.Cell, "9999-12-31") {
			t.Fatalf("%s = %v, want a CellError naming column when", what, err)
		}
	}
	_, err := decodeRegister(outOfRangeTimeRecord()[1:])
	wantRefused("decode", err)

	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir, 1), framedFile(t, outOfRangeTimeRecord()), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRefused("Open with the record in the log", openErr(dir))

	dir = t.TempDir()
	good := table.MustNew("t", []string{"when"}, []table.Kind{table.KindTime})
	good.MustAppendRow(table.Time(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)))
	if err := writeCheckpoint(osFS{}, dir, 1, []*table.Snapshot{table.NewAppender(good).Snapshot()}); err != nil {
		t.Fatal(err)
	}
	footer := appendUvarint([]byte{recCheckpointEnd}, 1)
	if err := os.WriteFile(ckptPath(dir, 2), framedFile(t, outOfRangeTimeRecord(), footer), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRefused("Open with the record in the newest checkpoint", openErr(dir))
}
