// Package wal is the durability layer for the ingest path: a per-catalog
// write-ahead log plus chunk checkpoints and boot-time recovery.
//
// The storage layer above (internal/table) already has the shape of a
// log — every Publish seals one immutable chunk — so the WAL simply
// journals those seals: a registration record when a table is adopted,
// one chunk record per published chunk. Records are framed with a length
// prefix and a CRC32C over the payload, so recovery can replay a log
// tail and stop cleanly at the first torn or corrupt frame. Checkpoints
// serialize the whole catalog as the same record stream into a compact
// snapshot file, bounding replay time and letting old log generations be
// deleted.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"datalab/internal/table"
)

// File layout. Both log files (wal-<gen>.log) and checkpoint files
// (ckpt-<gen>.snap) share one format: an 8-byte magic header followed by
// framed records. A frame is
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// and a payload is a one-byte record type followed by the type-specific
// body. Checkpoint files end with a recCheckpointEnd footer record; a
// checkpoint without the footer was torn mid-write and is ignored by
// recovery.
const (
	fileMagic = "DLWAL001"

	// maxRecord bounds a single frame payload (1 GiB). The writer refuses
	// a larger payload with a RecordTooLargeError; a length prefix beyond
	// it is treated as corruption, not an allocation request.
	maxRecord = 1 << 30

	// maxNullColumnRows bounds the declared length of a typed KindNull
	// column. Every other column spends at least a bit of the record body
	// per row, so the body bounds what decoding it allocates; an all-NULL
	// slab is zero bytes, and only this constant stands between a
	// ten-byte record and a gigabyte of null mask. The encoder refuses
	// the same columns, so nothing written is unreadable.
	maxNullColumnRows = 1 << 24
)

// Record types.
const (
	// recRegister journals a table registration: name, schema, and the
	// initial contents adopted by table.NewAppender (possibly zero rows).
	recRegister = byte(1)
	// recChunk journals one published chunk: table name, the snapshot
	// version the publish created, and the chunk's columns.
	recChunk = byte(2)
	// recCheckpointEnd is the checkpoint footer: its presence proves the
	// checkpoint file was written to completion before the rename.
	recCheckpointEnd = byte(3)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a frame that ends early or fails its CRC — the expected
// state of the final record after a crash mid-write. Recovery treats it
// as a clean end of log; anywhere else it is corruption.
var errTorn = errors.New("wal: torn record")

// RecordTooLargeError is a record payload the log refuses to write: one
// longer than maxRecord, which the reader would take for a torn frame. It
// is returned before any byte of the frame is written.
type RecordTooLargeError struct {
	Size int // payload length in bytes
}

func (e *RecordTooLargeError) Error() string {
	return fmt.Sprintf("wal: %d-byte record exceeds the %d-byte limit", e.Size, maxRecord)
}

// --- frame writer ---

type frameWriter struct {
	w *bufio.Writer
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// writeFrame frames and buffers one payload; the caller flushes. It
// returns the framed size (header + payload), or a RecordTooLargeError —
// having written nothing — for a payload the reader would reject.
func (fw *frameWriter) writeFrame(payload []byte) (int64, error) {
	if len(payload) > maxRecord {
		return 0, &RecordTooLargeError{Size: len(payload)}
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return 0, err
	}
	return int64(8 + len(payload)), nil
}

func (fw *frameWriter) flush() error { return fw.w.Flush() }

// --- frame reader ---

// frameReader walks the framed records of one file, tracking the byte
// offset of the first frame that failed to decode so recovery can
// truncate a torn tail before reopening the log for append.
type frameReader struct {
	r    *bufio.Reader
	off  int64 // offset of the next unread frame
	size int64 // length of the whole file
}

// newFrameReader reads the frames of a file of size bytes from r, which
// is positioned headerLen bytes in.
func newFrameReader(r io.Reader, headerLen, size int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16), off: headerLen, size: size}
}

// next returns the next record payload. io.EOF means a clean end of
// file; errTorn means the remaining bytes do not form a whole valid
// frame (reader.off still points at the torn frame's start).
func (fr *frameReader) next() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn // partial header
	}
	// The prefix is not yet vouched for by the CRC: one that promises more
	// than the file holds is a frame cut short, not an allocation request.
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecord || int64(n) > fr.size-fr.off-int64(len(hdr)) {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, errTorn // frame cut short
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTorn
	}
	fr.off += int64(8 + n)
	return payload, nil
}

// --- record encoding ---

// A record body is built with the primitive appenders below: uvarint
// lengths/counts, raw bytes for strings, fixed-width little-endian for
// numeric cells, bitmaps for bools and null masks.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendString(b []byte, s string) []byte  { return append(appendUvarint(b, uint64(len(s))), s...) }
func appendUint64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendBitmap(b []byte, bits []bool) []byte {
	nb := (len(bits) + 7) / 8
	start := len(b)
	b = append(b, make([]byte, nb)...)
	for i, set := range bits {
		if set {
			b[start+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

type recordDecoder struct {
	b []byte
}

var errShort = errors.New("wal: record body truncated")

func (d *recordDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errShort
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *recordDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.b)) < n {
		return "", errShort
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *recordDecoder) byte() (byte, error) {
	if len(d.b) < 1 {
		return 0, errShort
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *recordDecoder) uint64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *recordDecoder) bitmap(n int) ([]bool, error) {
	nb := (n + 7) / 8
	if len(d.b) < nb {
		return nil, errShort
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = d.b[i/8]&(1<<(i%8)) != 0
	}
	d.b = d.b[nb:]
	return bits, nil
}

// --- column encoding ---

// Column storage markers. Every column is written as its kind's slab
// (storageTyped). Class 0 held a column of mixed kinds, one kind byte per
// cell; columns hold one kind now, so nothing writes it and a log or
// checkpoint holding one is refused (MixedColumnError).
const (
	storageTyped = byte(1)
	storageMixed = byte(0)
)

// MixedColumnError is a logged column of the mixed-kind storage class,
// which no column can hold any more: recovery refuses the log rather than
// guess a kind for its cells.
type MixedColumnError struct {
	Column string
}

func (e *MixedColumnError) Error() string {
	return fmt.Sprintf("wal: column %q is logged with mixed kinds, which recovery refuses", e.Column)
}

// appendColumn serializes one column view: name, declared kind, length,
// storage marker, then the payload: a null bitmap followed by the value
// slab (ints and float bit patterns fixed 8-byte LE, strings
// uvarint-length-prefixed, bools a bitmap, times int64 unix seconds +
// uvarint nanos per cell; KindNull columns have no slab).
func appendColumn(b []byte, c *table.Column) ([]byte, error) {
	b = appendString(b, c.Name)
	b = append(b, byte(c.Kind))
	n := c.Len()
	b = appendUvarint(b, uint64(n))
	b = append(b, storageTyped)
	switch c.Kind {
	case table.KindInt:
		vals, nulls, _ := c.Ints()
		b = appendBitmap(b, nulls)
		for _, v := range vals {
			b = appendUint64(b, uint64(v))
		}
	case table.KindFloat:
		vals, nulls, _ := c.Floats()
		b = appendBitmap(b, nulls)
		for _, v := range vals {
			b = appendUint64(b, math.Float64bits(v))
		}
	case table.KindString:
		vals, nulls, _ := c.Strings()
		b = appendBitmap(b, nulls)
		for _, v := range vals {
			b = appendString(b, v)
		}
	case table.KindBool:
		vals, nulls, _ := c.Bools()
		b = appendBitmap(b, nulls)
		b = appendBitmap(b, vals)
	case table.KindTime:
		vals, nulls, _ := c.Times()
		b = appendBitmap(b, nulls)
		for i, v := range vals {
			t := time.Unix(0, v)
			if nulls[i] {
				t = time.Time{}
			}
			b = appendTime(b, t)
		}
	case table.KindNull:
		// A typed null column is nothing but its length.
		if n > maxNullColumnRows {
			return nil, fmt.Errorf("wal: encode column %q: %d all-NULL rows exceed the %d a record may declare", c.Name, n, maxNullColumnRows)
		}
	default:
		return nil, fmt.Errorf("wal: encode column %q: unknown kind %d", c.Name, c.Kind)
	}
	return b, nil
}

// appendTime serializes a timestamp as unix seconds + nanoseconds. A NULL
// cell is the zero time.Time, 0001-01-01, as before cells were nanoseconds.
func appendTime(b []byte, t time.Time) []byte {
	b = appendUint64(b, uint64(t.Unix()))
	return appendUvarint(b, uint64(t.Nanosecond()))
}

func (d *recordDecoder) time() (time.Time, error) {
	sec, err := d.uint64()
	if err != nil {
		return time.Time{}, err
	}
	nsec, err := d.uvarint()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(int64(sec), int64(nsec)).UTC(), nil
}

// column decodes one serialized column back into exact storage: the slabs
// are adopted via the ColumnFrom* constructors. A column of the mixed-kind
// class is a MixedColumnError, and a time cell outside the range a time
// column holds (table.InTimeRange) a *table.CellError.
func (d *recordDecoder) column() (table.Column, error) {
	name, err := d.str()
	if err != nil {
		return table.Column{}, err
	}
	kindB, err := d.byte()
	if err != nil {
		return table.Column{}, err
	}
	kind := table.Kind(kindB)
	n64, err := d.uvarint()
	if err != nil {
		return table.Column{}, err
	}
	if n64 > maxRecord {
		return table.Column{}, errShort
	}
	n := int(n64)
	storage, err := d.byte()
	if err != nil {
		return table.Column{}, err
	}
	switch storage {
	case storageTyped:
	case storageMixed:
		return table.Column{}, &MixedColumnError{Column: name}
	default:
		return table.Column{}, fmt.Errorf("wal: decode column %q: unknown storage class %d", name, storage)
	}
	switch kind {
	case table.KindInt:
		nulls, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		vals := make([]int64, n)
		for i := range vals {
			v, err := d.uint64()
			if err != nil {
				return table.Column{}, err
			}
			vals[i] = int64(v)
		}
		return table.ColumnFromInts(name, vals, nulls), nil
	case table.KindFloat:
		nulls, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		vals := make([]float64, n)
		for i := range vals {
			v, err := d.uint64()
			if err != nil {
				return table.Column{}, err
			}
			vals[i] = math.Float64frombits(v)
		}
		return table.ColumnFromFloats(name, vals, nulls), nil
	case table.KindString:
		nulls, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		vals := make([]string, n)
		for i := range vals {
			if vals[i], err = d.str(); err != nil {
				return table.Column{}, err
			}
		}
		return table.ColumnFromStrings(name, vals, nulls), nil
	case table.KindBool:
		nulls, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		vals, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		return table.ColumnFromBools(name, vals, nulls), nil
	case table.KindTime:
		nulls, err := d.bitmap(n)
		if err != nil {
			return table.Column{}, err
		}
		vals := make([]int64, n)
		for i := range vals {
			t, err := d.time()
			switch {
			case err != nil:
				return table.Column{}, err
			case nulls[i]: // written as 0001-01-01; the cell stays 0
			case !table.InTimeRange(t):
				return table.Column{}, &table.CellError{Column: name, Kind: kind, Cell: t.Format(time.RFC3339Nano)}
			default:
				vals[i] = t.UnixNano()
			}
		}
		return table.ColumnFromTimes(name, vals, nulls), nil
	case table.KindNull:
		if n > maxNullColumnRows {
			return table.Column{}, fmt.Errorf("wal: decode column %q: %d all-NULL rows exceed the %d a record may declare", name, n, maxNullColumnRows)
		}
		col := table.NewColumn(name, table.KindNull)
		for i := 0; i < n; i++ {
			col.Append(table.Null())
		}
		return col, nil
	default:
		return table.Column{}, fmt.Errorf("wal: decode column %q: unknown kind %d", name, kind)
	}
}

// columns decodes a record's column list: a count, then that many
// columns, which must agree on their length — the rows of one table.
func (d *recordDecoder) columns() ([]table.Column, error) {
	ncols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<20 {
		return nil, errShort
	}
	cols := make([]table.Column, ncols)
	for i := range cols {
		if cols[i], err = d.column(); err != nil {
			return nil, err
		}
		if cols[i].Len() != cols[0].Len() {
			return nil, fmt.Errorf("wal: decode column %q: %d rows beside a column of %d", cols[i].Name, cols[i].Len(), cols[0].Len())
		}
	}
	return cols, nil
}

// --- record encoding: register / chunk ---

// encodeRegister builds a recRegister payload from a table's initial
// contents: name, column count, then each column in full (often zero
// rows, but Register over a populated table seals it as chunk one).
func encodeRegister(b []byte, t *table.Table) ([]byte, error) {
	b = append(b, recRegister)
	b = appendString(b, t.Name)
	b = appendUvarint(b, uint64(len(t.Columns)))
	for i := range t.Columns {
		var err error
		b, err = appendColumn(b, &t.Columns[i])
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// encodeChunk builds a recChunk payload: table name, the snapshot
// version this publish creates, then the chunk's columns.
func encodeChunk(b []byte, name string, version uint64, ck *table.Chunk) ([]byte, error) {
	b = append(b, recChunk)
	b = appendString(b, name)
	b = appendUvarint(b, version)
	b = appendUvarint(b, uint64(ck.NumCols()))
	for i := 0; i < ck.NumCols(); i++ {
		var err error
		b, err = appendColumn(b, ck.Column(i))
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// registerRecord is a decoded recRegister.
type registerRecord struct {
	table *table.Table
}

// chunkRecord is a decoded recChunk.
type chunkRecord struct {
	name    string
	version uint64
	cols    []table.Column
}

func decodeRegister(body []byte) (registerRecord, error) {
	d := recordDecoder{b: body}
	name, err := d.str()
	if err != nil {
		return registerRecord{}, err
	}
	cols, err := d.columns()
	if err != nil {
		return registerRecord{}, err
	}
	// Built directly rather than via table.New: the record was encoded
	// from a table that already passed registration validation, and the
	// CRC vouches for the bytes.
	return registerRecord{table: &table.Table{Name: name, Columns: cols}}, nil
}

func decodeChunk(body []byte) (chunkRecord, error) {
	d := recordDecoder{b: body}
	name, err := d.str()
	if err != nil {
		return chunkRecord{}, err
	}
	version, err := d.uvarint()
	if err != nil {
		return chunkRecord{}, err
	}
	cols, err := d.columns()
	if err != nil {
		return chunkRecord{}, err
	}
	return chunkRecord{name: name, version: version, cols: cols}, nil
}
