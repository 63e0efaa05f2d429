package wal

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"datalab/internal/table"
)

// Recovered reports what boot-time recovery rebuilt.
type Recovered struct {
	// Appenders are the recovered write heads in original registration
	// order, each publishing its exact pre-crash snapshot version.
	Appenders []*table.Appender
	// RecoveredRows is the total row count across recovered tables.
	RecoveredRows int64
	// ReplayDuration is the wall-clock cost of checkpoint load + log
	// replay.
	ReplayDuration time.Duration
	// CheckpointGen is the generation of the checkpoint used (0: none).
	CheckpointGen uint64
	// RecordsApplied counts register/chunk records applied (checkpoint
	// records included); RecordsSkipped counts chunk records dropped as
	// already covered by the checkpoint.
	RecordsApplied int64
	RecordsSkipped int64
	// TornTail reports whether the final log ended in a torn or corrupt
	// record (the expected state after a crash mid-write); recovery
	// stopped cleanly before it.
	TornTail bool
}

// Recover rebuilds the durable catalog state from dir without opening
// it for writing: the newest valid checkpoint, then the log tail,
// stopping cleanly at a torn final record. Read-only — use Open to
// recover and continue appending.
func Recover(dir string) (*Recovered, error) {
	rec, _, err := recoverDir(dir)
	return rec, err
}

// layout describes what recovery found on disk, for Open to decide how
// to continue the log.
type layout struct {
	logGens []uint64
	ckptGen uint64 // newest valid checkpoint generation (0: none)
	tornGen uint64 // generation of the torn final log (0: none)
	tornOff int64  // valid-prefix length of the torn log
}

// replayState accumulates tables as records are applied, mirroring the
// catalog's map + insertion order.
type replayState struct {
	apps    map[string]*table.Appender
	order   []string
	applied int64
	skipped int64
}

func newReplayState() *replayState {
	return &replayState{apps: map[string]*table.Appender{}}
}

// apply folds one record into the state. Replay reproduces the original
// operations: a register record replaces the table (re-registration
// semantics), a chunk record is one append + publish. Chunk versions at
// or below the table's current version are duplicates — a checkpoint
// legitimately overlaps the first log generation it did not delete —
// and are skipped; a version more than one ahead means a missing record
// and is corruption.
func (st *replayState) apply(payload []byte) error {
	if len(payload) == 0 {
		return errShort
	}
	switch payload[0] {
	case recRegister:
		rr, err := decodeRegister(payload[1:])
		if err != nil {
			return err
		}
		key := strings.ToLower(rr.table.Name)
		if _, ok := st.apps[key]; !ok {
			st.order = append(st.order, key)
		}
		st.apps[key] = table.NewAppender(rr.table)
		st.applied++
		return nil
	case recChunk:
		cr, err := decodeChunk(payload[1:])
		if err != nil {
			return err
		}
		app, ok := st.apps[strings.ToLower(cr.name)]
		if !ok {
			return fmt.Errorf("wal: chunk record for unknown table %q", cr.name)
		}
		cur := app.Snapshot().Version()
		if cr.version <= cur {
			st.skipped++
			return nil
		}
		if cr.version != cur+1 {
			return fmt.Errorf("wal: table %q: chunk record version %d after version %d (missing records)", cr.name, cr.version, cur)
		}
		if err := app.AppendTableExact(&table.Table{Name: cr.name, Columns: cr.cols}); err != nil {
			return err
		}
		s, err := app.PublishErr()
		if err != nil {
			return err
		}
		if s.Version() != cr.version {
			return fmt.Errorf("wal: table %q: replay published version %d, record says %d", cr.name, s.Version(), cr.version)
		}
		st.applied++
		return nil
	default:
		return fmt.Errorf("wal: unknown record type %d", payload[0])
	}
}

// recoverDir is the shared engine behind Recover and Open.
func recoverDir(dir string) (*Recovered, layout, error) {
	start := time.Now()
	lay := layout{logGens: sortedGens(dir, "wal-", ".log")}
	ckptGens := sortedGens(dir, "ckpt-", ".snap")

	// Newest checkpoint with an intact footer wins; an invalid one (torn
	// mid-write before the rename barrier existed, or bit rot) falls
	// back to the previous — whose covering logs still exist unless a
	// later checkpoint deleted them, in which case replay below reports
	// the gap as corruption rather than guessing.
	st := newReplayState()
	for i := len(ckptGens) - 1; i >= 0; i-- {
		cs, err := loadCheckpoint(ckptPath(dir, ckptGens[i]))
		if err == nil {
			st = cs
			lay.ckptGen = ckptGens[i]
			break
		}
	}

	for i, g := range lay.logGens {
		if g < lay.ckptGen {
			continue // fully covered by the checkpoint; pending deletion
		}
		final := i == len(lay.logGens)-1
		tornOff, err := replayLog(logPath(dir, g), st, final)
		if err != nil {
			return nil, lay, fmt.Errorf("wal: replay %s: %w", logPath(dir, g), err)
		}
		if tornOff >= 0 {
			lay.tornGen = g
			lay.tornOff = tornOff
		}
	}

	rec := &Recovered{
		ReplayDuration: time.Since(start),
		CheckpointGen:  lay.ckptGen,
		RecordsApplied: st.applied,
		RecordsSkipped: st.skipped,
		TornTail:       lay.tornGen != 0,
	}
	for _, k := range st.order {
		app := st.apps[k]
		rec.Appenders = append(rec.Appenders, app)
		rec.RecoveredRows += int64(app.Snapshot().NumRows())
	}
	return rec, lay, nil
}

// framesAfterMagic reads the frames of f, whose magic header has just
// been consumed; the file's size bounds what a frame may declare.
func framesAfterMagic(f *os.File) (*frameReader, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return newFrameReader(f, int64(len(fileMagic)), info.Size()), nil
}

// loadCheckpoint replays a checkpoint file into a fresh state. Any
// defect — bad magic, torn frame, missing footer, undecodable record —
// invalidates the whole checkpoint (it is written atomically, so a
// defect means it never finished or has rotted).
func loadCheckpoint(path string) (*replayState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := readMagic(f); err != nil {
		return nil, err
	}
	st := newReplayState()
	fr, err := framesAfterMagic(f)
	if err != nil {
		return nil, err
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return nil, fmt.Errorf("wal: checkpoint %s: missing footer", path)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint %s: %w", path, err)
		}
		if payload[0] == recCheckpointEnd {
			d := recordDecoder{b: payload[1:]}
			n, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if int(n) != len(st.order) {
				return nil, fmt.Errorf("wal: checkpoint %s: footer says %d tables, replayed %d", path, n, len(st.order))
			}
			return st, nil
		}
		if err := st.apply(payload); err != nil {
			return nil, fmt.Errorf("wal: checkpoint %s: %w", path, err)
		}
	}
}

// replayLog folds one log generation into st. In the final log a torn
// or corrupt trailing record is the expected crash artifact: replay
// stops cleanly and returns the valid-prefix length so Open can
// truncate it. Anywhere else the same defect is corruption (the log was
// rotated away from, so it was complete when written).
func replayLog(path string, st *replayState, final bool) (tornOff int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return -1, err
	}
	defer f.Close()
	if err := readMagic(f); err != nil {
		if final {
			return 0, nil // header never fully landed; Open recreates the file
		}
		return -1, err
	}
	fr, err := framesAfterMagic(f)
	if err != nil {
		return -1, err
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return -1, nil
		}
		if err != nil { // errTorn
			if final {
				return fr.off, nil
			}
			return -1, fmt.Errorf("torn record mid-log at offset %d", fr.off)
		}
		// An undecodable body behind a valid CRC is corruption even in
		// the final record position: the CRC proves these exact bytes
		// were written, so the state is unknowable, not merely torn.
		if err := st.apply(payload); err != nil {
			return -1, err
		}
	}
}

func readMagic(f *os.File) error {
	var hdr [len(fileMagic)]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: short magic: %w", err)
	}
	if string(hdr[:]) != fileMagic {
		return fmt.Errorf("wal: bad magic %q", hdr)
	}
	return nil
}
