package wal

import (
	"errors"
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
	// TornTail reports whether the final log ended in a torn or corrupt
	// record (the expected state after a crash mid-write); recovery
	// stopped cleanly before it.
	TornTail bool
}

// layout describes what recovery found on disk, for Open to decide how
// to continue the log.
type layout struct {
	ckptGen  uint64   // newest valid checkpoint generation (0: none)
	lastGen  uint64   // newest replayed log generation (0: none)
	lastEnd  int64    // valid-prefix length of that log
	walBytes int64    // valid-prefix lengths of the replayed logs, summed
	tmps     []string // checkpoint temp files a crash left behind
}

// replayState accumulates tables as records are applied, mirroring the
// catalog's map + insertion order.
type replayState struct {
	apps  map[string]*table.Appender
	order []string
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
		return nil
	default:
		return fmt.Errorf("wal: unknown record type %d", payload[0])
	}
}

// recoverDir rebuilds the tables dir holds, for Open.
func recoverDir(fs fsys, dir string) (*Recovered, layout, error) {
	start := time.Now()
	files, err := listDir(fs, dir)
	if err != nil {
		return nil, layout{}, err
	}
	lay := layout{tmps: files.tmps}

	// Newest checkpoint with an intact footer wins; an invalid one (torn
	// mid-write before the rename barrier existed, or bit rot) falls
	// back to the previous — whose covering logs still exist unless a
	// later checkpoint deleted them, in which case replay below reports
	// the gap as corruption rather than guessing. A column the decoder
	// refuses (mixed kinds, a time out of range) is intact, not torn: it
	// fails recovery rather than lose what its checkpoint holds.
	st := newReplayState()
	for i := len(files.ckpts) - 1; i >= 0; i-- {
		cs, err := loadCheckpoint(fs, ckptPath(dir, files.ckpts[i]))
		var mixed *MixedColumnError
		var cell *table.CellError
		if errors.As(err, &mixed) || errors.As(err, &cell) {
			return nil, lay, err
		}
		if err == nil {
			st = cs
			lay.ckptGen = files.ckpts[i]
			break
		}
	}

	var torn bool
	for i, g := range files.logs {
		if g < lay.ckptGen {
			continue // fully covered by the checkpoint; pending deletion
		}
		end, t, err := replayLog(fs, logPath(dir, g), st, i == len(files.logs)-1)
		if err != nil {
			return nil, lay, fmt.Errorf("wal: replay %s: %w", logPath(dir, g), err)
		}
		lay.lastGen, lay.lastEnd, torn = g, end, t
		lay.walBytes += end
	}

	rec := &Recovered{
		ReplayDuration: time.Since(start),
		CheckpointGen:  lay.ckptGen,
		TornTail:       torn,
	}
	for _, k := range st.order {
		app := st.apps[k]
		rec.Appenders = append(rec.Appenders, app)
		rec.RecoveredRows += int64(app.Snapshot().NumRows())
	}
	return rec, lay, nil
}

// errMagic marks a file too short for the magic header, or holding
// another.
var errMagic = errors.New("wal: short or bad magic")

// openFrames opens path and checks its magic, returning the file and a
// reader over its frames; the file's size bounds what a frame may declare.
func openFrames(fs fsys, path string) (*frameReader, file, error) {
	f, size, err := fs.open(path, os.O_RDONLY)
	if err != nil {
		return nil, nil, err
	}
	var hdr [len(fileMagic)]byte
	_, err = io.ReadFull(f, hdr[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF || err == nil && string(hdr[:]) != fileMagic {
		err = fmt.Errorf("%w in %s", errMagic, path)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return newFrameReader(f, int64(len(fileMagic)), size), f, nil
}

// loadCheckpoint replays a checkpoint file into a fresh state. Any
// defect — bad magic, torn frame, missing footer, undecodable record —
// invalidates the whole checkpoint (it is written atomically, so a
// defect means it never finished or has rotted).
func loadCheckpoint(fs fsys, path string) (*replayState, error) {
	fr, f, err := openFrames(fs, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := newReplayState()
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

// replayLog folds one log generation into st and returns the length of
// its valid prefix. In the final log a torn or corrupt trailing record is
// the expected crash artifact: replay stops cleanly before it and reports
// the log torn, so Open can truncate it. Anywhere else the same defect is
// corruption (the log was rotated away from, so it was complete when
// written).
func replayLog(fs fsys, path string, st *replayState, final bool) (end int64, torn bool, err error) {
	fr, f, err := openFrames(fs, path)
	if final && errors.Is(err, errMagic) {
		return 0, true, nil // header never fully landed; Open recreates the file
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return fr.off, false, nil
		}
		if err != nil { // errTorn
			if final {
				return fr.off, true, nil
			}
			return 0, false, fmt.Errorf("torn record mid-log at offset %d", fr.off)
		}
		// An undecodable body behind a valid CRC is corruption even in
		// the final record position: the CRC proves these exact bytes
		// were written, so the state is unknowable, not merely torn.
		if err := st.apply(payload); err != nil {
			return 0, false, err
		}
	}
}
