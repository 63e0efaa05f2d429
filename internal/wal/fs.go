package wal

import (
	"io"
	"os"
)

// fsys is every way the log reaches the disk. osFS, the operating system,
// is the only implementation outside tests; a test substitutes one that
// fails an operation on cue or keeps apart what a crash would leave.
type fsys interface {
	// open opens name as os.OpenFile does, creating with mode 0644, and
	// reports the file's size when opened.
	open(name string, flag int) (file, int64, error)
	truncate(name string, size int64) error
	rename(from, to string) error
	remove(name string) error
	mkdirAll(dir string) error
	// list returns the names of dir's entries.
	list(dir string) ([]string, error)
	// syncDir makes dir's entries — creates, renames, removes — durable.
	syncDir(dir string) error
}

// file is an open log or checkpoint file.
type file interface {
	io.ReadWriteCloser
	Sync() error
}

type osFS struct{}

func (osFS) open(name string, flag int) (file, int64, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

func (osFS) truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) rename(from, to string) error           { return os.Rename(from, to) }
func (osFS) remove(name string) error               { return os.Remove(name) }
func (osFS) mkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }

func (osFS) list(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
