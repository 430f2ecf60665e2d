package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapshotFile is the published snapshot name inside a data dir; the
// ".tmp" sibling only ever holds an in-progress Put.
const (
	snapshotFile    = "snapshot.rspq"
	snapshotTmpFile = "snapshot.rspq.tmp"
	walFile         = "wal.rspq"
)

// LocalStore keeps the snapshot in a directory on a local filesystem:
// DB publishes through Put and recovers through Get. Put is the classic
// write-tmp → fsync → rename → fsync-dir sequence, and Get reads
// through a private read-only mmap when the platform supports it
// (mmap_linux.go), so a multi-GB checkpoint costs page-table setup, not
// a read+copy, and unmodified pages stay shared with the page cache.
type LocalStore struct {
	fsys fs
	dir  string
	mmap bool
}

// newLocalStore returns a store over dir on fsys, mapping the snapshot
// when fsys is the OS filesystem (an injected fs has no real files to
// map).
func newLocalStore(fsys fs, dir string) *LocalStore {
	_, isOS := fsys.(osFS)
	return &LocalStore{fsys: fsys, dir: dir, mmap: isOS}
}

func (s *LocalStore) path(name string) string { return filepath.Join(s.dir, name) }

// Put atomically publishes a new current snapshot, which write streams:
// either the complete new snapshot becomes current or the previous one
// survives, never a torn mix. Crash safety at every point:
// before the rename the published name is untouched; the rename is
// atomic on POSIX filesystems; and the directory fsync makes it
// durable — a crash in between can at worst resurrect the previous
// snapshot, which the WAL's seq-gated replay then catches up.
func (s *LocalStore) Put(write func(io.Writer) error) error {
	tmp := s.path(snapshotTmpFile)
	f, err := s.fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, s.path(snapshotFile)); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	return s.fsys.SyncDir(s.dir)
}

// Get returns the current snapshot's bytes, preferring a read-only
// mapping, with a release function for their backing storage (the
// munmap: the bytes must not be used after it), and ok=false when no
// snapshot exists yet.
func (s *LocalStore) Get() ([]byte, func() error, bool, error) {
	p := s.path(snapshotFile)
	if s.mmap {
		data, release, err := mmapFile(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, nil, false, nil
			}
			return nil, nil, false, fmt.Errorf("persist: map snapshot: %w", err)
		}
		return data, release, true, nil
	}
	data, err := s.fsys.ReadFile(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, false, nil
		}
		return nil, nil, false, err
	}
	return data, func() error { return nil }, true, nil
}
