package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SnapshotStore abstracts where checkpoints live, so the local
// atomic-rename file store below can later be joined by an
// object-store implementation (upload to a staging key, then move the
// "current" pointer) without touching recovery: db.go only ever
// publishes through Put and recovers through Get.
type SnapshotStore interface {
	// Put atomically publishes a new current snapshot: write streams
	// the bytes, and either the complete new snapshot becomes current
	// or the previous one survives — never a torn mix.
	Put(write func(io.Writer) error) error
	// Get returns the current snapshot's bytes, a release function for
	// their backing storage (e.g. an munmap — data must not be used
	// after release), and ok=false when no snapshot exists yet.
	Get() (data []byte, release func() error, ok bool, err error)
}

// snapshotFile is the published snapshot name inside a data dir; the
// ".tmp" sibling only ever holds an in-progress Put.
const (
	snapshotFile    = "snapshot.rspq"
	snapshotTmpFile = "snapshot.rspq.tmp"
	walFile         = "wal.rspq"
)

// LocalStore keeps the snapshot in a directory on a local filesystem,
// publishing with the classic write-tmp → fsync → rename → fsync-dir
// sequence, and serving reads through a private read-only mmap when
// the platform supports it (mmap_linux.go) so a multi-GB checkpoint
// costs page-table setup, not a read+copy, and unmodified pages stay
// shared with the page cache.
type LocalStore struct {
	fsys fs
	dir  string
	mmap bool
}

// newLocalStoreFS returns a store over dir on fsys, without mmap: Open
// turns it on for the real filesystem (an injected fs has no real files
// to map).
func newLocalStoreFS(fsys fs, dir string) *LocalStore {
	return &LocalStore{fsys: fsys, dir: dir}
}

func (s *LocalStore) path(name string) string { return filepath.Join(s.dir, name) }

// Put publishes a snapshot atomically. Crash safety at every point:
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

// Get returns the current snapshot, preferring a read-only mapping.
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
