// Package chaos is the fault-injection layer for the profile store's
// durability machinery. It provides:
//
//   - FS/File: the narrow filesystem surface the write-ahead log and
//     snapshot store use, with an OSFS passthrough for production;
//   - MemFS: an in-memory filesystem that models the page cache — data
//     and directory entries become durable only on Sync/SyncDir, and
//     Crash discards (or tears) everything unsynced, exactly what a
//     kill -9 or power loss does to a real disk;
//   - Injector: a deterministic, seeded wrapper that makes any FS fail
//     with short writes, fsync errors, failed or torn renames, and open
//     errors, usable from tests and via ilprofd's -chaos-fs flag;
//   - RoundTripper: the HTTP-side counterpart injecting connection
//     resets, timeouts, and 5xx responses into any http.Client;
//   - Proc: a subprocess supervisor for kill -9 tests of a real daemon.
//
// Everything is seeded: the same seed and operation sequence produces
// the same faults, so failing chaos schedules replay exactly.
package chaos

import (
	"io"
	"os"
)

// File is the handle surface the durability layer needs: sequential
// reads, appended or truncating writes, an fsync barrier, and close.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to durable storage. Until it returns
	// nil, a crash may discard or tear any write since the last Sync.
	Sync() error
}

// FS is the filesystem surface the WAL and snapshot store are written
// against. Implementations: OSFS (production), MemFS (crash-simulating
// tests), Injector (fault wrapper over either).
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Create truncates or creates a file for writing.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename replaces newpath with oldpath. Like the POSIX call it is
	// atomic in the namespace, but the new directory entry is durable
	// only after SyncDir — and a fault layer may tear it.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Size returns the file's current length in bytes.
	Size(name string) (int64, error)
	// SyncDir makes the directory's entries (creates, renames, removes)
	// durable.
	SyncDir(dir string) error
}

// OSFS is the passthrough FS backed by the real filesystem.
type OSFS struct{}

func (OSFS) Open(name string) (File, error)   { return os.Open(name) }
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }

func (OSFS) Size(name string) (int64, error) {
	info, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// SyncDir fsyncs the directory so renames and creates survive a crash.
// Platforms that refuse to sync directories are tolerated: the error is
// swallowed, matching what robust databases do on such systems.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// EINVAL/EBADF on exotic filesystems; nothing more we can do.
		return nil
	}
	return nil
}
