package store

import (
	"io"
	"io/fs"
	"os"
)

// FS is the narrow filesystem surface the store commits through. Every
// durability-relevant operation the store performs — temp-file creation,
// writes, fsync, rename, directory fsync, removal — goes through this
// interface, which is what makes the commit protocol testable: the real
// implementation (OS) talks to the kernel, while the chaos implementation
// (ChaosFS, compiled under -tags storechaos) models volatile-vs-durable
// state explicitly and injects scripted faults and crashes at every
// operation boundary.
//
// The durability contract the store relies on, and which implementations
// must honor:
//
//   - File.Sync makes the file's current content survive a crash.
//   - Rename atomically replaces the target name, but the *name change*
//     survives a crash only after SyncDir of the parent directory.
//   - A file whose name was made durable but whose content was never
//     synced may read back empty after a crash (the classic zero-length
//     file), which is why the store syncs file content before every rename.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a new unique file in dir whose name begins with
	// pattern, returning the open handle and its path.
	CreateTemp(dir, pattern string) (File, string, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
	Chmod(path string, mode os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	// SyncDir fsyncs a directory, making its current entries (renames,
	// removals, newly created names) durable.
	SyncDir(dir string) error
}

// File is a writable file handle inside an FS.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)      { return os.Stat(path) }
func (osFS) Chmod(path string, mode os.FileMode) error  { return os.Chmod(path, mode) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
