// Package faultfs is the filesystem seam under the persist layer: a small
// interface covering exactly the operations durable storage performs
// (create, write, sync, rename, remove, truncate, directory sync), a
// pass-through implementation backed by the real filesystem, and an
// injecting implementation that can fail or crash at the Nth mutating
// operation — including torn (partial) writes, the artifact a power cut
// leaves in an append-only log. The injector is what lets the crash
// harness stop an ingest run at every single I/O boundary, reopen the
// directory, and prove that no acknowledged batch is ever lost.
package faultfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// FS is the filesystem surface the persist layer writes through. Every
// mutating operation of the journal, snapshot and index directories goes
// through one of these methods, so a fault-injecting implementation sees
// — and can interrupt — each durability-relevant step.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens a file with the given flags; creation (os.O_CREATE)
	// counts as a mutating operation for injectors.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a unique temporary file in dir, as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts the named file to size bytes.
	Truncate(name string, size int64) error
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
	// Glob lists the files matching pattern, as filepath.Glob.
	Glob(pattern string) ([]string, error)
	// Chtimes sets a file's access and modification times.
	Chtimes(name string, atime, mtime time.Time) error
	// SyncDir fsyncs a directory so entries created or renamed into it
	// survive a power loss.
	SyncDir(dir string) error
}

// File is one open file.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Stat describes the open file.
	Stat() (fs.FileInfo, error)
	// Name reports the path the file was opened with.
	Name() string
}

// OS is the pass-through implementation over the real filesystem.
type OS struct{}

var _ FS = OS{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (OS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
