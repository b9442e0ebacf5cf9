package faultfs

import (
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// IOCounts is what one artifact directory has cost in device work.
type IOCounts struct {
	// BytesWritten counts the bytes handed to File.Write.
	BytesWritten int64
	// Fsyncs counts File.Sync and SyncDir calls.
	Fsyncs int64
	// Renames counts files renamed into the directory.
	Renames int64
}

// Counting wraps an FS and counts, per directory, the bytes written, the
// fsyncs (of files and of the directory itself) and the renames into it.
// A directory is named by its basename — under a -data root that is the
// artifact kind: segments, snapshots, indexes, serving. Fsyncs and renames
// are counted as issued, bytes as written. All methods are safe for
// concurrent use.
type Counting struct {
	FS
	mu   sync.Mutex
	dirs map[string]*ioCounters
}

type ioCounters struct {
	bytes, fsyncs, renames atomic.Int64
}

// NewCounting wraps under (nil selects the real filesystem).
func NewCounting(under FS) *Counting {
	if under == nil {
		under = OS{}
	}
	return &Counting{FS: under, dirs: make(map[string]*ioCounters)}
}

// of returns the counters of directory dir.
func (c *Counting) of(dir string) *ioCounters {
	name := filepath.Base(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.dirs[name]
	if n == nil {
		n = &ioCounters{}
		c.dirs[name] = n
	}
	return n
}

// Counts returns the totals so far, keyed by directory basename.
func (c *Counting) Counts() map[string]IOCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]IOCounts, len(c.dirs))
	for name, n := range c.dirs {
		out[name] = IOCounts{BytesWritten: n.bytes.Load(), Fsyncs: n.fsyncs.Load(), Renames: n.renames.Load()}
	}
	return out
}

// MkdirAll lists the directory from its creation on, so a kind nothing is
// ever written to reads zero rather than being absent.
func (c *Counting) MkdirAll(path string, perm fs.FileMode) error {
	c.of(path)
	return c.FS.MkdirAll(path, perm)
}

func (c *Counting) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.of(filepath.Dir(name))}, nil
}

func (c *Counting) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.of(dir)}, nil
}

func (c *Counting) Rename(oldpath, newpath string) error {
	c.of(filepath.Dir(newpath)).renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *Counting) SyncDir(dir string) error {
	c.of(dir).fsyncs.Add(1)
	return c.FS.SyncDir(dir)
}

// countingFile counts the two per-file operations that reach the device.
type countingFile struct {
	File
	n *ioCounters
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.n.fsyncs.Add(1)
	return f.File.Sync()
}
