package main

import (
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// ioCounts is what one artifact directory cost in device work.
type ioCounts struct {
	Bytes, Fsyncs, Renames int64
}

type ioCounters struct {
	bytes, fsyncs, renames atomic.Int64
}

// countingFS is the real filesystem behind internal/persist's seam, with
// bytes written, fsyncs and renames counted per artifact directory
// (segments, snapshots, indexes, serving) — the layer-level truth for
// "what did that commit cost".
type countingFS struct {
	faultfs.FS
	mu  sync.Mutex
	dir map[string]*ioCounters
}

func newCountingFS() *countingFS {
	return &countingFS{FS: faultfs.OS{}, dir: map[string]*ioCounters{}}
}

// of returns the counters of the artifact directory holding path.
func (c *countingFS) of(dir string) *ioCounters {
	name := filepath.Base(dir)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir[name] == nil {
		c.dir[name] = &ioCounters{}
	}
	return c.dir[name]
}

// snapshot returns the counts so far, per directory plus their sum under "".
func (c *countingFS) snapshot() map[string]ioCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]ioCounts{}
	var sum ioCounts
	for name, n := range c.dir {
		v := ioCounts{n.bytes.Load(), n.fsyncs.Load(), n.renames.Load()}
		out[name] = v
		sum.Bytes += v.Bytes
		sum.Fsyncs += v.Fsyncs
		sum.Renames += v.Renames
	}
	out[""] = sum
	return out
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.of(filepath.Dir(name))}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.of(dir)}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.of(filepath.Dir(newpath)).renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	c.of(dir).fsyncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	faultfs.File
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
