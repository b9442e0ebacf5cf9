package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"
)

// ErrInjected is the root of every fault the injector raises; test code
// matches it with errors.Is to tell an injected fault from a real one.
var ErrInjected = errors.New("faultfs: injected fault")

// Injector wraps an FS and interrupts its Nth mutating operation. Three
// behaviors compose:
//
//   - FailAt(n): operation n returns an error; later operations succeed.
//     This models a transient or isolated failure (one full disk write,
//     one EIO) and exercises graceful error paths.
//   - CrashAt(n): operation n returns an error and every later mutating
//     operation fails too — the process "died" at that boundary. The
//     directory is then reopened with a clean FS to model the restart.
//   - TornCrashAt(n): like CrashAt, but when operation n is a write, a
//     prefix of the buffer reaches the file first — the torn tail a
//     power cut leaves in an append-only log.
//
// Mutating operations are counted in call order: file writes and syncs,
// creations (OpenFile with os.O_CREATE, CreateTemp, MkdirAll), renames,
// removes, truncates, time stamps and directory syncs. Read-only
// operations pass through uncounted, and Close always passes through — a
// dead process's descriptors close too, and the crash harness must be
// able to release the directory lock before "restarting".
type Injector struct {
	under FS

	mu     sync.Mutex
	ops    int  // mutating operations seen so far
	failAt int  // 1-based ordinal of the operation to fault; 0 = never
	crash  bool // faults are sticky: every later mutating op fails too
	torn   bool // the faulted op, when a write, lands a prefix first
	down   bool // a crash fault has fired
	faults int  // faults raised (≥1 means the plan triggered)
}

// NewInjector wraps under (nil selects the real filesystem).
func NewInjector(under FS) *Injector {
	if under == nil {
		under = OS{}
	}
	return &Injector{under: under}
}

var _ FS = (*Injector)(nil)

// FailAt arms a one-shot failure of the nth mutating operation.
func (in *Injector) FailAt(n int) { in.arm(n, false, false) }

// CrashAt arms a sticky crash at the nth mutating operation.
func (in *Injector) CrashAt(n int) { in.arm(n, true, false) }

// TornCrashAt arms a sticky crash at the nth mutating operation, landing
// a partial write first when that operation is a write.
func (in *Injector) TornCrashAt(n int) { in.arm(n, true, true) }

func (in *Injector) arm(n int, crash, torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failAt, in.crash, in.torn = n, crash, torn
	in.down, in.faults, in.ops = false, 0, 0
}

// Ops reports the number of mutating operations observed so far; a run
// with an unarmed injector measures how many crash points a scenario has.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Down reports whether a crash fault has fired: the simulated process is
// dead and every further mutating operation fails.
func (in *Injector) Down() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down
}

// Faulted reports whether the armed fault actually fired — a crash plan
// whose ordinal exceeds the scenario's operation count never triggers.
func (in *Injector) Faulted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults > 0
}

// step counts one mutating operation and decides its fate. The returned
// prefix is meaningful only for writes: -1 means the op proceeds in full;
// ≥ 0 with a non-nil error means land that many bytes, then fail.
func (in *Injector) step(op, path string, size int) (prefix int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.down {
		in.faults++
		return 0, fmt.Errorf("%w: %s %s after crash", ErrInjected, op, path)
	}
	in.ops++
	if in.failAt == 0 || in.ops != in.failAt {
		return -1, nil
	}
	in.faults++
	if in.crash {
		in.down = true
	}
	prefix = 0
	if in.torn && size > 1 {
		prefix = size / 2
	}
	return prefix, fmt.Errorf("%w: %s %s (op %d)", ErrInjected, op, path, in.ops)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := in.step("mkdir", path, 0); err != nil {
		return err
	}
	return in.under.MkdirAll(path, perm)
}

func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := in.step("create", name, 0); err != nil {
			return nil, err
		}
	}
	f, err := in.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if _, err := in.step("createtemp", dir, 0); err != nil {
		return nil, err
	}
	f, err := in.under.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if _, err := in.step("rename", oldpath, 0); err != nil {
		return err
	}
	return in.under.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if _, err := in.step("remove", name, 0); err != nil {
		return err
	}
	return in.under.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if _, err := in.step("truncate", name, 0); err != nil {
		return err
	}
	return in.under.Truncate(name, size)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) { return in.under.Stat(name) }

func (in *Injector) Glob(pattern string) ([]string, error) { return in.under.Glob(pattern) }

func (in *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if _, err := in.step("chtimes", name, 0); err != nil {
		return err
	}
	return in.under.Chtimes(name, atime, mtime)
}

func (in *Injector) SyncDir(dir string) error {
	if _, err := in.step("syncdir", dir, 0); err != nil {
		return err
	}
	return in.under.SyncDir(dir)
}

// injFile intercepts the two per-file mutating operations, Write and
// Sync. Reads, seeks, stats and closes pass through: the injector models
// a dying writer, not a failing read path.
type injFile struct {
	in *Injector
	f  File
}

func (f *injFile) Write(p []byte) (int, error) {
	prefix, err := f.in.step("write", f.f.Name(), len(p))
	if err != nil {
		if prefix > 0 {
			// Torn write: a prefix of the buffer lands before the
			// "power cut". The caller still sees the failure — the
			// batch is not acknowledged — but the bytes are on disk,
			// exactly the state recovery must cope with.
			_, _ = f.f.Write(p[:prefix])
			_ = f.f.Sync()
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if _, err := f.in.step("sync", f.f.Name(), 0); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injFile) Read(p []byte) (int, error) { return f.f.Read(p) }
func (f *injFile) Close() error               { return f.f.Close() }
func (f *injFile) Stat() (fs.FileInfo, error) { return f.f.Stat() }
func (f *injFile) Name() string               { return f.f.Name() }
