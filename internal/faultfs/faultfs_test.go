package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// scenario performs a fixed little I/O dance: create a file, write twice,
// sync, rename it, and sync the directory. It returns the first error.
func scenario(fsys FS, dir string) error {
	if err := fsys.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil {
		return err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, "d", "a"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write([]byte("world")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(filepath.Join(dir, "d", "a"), filepath.Join(dir, "d", "b")); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Join(dir, "d"))
}

// TestInjectorCountsAndCrashes pins the injector's contract: an unarmed
// run counts the scenario's mutating ops; crashing at each ordinal faults
// exactly there and stays down; the op count is stable run to run.
func TestInjectorCountsAndCrashes(t *testing.T) {
	in := NewInjector(OS{})
	if err := scenario(in, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	total := in.Ops()
	// mkdir, create, write, write, sync, rename, syncdir
	if total != 7 {
		t.Fatalf("scenario counted %d mutating ops, want 7", total)
	}

	for n := 1; n <= total; n++ {
		in := NewInjector(OS{})
		in.CrashAt(n)
		err := scenario(in, t.TempDir())
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("crash at op %d: scenario err = %v, want ErrInjected", n, err)
		}
		if !in.Down() || !in.Faulted() {
			t.Fatalf("crash at op %d: Down=%v Faulted=%v, want true/true", n, in.Down(), in.Faulted())
		}
		// Once down, everything mutating fails.
		if err := in.Remove("whatever"); !errors.Is(err, ErrInjected) {
			t.Fatalf("post-crash Remove err = %v, want ErrInjected", err)
		}
	}

	// A plan beyond the scenario never fires.
	in = NewInjector(OS{})
	in.CrashAt(total + 1)
	if err := scenario(in, t.TempDir()); err != nil {
		t.Fatalf("crash beyond the scenario faulted: %v", err)
	}
	if in.Faulted() {
		t.Fatal("crash plan beyond the op count reported Faulted")
	}
}

// TestInjectorTornWrite pins the torn-write artifact: the faulted write
// reports failure, but half the buffer reaches the file.
func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.TornCrashAt(3) // ops: mkdir, create, write("hello ")
	err := scenario(in, dir)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("scenario err = %v, want ErrInjected", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "d", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hel" {
		t.Fatalf("torn write landed %q, want the 3-byte prefix %q", got, "hel")
	}
}

// TestInjectorFailOnce pins the transient-failure mode: the faulted op
// fails, the scenario run after it succeeds untouched.
func TestInjectorFailOnce(t *testing.T) {
	in := NewInjector(OS{})
	in.FailAt(5) // the file sync
	if err := scenario(in, t.TempDir()); !errors.Is(err, ErrInjected) {
		t.Fatalf("scenario err = %v, want ErrInjected", err)
	}
	if in.Down() {
		t.Fatal("FailAt took the injector down; only CrashAt may")
	}
	// Later ops succeed: a fresh scenario against the same injector (the
	// one-shot plan already fired) runs clean.
	if err := scenario(in, t.TempDir()); err != nil {
		t.Fatalf("run after a one-shot fault: %v", err)
	}
}

// TestCountingAttributesByDirectory pins the accounting scheme: bytes,
// fsyncs (file and directory) and renames land under the basename of the
// directory they touched — a temp file under the directory it was created
// in, a rename under its destination — and an injector above the counter
// sees the same operations, so a run can be crashed and counted at once.
func TestCountingAttributesByDirectory(t *testing.T) {
	dir := t.TempDir()
	c := NewCounting(nil)
	if err := scenario(NewInjector(c), dir); err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll(filepath.Join(dir, "e"), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := c.CreateTemp(filepath.Join(dir, "e"), "*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("temp")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(tmp.Name(), filepath.Join(dir, "d", "c")); err != nil {
		t.Fatal(err)
	}
	got := c.Counts()
	want := map[string]IOCounts{
		"d": {BytesWritten: int64(len("hello world")), Fsyncs: 2, Renames: 2},
		"e": {BytesWritten: int64(len("temp"))},
	}
	if len(got) != len(want) || got["d"] != want["d"] || got["e"] != want["e"] {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
}
