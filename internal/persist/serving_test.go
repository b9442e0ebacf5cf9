package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blockindex"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/serving"
)

// servingFixture builds a two-cluster serving index over one collection.
func servingFixture(t *testing.T, epoch, version uint64, knobs string) *serving.Index {
	t.Helper()
	cols := []*corpus.Collection{
		{Name: "smith", NumPersonas: 2, Docs: []corpus.Document{
			{ID: 0, URL: "http://a/0", Text: "one", PersonaID: 0},
			{ID: 1, URL: "http://a/1", Text: "two", PersonaID: 0},
			{ID: 2, URL: "http://a/2", Text: "three", PersonaID: 1},
		}},
	}
	blocks := []serving.BlockResolution{{
		Fingerprint: 0xFEED,
		Name:        "smith",
		Members: []blockindex.DocRef{
			{Col: 0, Doc: 0}, {Col: 0, Doc: 1}, {Col: 0, Doc: 2},
		},
		Resolution: &core.Resolution{Labels: []int{0, 0, 1}, Source: "test"},
	}}
	x := serving.Build(nil, epoch, version, knobs, cols, blocks)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	return x
}

// servingCommits builds a chain of committed serving indexes under one
// configuration: eight collections of ten documents, then one document
// appended to one collection per commit — exactly one dirty block each, the
// shape of a delta resolve — with every third commit repeated as a
// no-change publish. commits[i] has epoch i+1.
func servingCommits(t *testing.T, knobs string, n int) []*serving.Index {
	t.Helper()
	const ncols = 8
	docs := make([]int, ncols)
	for i := range docs {
		docs[i] = 10
	}
	var out []*serving.Index
	var prev *serving.Index
	for len(out) < n {
		if i := len(out); i > 0 && i%3 != 0 {
			docs[i%ncols]++
		}
		cols := make([]*corpus.Collection, ncols)
		blocks := make([]serving.BlockResolution, ncols)
		total := 0
		for ci := range cols {
			name := fmt.Sprintf("person %d", ci)
			col := &corpus.Collection{Name: name}
			br := serving.BlockResolution{Fingerprint: uint64(ci+1)<<32 | uint64(docs[ci]), Name: name,
				Resolution: &core.Resolution{Source: "test"}}
			for pos := 0; pos < docs[ci]; pos++ {
				col.Docs = append(col.Docs, corpus.Document{ID: pos, URL: fmt.Sprintf("http://example.org/%d/%d", ci, pos)})
				br.Members = append(br.Members, blockindex.DocRef{Col: ci, Doc: pos})
				br.Resolution.Labels = append(br.Resolution.Labels, pos%2)
			}
			cols[ci], blocks[ci] = col, br
			total += docs[ci]
		}
		x := serving.Build(prev, uint64(len(out)+1), uint64(total), knobs, cols, blocks)
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
		prev = x
	}
	return out
}

// TestServingDirAppendsCommits pins what one commit writes. The first save
// of a key creates its file in full; every later commit that extends it
// appends one record — one write, one fsync, no temp file, no rename, no
// directory sync — sized by the blocks that changed, a no-change publish
// by its header alone; once the appended bytes would outgrow the base the
// file is rewritten; and whatever another process (or a failed save) left
// is replaced, never appended to. After every save the file loads to the
// index committed.
func TestServingDirAppendsCommits(t *testing.T) {
	tmp := t.TempDir()
	counts := faultfs.NewCounting(nil)
	open := func() *ServingDir {
		t.Helper()
		dir, err := newServingDir(tmp, Options{FS: counts, Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dir := open()
	base := filepath.Base(tmp)
	// save commits x and returns what the commit cost.
	save := func(x *serving.Index) faultfs.IOCounts {
		t.Helper()
		before := counts.Counts()[base]
		if err := dir.SaveServing("k", x); err != nil {
			t.Fatal(err)
		}
		after := counts.Counts()[base]
		got, err := dir.LoadServing("k")
		if err != nil || got == nil || got.Epoch() != x.Epoch() || got.StoreVersion() != x.StoreVersion() ||
			got.Docs() != x.Docs() || got.Clusters() != x.Clusters() || got.Validate() != nil {
			t.Fatalf("after committing epoch %d the file loads to (%v, %v)", x.Epoch(), got, err)
		}
		return faultfs.IOCounts{BytesWritten: after.BytesWritten - before.BytesWritten,
			Fsyncs: after.Fsyncs - before.Fsyncs, Renames: after.Renames - before.Renames}
	}
	isFull := func(c faultfs.IOCounts) bool { return c.Renames == 1 && c.Fsyncs == 2 }
	isAppend := func(c faultfs.IOCounts) bool { return c.Renames == 0 && c.Fsyncs == 1 }

	commits := servingCommits(t, "k", 40)
	first := save(commits[0])
	if !isFull(first) {
		t.Fatalf("first save of a key cost %+v, want a full save (file fsync, rename, directory fsync)", first)
	}
	appended, compactions := int64(0), 0
	for i, x := range commits[1:] {
		c := save(x)
		switch {
		case isAppend(c):
			appended += c.BytesWritten
			if appended > first.BytesWritten {
				t.Fatalf("commit %d: %d bytes appended behind a base of %d", i+1, appended, first.BytesWritten)
			}
			if noChange := (i+1)%3 == 0; noChange && c.BytesWritten > 64 {
				t.Errorf("commit %d: a no-change publish appended %d bytes, want a header", i+1, c.BytesWritten)
			} else if !noChange && c.BytesWritten > first.BytesWritten/3 {
				t.Errorf("commit %d: one dirty block of eight appended %d bytes, the whole index is %d", i+1, c.BytesWritten, first.BytesWritten)
			}
		case isFull(c):
			if appended < first.BytesWritten/2 {
				t.Errorf("commit %d: the file was rewritten after only %d appended bytes (base %d)", i+1, appended, first.BytesWritten)
			}
			appended, first = 0, c
			compactions++
		default:
			t.Fatalf("commit %d cost %+v: neither an append nor a full save", i+1, c)
		}
	}
	if compactions == 0 {
		t.Fatal("40 commits never compacted the file")
	}
	if orphans, _ := filepath.Glob(filepath.Join(tmp, "*.tmp")); len(orphans) != 0 {
		t.Errorf("temp files left behind: %v", orphans)
	}
	if dir.TornTails() != 0 || dir.Quarantined() != 0 {
		t.Errorf("clean commits reported %d torn tails, %d quarantined files", dir.TornTails(), dir.Quarantined())
	}

	more := servingCommits(t, "k", 46)[40:]
	// A new process has no memory of the key: its first save is a full one.
	if c := save(more[0]); !isAppend(c) {
		t.Fatalf("commit behind a fresh full save cost %+v, want an append", c)
	}
	dir = open()
	if c := save(more[1]); !isFull(c) {
		t.Errorf("first save by a new ServingDir cost %+v, want a full save", c)
	}
	// A file that vanished (pruned, quarantined) is written anew.
	if err := os.Remove(dir.path("k")); err != nil {
		t.Fatal(err)
	}
	if c := save(more[2]); !isFull(c) {
		t.Errorf("save after the file vanished cost %+v, want a full save", c)
	}
	// Another configuration cannot be expressed as a record.
	if c := save(servingCommits(t, "other knobs", 1)[0]); !isFull(c) {
		t.Errorf("save of an index under other knobs cost %+v, want a full save", c)
	}
	// A failed append leaves the tail unknown: the save after it is full.
	if c := save(more[3]); !isFull(c) { // back under "k"
		t.Fatalf("save back under the first knobs cost %+v, want a full save", c)
	}
	in := faultfs.NewInjector(counts)
	dir.fsys = in
	in.FailAt(1) // the record's write
	if err := dir.SaveServing("k", more[4]); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("SaveServing with a failing write = %v", err)
	}
	if c := save(more[5]); !isFull(c) {
		t.Errorf("save after a failed append cost %+v, want a full save", c)
	}
}

func TestServingDirRoundTrip(t *testing.T) {
	dir, err := NewServingDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Nothing saved: both load paths answer (nil, nil).
	if x, err := dir.LoadServing("knobs-a"); err != nil || x != nil {
		t.Fatalf("LoadServing on empty dir = (%v, %v), want (nil, nil)", x, err)
	}
	if x, err := dir.LoadLatestServing(); err != nil || x != nil {
		t.Fatalf("LoadLatestServing on empty dir = (%v, %v), want (nil, nil)", x, err)
	}

	saved := servingFixture(t, 3, 7, "knobs-a")
	if err := dir.SaveServing("knobs-a", saved); err != nil {
		t.Fatal(err)
	}
	got, err := dir.LoadServing("knobs-a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 3 || got.StoreVersion() != 7 || got.Knobs() != "knobs-a" {
		t.Fatalf("reloaded index = epoch %d version %d knobs %q", got.Epoch(), got.StoreVersion(), got.Knobs())
	}
	if got.Clusters() != saved.Clusters() || got.Docs() != saved.Docs() {
		t.Fatalf("shape changed: %d/%d clusters, %d/%d docs",
			got.Clusters(), saved.Clusters(), got.Docs(), saved.Docs())
	}
	c := got.DocEntity("smith", 1)
	if c == nil || len(c.Members) != 2 {
		t.Fatalf("DocEntity after reload = %+v", c)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}

	// A different key loads nothing — files are per configuration.
	if x, err := dir.LoadServing("knobs-b"); err != nil || x != nil {
		t.Fatalf("LoadServing with other key = (%v, %v), want (nil, nil)", x, err)
	}
}

func TestServingDirLatestWinsAndSkipsDamage(t *testing.T) {
	tmp := t.TempDir()
	dir, err := NewServingDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.SaveServing("old", servingFixture(t, 1, 1, "old")); err != nil {
		t.Fatal(err)
	}
	if err := dir.SaveServing("new", servingFixture(t, 2, 2, "new")); err != nil {
		t.Fatal(err)
	}
	// Make the mtime ordering unambiguous on coarse-grained filesystems.
	past := time.Now().Add(-time.Hour)
	sum := dir.path("old")
	if err := os.Chtimes(sum, past, past); err != nil {
		t.Fatal(err)
	}

	got, err := dir.LoadLatestServing()
	if err != nil {
		t.Fatal(err)
	}
	if got.Knobs() != "new" {
		t.Fatalf("latest = %q, want the most recently saved", got.Knobs())
	}

	// Corrupt the newest file: LoadLatestServing quarantines it and falls
	// back to the older one.
	newPath := dir.path("new")
	body, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-5] ^= 0xFF
	if err := os.WriteFile(newPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = dir.LoadLatestServing()
	if err != nil {
		t.Fatal(err)
	}
	if got.Knobs() != "old" {
		t.Fatalf("after damage, latest = %q, want the surviving older file", got.Knobs())
	}
	if dir.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", dir.Quarantined())
	}
	matches, err := filepath.Glob(filepath.Join(tmp, "*.corrupt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("corrupt files = %v (%v), want exactly one", matches, err)
	}
}

func TestServingDirRejectsDamage(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string)
		want   error
	}{
		{"bit flip in payload", func(t *testing.T, path string) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body[len(body)-6] ^= 0x01
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}, serving.ErrCodecCorrupt},
		{"truncated tail", func(t *testing.T, path string) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body[:len(body)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}, serving.ErrCodecCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := NewServingDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := dir.SaveServing("k", servingFixture(t, 1, 1, "k")); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, dir.path("k"))
			if _, err := dir.LoadServing("k"); !errors.Is(err, tc.want) {
				t.Fatalf("LoadServing after %s = %v, want %v", tc.name, err, tc.want)
			}
			if dir.Quarantined() != 1 {
				t.Fatalf("quarantined = %d, want 1", dir.Quarantined())
			}
			// The damaged file was renamed aside, so the next load is a
			// clean miss and the next save starts fresh.
			if x, err := dir.LoadServing("k"); err != nil || x != nil {
				t.Fatalf("post-quarantine load = (%v, %v), want (nil, nil)", x, err)
			}
		})
	}

	// Damage behind the base is not the file's end: the records before it
	// load, the file stays in place, and the event is logged and counted.
	commits := servingCommits(t, "k", 3)
	for _, tc := range []struct {
		name   string
		mangle func(body []byte) []byte
	}{
		{"bit flip in the last record", func(b []byte) []byte { b[len(b)-6] ^= 0x01; return b }},
		{"last record cut short", func(b []byte) []byte { return b[:len(b)-3] }},
		{"garbage behind the last record", func(b []byte) []byte { return append(b, "not a record"...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged []string
			dir, err := newServingDir(t.TempDir(), Options{FS: faultfs.OS{},
				Log: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range commits {
				if err := dir.SaveServing("k", x); err != nil {
					t.Fatal(err)
				}
			}
			path := dir.path("k")
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(body), 0o644); err != nil {
				t.Fatal(err)
			}
			// What survives is the commit before the damaged record — or,
			// for garbage appended behind three good records, all three.
			wantEpoch := uint64(2)
			if strings.HasPrefix(tc.name, "garbage") {
				wantEpoch = 3
			}
			got, err := dir.LoadLatestServing()
			if err != nil || got == nil || got.Epoch() != wantEpoch || got.Validate() != nil {
				t.Fatalf("LoadLatestServing = (%v, %v), want the index committed at epoch %d", got, err, wantEpoch)
			}
			if dir.TornTails() != 1 || dir.Quarantined() != 0 || len(logged) != 1 || !strings.Contains(logged[0], "commit record at offset") {
				t.Errorf("torn tails %d, quarantined %d, logged %q; want the event counted once, logged once, the file kept",
					dir.TornTails(), dir.Quarantined(), logged)
			}
			// The next process's first commit replaces the file, tail and all.
			next, err := NewServingDir(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			if err := next.SaveServing("k", commits[2]); err != nil {
				t.Fatal(err)
			}
			if got, err := next.LoadServing("k"); err != nil || got.Epoch() != 3 || next.TornTails() != 0 {
				t.Fatalf("after the rewrite LoadServing = (%v, %v), %d torn tails", got, err, next.TornTails())
			}
		})
	}

	// A key mismatch (hash collision or renamed file) is damage too.
	dir, err := NewServingDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.SaveServing("real", servingFixture(t, 1, 1, "real")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir.path("real"), dir.path("imposter")); err != nil {
		t.Fatal(err)
	}
	_, err = dir.LoadServing("imposter")
	if err == nil || !strings.Contains(err.Error(), "was saved for configuration") {
		t.Fatalf("key-mismatch load = %v, want a key mismatch error", err)
	}
}
