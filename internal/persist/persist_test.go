package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// testBatches builds three append-only ingest batches over two growing
// collections.
func testBatches(t *testing.T) [][]*corpus.Collection {
	t.Helper()
	cfgs := []corpus.CollectionConfig{
		{Name: "rivera", NumDocs: 12, NumPersonas: 3, Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 21},
		{Name: "cohen", NumDocs: 9, NumPersonas: 2, Noise: 0.3, MissingInfo: 0.3, Spurious: 0.1, Seed: 33},
	}
	var cols []*corpus.Collection
	for _, cfg := range cfgs {
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, col)
	}
	var batches [][]*corpus.Collection
	const n = 3
	for k := 0; k < n; k++ {
		var batch []*corpus.Collection
		for _, col := range cols {
			lo, hi := len(col.Docs)*k/n, len(col.Docs)*(k+1)/n
			batch = append(batch, &corpus.Collection{
				Name:        col.Name,
				Docs:        append([]corpus.Document(nil), col.Docs[lo:hi]...),
				NumPersonas: col.NumPersonas,
			})
		}
		batches = append(batches, batch)
	}
	return batches
}

// bareDir opens one artifact directory at dir with default options —
// without Open's segment log and lock — for the tests of a single kind:
// bareDir(t, newIndexDir, dir).
func bareDir[D any](t *testing.T, newDir func(string, Options) (D, error), dir string) D {
	t.Helper()
	d, err := newDir(dir, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// skewVersion rewrites the file magic of the artifact file at path to
// format version 1, as a file an older tree wrote would carry it.
func skewVersion(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(idxFileMagic)-1] = '1'
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storeJSON is the canonical byte form of a store's contents used for
// byte-identical comparisons.
func storeJSON(t *testing.T, s store.DocumentStore) ([]byte, uint64) {
	t.Helper()
	cols, version := s.Snapshot()
	buf, err := json.Marshal(cols)
	if err != nil {
		t.Fatal(err)
	}
	return buf, version
}

// TestStoreReplayByteIdentical pins the durability contract: a store
// reopened from its segment log is byte-identical — same collections,
// same document positions, same persona remapping, same version — to the
// store that wrote it, and to a pure in-memory store fed the same
// batches.
func TestStoreReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	for _, batch := range testBatches(t) {
		if _, err := data.Store.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	wantJSON, wantVersion := storeJSON(t, data.Store)
	memJSON, memVersion := storeJSON(t, mem)
	if !bytes.Equal(wantJSON, memJSON) || wantVersion != memVersion {
		t.Fatal("disk-backed store diverged from the in-memory reference while live")
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	gotJSON, gotVersion := storeJSON(t, reopened.Store)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("reopened store snapshot is not byte-identical to the pre-close one")
	}
	if gotVersion != wantVersion {
		t.Errorf("reopened store version %d, want %d", gotVersion, wantVersion)
	}

	// And the reopened store must still honor the append-only contract:
	// appending more documents keeps existing positions.
	extra := []*corpus.Collection{{Name: "rivera", Docs: []corpus.Document{
		{URL: "http://late.example/x", Text: "a late arrival", PersonaID: 0},
	}, NumPersonas: 1}}
	if _, err := reopened.Store.Append(extra); err != nil {
		t.Fatal(err)
	}
	grown, _ := reopened.Store.Snapshot()
	var prior []*corpus.Collection
	if err := json.Unmarshal(wantJSON, &prior); err != nil {
		t.Fatal(err)
	}
	for i, col := range prior {
		if !reflect.DeepEqual(grown[i].Docs[:len(col.Docs)], col.Docs) {
			t.Errorf("collection %q: existing documents moved after a post-reopen append", col.Name)
		}
	}
}

// TestStoreSegmentRotation forces rotation with a tiny segment cap and
// checks replay walks every segment in order.
func TestStoreSegmentRotation(t *testing.T) {
	old := maxSegmentBytes
	maxSegmentBytes = 256
	defer func() { maxSegmentBytes = old }()

	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	for _, batch := range testBatches(t) {
		if _, err := data.Store.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	gotJSON, gotVersion := storeJSON(t, reopened.Store)
	wantJSON, wantVersion := storeJSON(t, mem)
	if !bytes.Equal(gotJSON, wantJSON) || gotVersion != wantVersion {
		t.Error("multi-segment replay diverged from the in-memory reference")
	}
}

// corruptTail opens the newest segment and applies mutate to its bytes.
func corruptNewestSegment(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	path := segs[len(segs)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsDamagedSegments pins the hard-fail paths: interior
// corruption (damage not confined to the newest segment's tail) and a
// foreign/mis-versioned header must fail Open with a clear error instead
// of replaying damaged state. Tail damage on the newest segment is the
// torn-write recovery case, tested in TestOpenRecoversTornTail.
func TestOpenRejectsDamagedSegments(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
		// interior adds a newer header-only segment after the damage, so
		// the damaged file is not the final one (short final files are
		// the aborted-rotation recovery case, tested separately).
		interior bool
	}{
		{"truncated record on interior segment", func(b []byte) []byte { return b[:len(b)-7] }, "runs past end of file", true},
		{"checksum mismatch on interior segment", func(b []byte) []byte { b[len(b)-3] ^= 0x20; return b }, "checksum", true},
		// Damage inside the first record of the newest segment: the bad
		// record does not reach EOF, so this is interior corruption even
		// though the file is the newest — truncating would discard the
		// acknowledged records behind it.
		{"checksum mismatch before the tail", func(b []byte) []byte { b[20] ^= 0x20; return b }, "checksum", false},
		{"foreign header", func(b []byte) []byte { copy(b, "NOTSEG00"); return b }, "bad magic", false},
		{"future segment version", func(b []byte) []byte { copy(b, "ERSEG002"); return b }, "bad magic", false},
		{"truncated header on interior segment", func(b []byte) []byte { return b[:4] }, "truncated header", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range testBatches(t) {
				if _, err := data.Store.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := data.Close(); err != nil {
				t.Fatal(err)
			}
			corruptNewestSegment(t, dir, tc.mutate)
			if tc.interior {
				if err := os.WriteFile(filepath.Join(dir, "segments", "99999999.seg"),
					[]byte(segmentMagic), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Open err = %v, want mention of %q", err, tc.wantSub)
			}
		})
	}
}

// TestOpenRecoversTornTail pins the torn-write recovery rule: damage
// confined to the final record of the newest segment — the bytes of a
// write that was never acknowledged — is healed by truncating to the
// last good offset, and the store continues from the surviving records.
func TestOpenRecoversTornTail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		// A write cut off mid-record: the final frame or payload simply
		// stops short of the declared length.
		{"partial final record", func(b []byte) []byte { return b[:len(b)-7] }},
		// A write that landed all its bytes but scrambled: the final
		// record ends exactly at EOF with a failing checksum.
		{"scrambled final record", func(b []byte) []byte { b[len(b)-3] ^= 0x20; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			batches := testBatches(t)
			mem := store.NewMemStore()
			for _, batch := range batches {
				if _, err := data.Store.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			// The reference store holds every batch except the last — the
			// one whose record the "crash" tore.
			for _, batch := range batches[:len(batches)-1] {
				if _, err := mem.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := data.Close(); err != nil {
				t.Fatal(err)
			}
			corruptNewestSegment(t, dir, tc.mutate)

			reopened, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after tail damage = %v, want torn-tail recovery", err)
			}
			if got := reopened.Store.TornTailRecoveries(); got != 1 {
				t.Errorf("TornTailRecoveries = %d, want 1", got)
			}
			gotJSON, gotVersion := storeJSON(t, reopened.Store)
			wantJSON, wantVersion := storeJSON(t, mem)
			if !bytes.Equal(gotJSON, wantJSON) || gotVersion != wantVersion {
				t.Fatal("recovered store does not equal the reference without the torn batch")
			}
			// The truncated log must accept appends again: re-ingesting the
			// torn batch lands it cleanly after the surviving records.
			if _, err := reopened.Store.Append(batches[len(batches)-1]); err != nil {
				t.Fatalf("append after torn-tail recovery: %v", err)
			}
			if _, err := mem.Append(batches[len(batches)-1]); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}

			// A second open replays clean — the truncation was durable, no
			// further recovery fires — and sees the full corpus.
			again, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if got := again.Store.TornTailRecoveries(); got != 0 {
				t.Errorf("second open TornTailRecoveries = %d, want 0", got)
			}
			gotJSON, gotVersion = storeJSON(t, again.Store)
			wantJSON, wantVersion = storeJSON(t, mem)
			if !bytes.Equal(gotJSON, wantJSON) || gotVersion != wantVersion {
				t.Fatal("store after recovery and re-append does not equal the reference")
			}
		})
	}
}

// TestOpenRecoversAbortedRotation pins the one tolerated shortfall: a
// final segment too short to hold even the header is an aborted rotation
// (it cannot contain a record, so no acknowledged batch is at stake) and
// is removed on open instead of wedging the directory forever.
func TestOpenRecoversAbortedRotation(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemStore()
	for _, batch := range testBatches(t) {
		if _, err := data.Store.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	aborted := filepath.Join(dir, "segments", "99999999.seg")
	if err := os.WriteFile(aborted, []byte("ER"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with an aborted final segment: %v", err)
	}
	defer reopened.Close()
	if _, err := os.Stat(aborted); !os.IsNotExist(err) {
		t.Errorf("aborted segment still present after recovery (stat err %v)", err)
	}
	gotJSON, gotVersion := storeJSON(t, reopened.Store)
	wantJSON, wantVersion := storeJSON(t, mem)
	if !bytes.Equal(gotJSON, wantJSON) || gotVersion != wantVersion {
		t.Error("recovered store diverged from the acknowledged batches")
	}
	// And the recovered store keeps accepting writes.
	if _, err := reopened.Store.Append(testBatches(t)[0]); err != nil {
		t.Errorf("append after recovery: %v", err)
	}
}

// TestOpenRejectsSecondWriter pins the single-writer lock: two live
// handles on one data directory would interleave journal records, so the
// second Open must fail while the first is open and succeed after it
// closes.
func TestOpenRejectsSecondWriter(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "in use by another process") {
		t.Fatalf("second Open err = %v, want in-use refusal", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	again.Close()
}

// TestAppendJournalFailureRejectsBatch pins the write-ahead contract: if
// the journal write fails, the batch is rejected and the live store is
// untouched (memory never runs ahead of disk), and the store turns
// read-only rather than letting the two drift on later appends.
func TestAppendJournalFailureRejectsBatch(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t)
	if _, err := data.Store.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := data.Store.Stats()

	// Sabotage the journal: close the segment file out from under the
	// store, as a full or failing disk would.
	data.Store.seg.Close()
	if _, err := data.Store.Append(batches[1]); err == nil {
		t.Fatal("Append succeeded with an unwritable journal")
	}
	if got := data.Store.Stats(); got != before {
		t.Errorf("failed append mutated the store: %+v, want %+v", got, before)
	}
	// Poisoned: even with a healthy-looking call the store refuses.
	if _, err := data.Store.Append(batches[2]); err == nil ||
		!strings.Contains(err.Error(), "read-only after a journal failure") {
		t.Errorf("append after journal failure err = %v, want read-only refusal", err)
	}

	// A restart replays exactly the acknowledged prefix. Close first to
	// release the directory lock; the close itself reports the poisoned
	// segment, which is fine — the process is giving up anyway.
	_ = data.Close()
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Store.Stats(); got != before {
		t.Errorf("replayed store %+v, want the acknowledged prefix %+v", got, before)
	}
}

func testPipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	pl, err := pipeline.New(pipeline.Config{Options: opts, Score: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestSnapshotDirRoundTrip saves a real snapshot and loads it back: same
// block count, full reuse on the next incremental run.
func TestSnapshotDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()

	pl := testPipeline(t)
	var cols []*corpus.Collection
	for _, batch := range testBatches(t) {
		cols = batch // batches are per-slice; resolve the first alone
		break
	}
	run, err := pl.RunIncremental(context.Background(), cols, nil)
	if err != nil {
		t.Fatal(err)
	}

	const key = "best|closure|exact|0.1|10|42"
	if snap, err := data.Snapshots.Load(key, pl); err != nil || snap != nil {
		t.Fatalf("Load before any Save = (%v, %v), want (nil, nil)", snap, err)
	}
	if err := data.Snapshots.Save(key, run.Snapshot); err != nil {
		t.Fatal(err)
	}
	loaded, err := data.Snapshots.Load(key, pl)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Blocks() != run.Snapshot.Blocks() {
		t.Fatalf("loaded %d blocks, saved %d", loaded.Blocks(), run.Snapshot.Blocks())
	}
	again, err := pl.RunIncremental(context.Background(), cols, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Reused != again.Stats.Blocks {
		t.Errorf("stats after load = %+v, want full reuse", again.Stats)
	}

	// A key mismatch (hash collision, copied file) is detected.
	sameFileKey := key + "X"
	src := data.Snapshots.path(key)
	if err := os.Link(src, data.Snapshots.path(sameFileKey)); err != nil {
		t.Fatal(err)
	}
	if _, err := data.Snapshots.Load(sameFileKey, pl); err == nil ||
		!strings.Contains(err.Error(), "was saved for configuration") {
		t.Fatalf("key-mismatch Load err = %v", err)
	}
}

// TestSnapshotDirPrunesOldestBeyondCap pins the disk bound: the snapshot
// directory keeps at most maxFiles files, dropping the oldest, so
// client-chosen knob values (seeds) cannot grow the data directory
// without bound.
func TestSnapshotDirPrunesOldestBeyondCap(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	data.Snapshots.maxFiles = 2

	pl := testPipeline(t)
	run, err := pl.RunIncremental(context.Background(), testBatches(t)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"seed-1", "seed-2", "seed-3"}
	for _, key := range keys {
		if err := data.Snapshots.Save(key, run.Snapshot); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the prune order is deterministic.
		time.Sleep(5 * time.Millisecond)
	}
	files, err := filepath.Glob(filepath.Join(dir, "snapshots", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d snapshot files survive, want cap 2", len(files))
	}
	if snap, err := data.Snapshots.Load("seed-1", pl); err != nil || snap != nil {
		t.Errorf("oldest key Load = (%v, %v), want pruned (nil, nil)", snap, err)
	}
	for _, key := range keys[1:] {
		if snap, err := data.Snapshots.Load(key, pl); err != nil || snap == nil {
			t.Errorf("recent key %s Load = (%v, %v), want retained", key, snap, err)
		}
	}
}

// TestSnapshotDirRejectsDamage pins snapshot-file crash paths: truncation
// surfaces the codec's typed error through Load, and another file format
// version ErrArtifactVersion.
func TestSnapshotDirRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	data, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	pl := testPipeline(t)
	cols := testBatches(t)[0]
	run, err := pl.RunIncremental(context.Background(), cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	if err := data.Snapshots.Save(key, run.Snapshot); err != nil {
		t.Fatal(err)
	}
	path := data.Snapshots.path(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated mid-payload: corrupt, not a partial snapshot.
	if err := os.WriteFile(path, good[:len(good)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := data.Snapshots.Load(key, pl); !errors.Is(err, pipeline.ErrSnapshotCorrupt) {
		t.Fatalf("truncated Load err = %v, want ErrSnapshotCorrupt", err)
	}

	// Another file format version: typed version error for fallback logic.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	skewVersion(t, path)
	if _, err := data.Snapshots.Load(key, pl); !errors.Is(err, ErrArtifactVersion) {
		t.Fatalf("version-skew Load err = %v, want ErrArtifactVersion", err)
	}

	// A crash mid-save must never clobber the published file: temp files
	// are invisible to Load.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshots", ".snap-leftover"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := data.Snapshots.Load(key, pl); err != nil || snap == nil {
		t.Fatalf("Load with a stray temp file = (%v, %v), want the published snapshot", snap, err)
	}
}
