package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// snapshotCorpus is the incremental corpus plus a one-document collection,
// so snapshots carry a trivially resolved block alongside full ones.
func snapshotCorpus(t testing.TB) []*corpus.Collection {
	t.Helper()
	cols := incrementalCollections(t)
	cols = append(cols, &corpus.Collection{
		Name:        "solo",
		Docs:        []corpus.Document{{ID: 0, URL: "http://solo.example/p", Text: "solo page", PersonaID: 0}},
		NumPersonas: 1,
	})
	return cols
}

func encodeToBytes(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip pins the persistence guarantee: a decoded snapshot
// behaves exactly like the in-memory one it was encoded from — every block
// reuses, and labels, sources and scores are identical.
func TestSnapshotRoundTrip(t *testing.T) {
	cols := snapshotCorpus(t)
	pl := incrementalPipeline(t, "exact", "best", "closure")
	ctx := context.Background()

	run1, err := pl.RunIncremental(ctx, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := pl.DecodeSnapshot(bytes.NewReader(encodeToBytes(t, run1.Snapshot)))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Blocks() != run1.Snapshot.Blocks() {
		t.Fatalf("decoded %d blocks, encoded %d", decoded.Blocks(), run1.Snapshot.Blocks())
	}

	// Resolving the same corpus from the decoded snapshot must reuse every
	// block and reproduce the clusters bit for bit.
	reRun, err := pl.RunIncremental(ctx, cols, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if reRun.Stats.Reused != reRun.Stats.Blocks || reRun.Stats.Prepared != 0 {
		t.Fatalf("post-decode stats = %+v, want all %d blocks reused", reRun.Stats, reRun.Stats.Blocks)
	}
	for i := range run1.Results {
		a, b := run1.Results[i], reRun.Results[i]
		if !reflect.DeepEqual(a.Resolution.Labels, b.Resolution.Labels) {
			t.Errorf("block %q: decoded labels %v != original %v", a.Block.Name, b.Resolution.Labels, a.Resolution.Labels)
		}
		if (a.Score == nil) != (b.Score == nil) || (a.Score != nil && *a.Score != *b.Score) {
			t.Errorf("block %q: decoded score %v != original %v", a.Block.Name, b.Score, a.Score)
		}
	}

	if !reflect.DeepEqual(decoded.entries, run1.Snapshot.entries) {
		t.Error("decoded cached blocks differ from the encoded ones")
	}

	// Growing the corpus after a decode must behave like growing it from
	// the live snapshot: only the dirty blocks re-prepare.
	grown := append(append([]*corpus.Collection(nil), cols...), &corpus.Collection{
		Name: "nowak",
		Docs: []corpus.Document{
			{ID: 0, URL: "http://a.example/x", Text: "nowak the first page", PersonaID: 0},
			{ID: 1, URL: "http://b.example/y", Text: "nowak the second page", PersonaID: 1},
		},
		NumPersonas: 2,
	})
	fromDecoded, err := pl.RunIncremental(ctx, grown, decoded)
	if err != nil {
		t.Fatal(err)
	}
	fromLive, err := pl.RunIncremental(ctx, grown, run1.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the diff stats only: the Blocking pointer reports the block
	// stage's own delta, which is legitimately different between the two
	// calls (the first one indexed the grown corpus, the second saw no
	// delta).
	sd, sl := fromDecoded.Stats, fromLive.Stats
	sd.Blocking, sl.Blocking = nil, nil
	if sd != sl {
		t.Errorf("grown-corpus stats from decoded snapshot %+v != from live snapshot %+v", sd, sl)
	}
	for i := range fromLive.Results {
		if !reflect.DeepEqual(fromDecoded.Results[i].Resolution.Labels, fromLive.Results[i].Resolution.Labels) {
			t.Errorf("block %q: grown-corpus labels diverge after decode", fromLive.Results[i].Block.Name)
		}
	}
}

// TestSnapshotEncodeEmpty checks nil and empty snapshots round-trip to an
// empty snapshot rather than erroring.
func TestSnapshotEncodeEmpty(t *testing.T) {
	pl := incrementalPipeline(t, "exact", "best", "closure")
	for _, snap := range []*Snapshot{nil, {entries: map[uint64]*cachedBlock{}}} {
		decoded, err := pl.DecodeSnapshot(bytes.NewReader(encodeToBytes(t, snap)))
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Blocks() != 0 {
			t.Errorf("empty snapshot decoded to %d blocks", decoded.Blocks())
		}
	}
}

// TestSnapshotDecodeRejectsCorruption pins the crash-path behavior: a
// truncated stream, a flipped payload bit, trailing garbage, a foreign
// file, and a future or previous format version must all fail with a
// clear, typed error instead of yielding a partially decoded snapshot.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	cols := snapshotCorpus(t)
	pl := incrementalPipeline(t, "exact", "best", "closure")
	run, err := pl.RunIncremental(context.Background(), cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeToBytes(t, run.Snapshot)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrSnapshotCorrupt},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-11] }, ErrSnapshotCorrupt},
		{"flipped payload bit", func(b []byte) []byte {
			b[len(b)-5] ^= 0x40
			return b
		}, ErrSnapshotCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, "junk"...) }, ErrSnapshotCorrupt},
		{"foreign magic", func(b []byte) []byte {
			copy(b, "NOTASNAP")
			return b
		}, ErrSnapshotCorrupt},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], SnapshotFormatVersion+1)
			return b
		}, ErrSnapshotVersion},
		{"previous version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1)
			return b
		}, ErrSnapshotVersion},
		{"empty stream", func(b []byte) []byte { return nil }, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), good...))
			snap, err := pl.DecodeSnapshot(bytes.NewReader(mutated))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if snap != nil {
				t.Fatal("corrupt stream yielded a snapshot")
			}
		})
	}
}

// TestSnapshotBytesPerDoc pins what a snapshot is: labels, a source string
// and a score per block — a few bytes per document, not the kilobytes per
// document that persisted similarity matrices cost.
func TestSnapshotBytesPerDoc(t *testing.T) {
	const names, docsPerName = 20, 40
	cols := recallCorpus(t, names, docsPerName)
	pl := incrementalPipeline(t, "exact", "best", "closure")
	run, err := pl.RunIncremental(context.Background(), cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := len(encodeToBytes(t, run.Snapshot))
	if perDoc := float64(size) / (names * docsPerName); perDoc > 32 {
		t.Errorf("snapshot is %d bytes for %d docs = %.1f bytes/doc, want <= 32", size, names*docsPerName, perDoc)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder: it
// must answer a typed error or a snapshot that re-encodes and drives an
// incremental run, and never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	cols := snapshotCorpus(f)
	pl := incrementalPipeline(f, "exact", "best", "closure")
	run, err := pl.RunIncremental(context.Background(), cols, nil)
	if err != nil {
		f.Fatal(err)
	}
	good := encodeToBytes(f, run.Snapshot)
	f.Add(good)
	f.Add(good[:len(good)/2])
	badCRC := append([]byte(nil), good...)
	badCRC[20] ^= 0xff
	f.Add(badCRC)
	v1 := append([]byte(nil), good[:24]...)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := pl.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatal("failed decode yielded a snapshot")
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		if _, err := pl.RunIncremental(context.Background(), cols, snap); err != nil {
			t.Fatalf("resolving from a decoded snapshot: %v", err)
		}
	})
}
