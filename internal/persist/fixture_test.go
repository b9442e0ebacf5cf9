package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/service"
	"repro/internal/serving"
)

// fixtureCorpus is the two-collection corpus testdata/parent.* were built
// from (by the tree at commit 1f5d2a3, the parent of the change that moved
// the four artifact kinds onto one artifactDir).
func fixtureCorpus(t *testing.T) []*corpus.Collection {
	t.Helper()
	var cols []*corpus.Collection
	for _, cfg := range []corpus.CollectionConfig{
		{Name: "ana rivera", NumDocs: 12, NumPersonas: 3, Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 21},
		{Name: "ana cohen", NumDocs: 9, NumPersonas: 2, Noise: 0.3, MissingInfo: 0.3, Spurious: 0.1, Seed: 33},
	} {
		col, err := corpus.GenerateCollection(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, col)
	}
	return cols
}

// The configuration keys the parent saved the fixtures under.
const (
	fixSnapKey = "best|closure|exact|collection|0.1|10|42"
	fixIdxKey  = "token|collection|4"
	fixAnnKey  = "ann|canopy|collection|12|64"
)

// fixMembership is what the parent recorded of an index it saved.
type fixMembership struct {
	Version uint64                `json:"version"`
	Stats   json.RawMessage       `json:"stats"`
	Refs    [][]blockindex.DocRef `json:"refs"`
	Fps     []uint64              `json:"fps"`
}

// check compares a loaded index's decoded state against the record.
func (want fixMembership) check(t *testing.T, kind string, version uint64, stats any, refs [][]blockindex.DocRef, fps []uint64) {
	t.Helper()
	gotStats, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	if version != want.Version || !bytes.Equal(gotStats, want.Stats) {
		t.Errorf("%s: loaded version %d, stats %s; parent saved version %d, stats %s",
			kind, version, gotStats, want.Version, want.Stats)
	}
	if !reflect.DeepEqual(refs, want.Refs) || !reflect.DeepEqual(fps, want.Fps) {
		t.Errorf("%s: loaded membership differs from what the parent saved:\n got %v %v\nwant %v %v",
			kind, refs, fps, want.Refs, want.Fps)
	}
}

// TestParentWrittenArtifactsLoad is what "no format change" means: the
// four files under testdata were written by an earlier commit's
// SnapshotDir, IndexDir, ANNDir and ServingDir, and parent.json holds the
// state that tree recorded of them. Each must sit under the file name
// this tree derives for its key, load to that state — compared decoded,
// because the gob payloads carry maps whose encoding order is not
// deterministic — and a fresh save must start with the identical
// magic | key length | key envelope. The serving index's leg pins the one
// deliberate format change since instead (see the subtest).
func TestParentWrittenArtifactsLoad(t *testing.T) {
	var golden struct {
		Files map[string]string `json:"files"`
		Idx   fixMembership     `json:"idx"`
		Ann   fixMembership     `json:"ann"`
		Srv   struct {
			Epoch        uint64 `json:"epoch"`
			StoreVersion uint64 `json:"store_version"`
			Knobs        string `json:"knobs"`
		} `json:"srv"`
		SnapBlocks int `json:"snap_blocks"`
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cols := fixtureCorpus(t)
	data, err := OpenWithOptions(t.TempDir(), Options{Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()

	// place copies the parent's file to where this tree looks for key.
	place := func(t *testing.T, kind, path string) []byte {
		t.Helper()
		if got, want := filepath.Base(path), golden.Files[kind]; got != want {
			t.Fatalf("%s: this tree names the file %s, the parent wrote %s", kind, got, want)
		}
		buf, err := os.ReadFile(filepath.Join("testdata", "parent."+kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// sameEnvelope checks, after a save under this tree replaced the
	// parent's file, that the envelope prefix did not move.
	sameEnvelope := func(t *testing.T, kind, path, magic, key string, parent []byte) {
		t.Helper()
		fresh, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := len(magic) + 4 + len(key)
		if len(fresh) < n || !bytes.Equal(fresh[:n], parent[:n]) || string(fresh[:len(magic)]) != magic {
			t.Errorf("%s: a fresh save starts %q, the parent's file %q", kind, fresh[:min(n, len(fresh))], parent[:n])
		}
	}

	t.Run("snap", func(t *testing.T) {
		path := data.Snapshots.path(fixSnapKey)
		parent := place(t, "snap", path)
		pl := testPipeline(t)
		snap, err := data.Snapshots.Load(fixSnapKey, pl)
		if err != nil || snap == nil {
			t.Fatalf("Load = (%v, %v)", snap, err)
		}
		inc, err := pl.RunIncremental(context.Background(), cols, snap)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Blocks() != golden.SnapBlocks || inc.Stats.Reused != inc.Stats.Blocks || inc.Stats.Blocks != golden.SnapBlocks {
			t.Errorf("loaded snapshot holds %d blocks and the run reused %d of %d; the parent saved %d",
				snap.Blocks(), inc.Stats.Reused, inc.Stats.Blocks, golden.SnapBlocks)
		}
		if err := data.Snapshots.Save(fixSnapKey, inc.Snapshot); err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, "snap", path, snapFileMagic, fixSnapKey, parent)
	})

	t.Run("idx", func(t *testing.T) {
		path := data.Indexes.path(fixIdxKey)
		parent := place(t, "idx", path)
		idx, err := data.Indexes.LoadIndex(fixIdxKey, blockindex.Config{Scheme: blocking.TokenBlocking{}, Shards: 4})
		if err != nil || idx == nil {
			t.Fatalf("LoadIndex = (%v, %v)", idx, err)
		}
		refs, fps := idx.Membership()
		golden.Idx.check(t, "idx", idx.Version(), idx.Stats(), refs, fps)
		if st, err := idx.Update(cols); err != nil || st.DeltaDocs != 0 {
			t.Errorf("the loaded index re-indexed %d documents of its own corpus (err %v)", st.DeltaDocs, err)
		}
		if _, err := data.Indexes.SaveIndex(fixIdxKey, idx); err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, "idx", path, idxFileMagic, fixIdxKey, parent)
	})

	t.Run("ann", func(t *testing.T) {
		path := data.ANN.path(fixAnnKey)
		parent := place(t, "ann", path)
		idx, err := data.ANN.LoadANNIndex(fixAnnKey, ann.Config{Scheme: blocking.Canopy{Loose: 0.4, Tight: 0.8}})
		if err != nil || idx == nil {
			t.Fatalf("LoadANNIndex = (%v, %v)", idx, err)
		}
		refs, fps := idx.Membership()
		golden.Ann.check(t, "ann", idx.Version(), idx.Stats(), refs, fps)
		if st, err := idx.Update(cols); err != nil || st.DeltaDocs != 0 {
			t.Errorf("the loaded index re-inserted %d documents of its own corpus (err %v)", st.DeltaDocs, err)
		}
		if _, err := data.ANN.SaveANNIndex(fixAnnKey, idx); err != nil {
			t.Fatal(err)
		}
		sameEnvelope(t, "ann", path, annFileMagic, fixAnnKey, parent)
	})

	// The serving index is the one kind whose body format moved on (ERSVI001
	// → ERSVI002, a base plus appended commit records) with no reader kept
	// for the old one: the parent's file is refused as a version skew and
	// quarantined — the restart head-start is lost once — and the next
	// commit writes a file this tree loads, behind the same envelope.
	t.Run("srv", func(t *testing.T) {
		path := data.Serving.path(fixSnapKey)
		parent := place(t, "srv", path)
		if x, err := data.Serving.LoadLatestServing(); x != nil || !errors.Is(err, serving.ErrCodecVersion) {
			t.Fatalf("LoadLatestServing of the parent's file = (%v, %v), want serving.ErrCodecVersion", x, err)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil || data.Serving.Quarantined() != 1 {
			t.Errorf("the parent's file was not quarantined: %v, count %d", err, data.Serving.Quarantined())
		}
		if x, err := data.Serving.LoadServing(fixSnapKey); x != nil || err != nil {
			t.Errorf("after the quarantine LoadServing = (%v, %v), want a clean miss", x, err)
		}
		x := servingFixture(t, golden.Srv.Epoch, golden.Srv.StoreVersion, golden.Srv.Knobs)
		if err := data.Serving.SaveServing(fixSnapKey, x); err != nil {
			t.Fatal(err)
		}
		got, err := data.Serving.LoadLatestServing()
		if err != nil || got == nil || got.Epoch() != x.Epoch() || got.Knobs() != x.Knobs() || got.Validate() != nil {
			t.Errorf("after the next commit LoadLatestServing = (%v, %v), want the committed index", got, err)
		}
		sameEnvelope(t, "srv", path, srvFileMagic, fixSnapKey, parent)
	})

	if q := data.Snapshots.Quarantined() + data.Indexes.Quarantined() + data.ANN.Quarantined(); q != 0 {
		t.Errorf("%d parent-written snapshot and index files were quarantined", q)
	}

	// A whole data directory, written by the server of the last tree that
	// committed every resolve twice — a .snap rewritten behind the .srv
	// record (commit 2b500d0: ingest, resolve, ingest two documents,
	// resolve, kill; testdata/parent19, reply.json is that last reply).
	// This tree's server never opens the .snap: it answers lookups from the
	// .srv at once and its first resolve reuses every block from it, with
	// the reply the parent gave.
	t.Run("datadir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent19"))); err != nil {
			t.Fatal(err)
		}
		snapPath := filepath.Join(dir, "snapshots", golden.Files["snap"])
		snapBefore, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatalf("the parent's directory holds no snapshot for the fixture key: %v", err)
		}
		var parent service.IncrementalResolveResponse
		raw, err := os.ReadFile(filepath.Join(dir, "reply.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &parent); err != nil {
			t.Fatal(err)
		}

		data, err := OpenWithOptions(dir, Options{Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		defer data.Close()
		srv := service.New(service.Config{Store: data.Store, Indexes: data.Indexes, ANNIndexes: data.ANN,
			Serving: data.Serving, ErrorLog: t.Errorf})
		defer srv.Close(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		var entity service.EntityResponse
		getJSON(t, ts, "/v1/docs/ana%20rivera:11/entity", &entity)
		if entity.Entity == nil || entity.StoreVersion != parent.StoreVersion {
			t.Errorf("lookup before any resolve = %+v, want the entity the parent committed at store version %d", entity, parent.StoreVersion)
		}
		var got service.IncrementalResolveResponse
		resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(`{"seed": 42}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("first resolve = %d (%v)", resp.StatusCode, err)
		}
		if got.Incremental.ReusedBlocks != got.Incremental.Blocks || got.Incremental.Blocks != len(parent.Blocks) {
			t.Errorf("first resolve on the parent's directory = %+v, want all %d blocks reused", got.Incremental, len(parent.Blocks))
		}
		if !reflect.DeepEqual(got.Blocks, parent.Blocks) {
			t.Errorf("first resolve on the parent's directory replied\n%+v\nthe parent replied\n%+v", got.Blocks, parent.Blocks)
		}
		if d := degraded(t, ts); len(d) == 0 {
			t.Error("/v1/stats carries no degradation counters")
		} else {
			for kind, n := range d {
				if n != 0 {
					t.Errorf("restart on the parent's directory degraded: %s = %g", kind, n)
				}
			}
		}
		if snapAfter, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(snapAfter, snapBefore) {
			t.Errorf("the parent's .snap was touched (%v)", err)
		}
	})
}
