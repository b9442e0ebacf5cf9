package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/framing"
	"repro/internal/service"
)

// fixtureCorpus is the two-collection corpus testdata/parent.* were built
// from: first by the tree at commit 1f5d2a3 (the parent of the change that
// moved the four artifact kinds onto one artifactDir), then again when the
// files took format version 2 — a magic and framing records. The state
// parent.json records of them was the same both times, less the ANN
// index's ef_construction, which version 2 no longer stores.
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

// check compares a loaded index's decoded state against the record: every
// Stats field this tree still has (the record's shard_keys went with the
// index's hash partitions).
func (want fixMembership) check(t *testing.T, kind string, version uint64, stats blockindex.Stats, refs [][]blockindex.DocRef, fps []uint64) {
	t.Helper()
	var wantStats blockindex.Stats
	if err := json.Unmarshal(want.Stats, &wantStats); err != nil {
		t.Fatal(err)
	}
	if version != want.Version || stats != wantStats {
		t.Errorf("%s: loaded version %d, stats %+v; parent saved version %d, stats %s",
			kind, version, stats, want.Version, want.Stats)
	}
	if !reflect.DeepEqual(refs, want.Refs) || !reflect.DeepEqual(fps, want.Fps) {
		t.Errorf("%s: loaded membership differs from what the parent saved:\n got %v %v\nwant %v %v",
			kind, refs, fps, want.Refs, want.Fps)
	}
}

// TestParentWrittenArtifactsLoad is what "no format change" means: the
// four files under testdata were written by an earlier tree's SnapshotDir,
// IndexDir, ANNDir and ServingDir, and parent.json holds the state that
// tree recorded of them. The .snap, .idx and .srv must sit under the file
// name this tree derives for their key, load to that state — compared
// decoded, because the gob payloads carry maps whose encoding order is not
// deterministic — and a fresh save must start with the identical magic and
// key record. Each of those legs then rewrites its file's version digit to
// 1, as the files before format version 2 carry it, and the load is
// refused with ErrArtifactVersion and quarantines the file: there is no
// reader of another version. The server reads no candidate index file at
// all: the ann leg and the datadir leg prove that an .ann or .idx an
// earlier release left in DIR/indexes is never opened.
func TestParentWrittenArtifactsLoad(t *testing.T) {
	var golden struct {
		Files map[string]string `json:"files"`
		Idx   fixMembership     `json:"idx"`
		Srv   struct {
			Epoch        uint64            `json:"epoch"`
			StoreVersion uint64            `json:"store_version"`
			Knobs        string            `json:"knobs"`
			DocEntities  []json.RawMessage `json:"doc_entities"`
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
	// sameHead checks, after a save under this tree replaced the parent's
	// file, that the magic and key record did not move; then it puts the
	// parent's file back at format version 1 and checks that load refuses
	// and quarantines it.
	sameHead := func(t *testing.T, kind, path, magic, key string, parent []byte, load func() error, quarantined func() int64) {
		t.Helper()
		fresh, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := len(magic) + framing.HeaderBytes + len(key)
		if len(fresh) < n || !bytes.Equal(fresh[:n], parent[:n]) || string(fresh[:len(magic)]) != magic {
			t.Errorf("%s: a fresh save starts %q, the parent's file %q", kind, fresh[:min(n, len(fresh))], parent[:n])
		}
		if err := os.WriteFile(path, parent, 0o644); err != nil {
			t.Fatal(err)
		}
		skewVersion(t, path)
		if err := load(); !errors.Is(err, ErrArtifactVersion) {
			t.Errorf("%s: loading the file at format version 1 = %v, want ErrArtifactVersion", kind, err)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil || quarantined() != 1 {
			t.Errorf("%s: the file at format version 1 was not quarantined: %v, count %d", kind, err, quarantined())
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
		sameHead(t, "snap", path, snapFileMagic, fixSnapKey, parent,
			func() error { _, err := data.Snapshots.Load(fixSnapKey, pl); return err }, data.Snapshots.Quarantined)
	})

	t.Run("idx", func(t *testing.T) {
		path := data.Indexes.path(fixIdxKey)
		parent := place(t, "idx", path)
		cfg := blockindex.Config{Scheme: blocking.TokenBlocking{}}
		idx, err := data.Indexes.LoadIndex(fixIdxKey, cfg)
		if err != nil || idx == nil {
			t.Fatalf("LoadIndex = (%v, %v)", idx, err)
		}
		refs, fps := membership(t, idx, cols)
		golden.Idx.check(t, "idx", idx.Version(), idx.Stats(), refs, fps)
		if st, err := idx.Update(cols); err != nil || st.DeltaDocs != 0 {
			t.Errorf("the loaded index re-indexed %d documents of its own corpus (err %v)", st.DeltaDocs, err)
		}
		if _, err := data.Indexes.SaveIndex(fixIdxKey, idx); err != nil {
			t.Fatal(err)
		}
		sameHead(t, "idx", path, idxFileMagic, fixIdxKey, parent,
			func() error { _, err := data.Indexes.LoadIndex(fixIdxKey, cfg); return err }, data.Indexes.Quarantined)
	})

	// An ANN graph an earlier release saved is never read: no request can
	// name an ann-mode configuration any more, the default resolve keys the
	// corpus into a fresh key index, nothing is quarantined, logged or
	// counted as degraded, and the file is left byte for byte.
	t.Run("ann", func(t *testing.T) {
		dir := t.TempDir()
		data, err := OpenWithOptions(dir, Options{Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { data.Close() }) // after serveLogged's cleanup stops the server
		place(t, "ann", strings.TrimSuffix(data.Indexes.path(fixAnnKey), ".idx")+".ann")
		before := indexFiles(t, dir)
		if _, err := data.Store.Append(cols); err != nil {
			t.Fatal(err)
		}
		ts, logged := serveLogged(t, data)

		got := resolve(t, ts, `{"seed": 42}`)
		if b := got.Blocking; b.Indexer != "index" || b.DeltaDocs != got.Docs || got.Docs != 21 {
			t.Errorf("resolve beside the parent's .ann blocked with %+v over %d documents; want a fresh key index keyed from all 21", b, got.Docs)
		}
		if errs := logged(); len(errs) != 0 {
			t.Errorf("the service logged %v, want nothing", errs)
		}
		for kind, n := range degraded(t, ts) {
			if n != 0 {
				t.Errorf("a parent's .ann degraded the server: %s = %g", kind, n)
			}
		}
		if after := indexFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("DIR/indexes changed from %v to %v; the server must not touch it", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
		}
	})

	t.Run("srv", func(t *testing.T) {
		path := data.Serving.path(fixSnapKey)
		parent := place(t, "srv", path)
		x, err := data.Serving.LoadLatestServing()
		if err != nil || x == nil || x.Validate() != nil || x.Epoch() != golden.Srv.Epoch ||
			x.StoreVersion() != golden.Srv.StoreVersion || x.Knobs() != golden.Srv.Knobs {
			t.Fatalf("LoadLatestServing = (%v, %v), want epoch %d, store version %d, knobs %q",
				x, err, golden.Srv.Epoch, golden.Srv.StoreVersion, golden.Srv.Knobs)
		}
		var entities []json.RawMessage
		for _, c := range cols {
			for pos := range c.Docs {
				got, err := json.Marshal(x.DocEntity(c.Name, pos))
				if err != nil {
					t.Fatal(err)
				}
				entities = append(entities, got)
			}
		}
		if !reflect.DeepEqual(entities, golden.Srv.DocEntities) {
			t.Errorf("loaded entities differ from what the parent saved:\n got %s\nwant %s", entities, golden.Srv.DocEntities)
		}
		if err := data.Serving.SaveServing(fixSnapKey, x); err != nil {
			t.Fatal(err)
		}
		sameHead(t, "srv", path, srvFileMagic, fixSnapKey, parent,
			func() error { _, err := data.Serving.LoadServing(fixSnapKey); return err }, data.Serving.Quarantined)
	})

	// A whole data directory, written by the server of the last tree that
	// committed every resolve twice — a .snap rewritten behind the .srv
	// record (commit 2b500d0: ingest, resolve, ingest two documents,
	// resolve, kill; testdata/parent19, reply.json is that last reply) —
	// at format version 1. This tree refuses and quarantines its .srv, so
	// lookups answer 409 until the first resolve, which prepares every
	// block and replies what the parent did; it never opens the .snap or
	// the .idx, which stay byte for byte.
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

		idxBefore := indexFiles(t, dir)
		if len(idxBefore) != 1 {
			t.Fatalf("the parent's directory holds %v under indexes, want its one .idx", slices.Sorted(maps.Keys(idxBefore)))
		}
		data, err := OpenWithOptions(dir, Options{Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { data.Close() }) // after serveLogged's cleanup stops the server
		ts, logged := serveLogged(t, data)

		resp, err := ts.Client().Get(ts.URL + "/v1/docs/ana%20rivera:11/entity")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("lookup before any resolve = %d, want 409: the parent's serving file is refused", resp.StatusCode)
		}
		got := resolve(t, ts, `{"seed": 42}`)
		if got.Incremental.ReusedBlocks != 0 || got.Incremental.Blocks != len(parent.Blocks) {
			t.Errorf("first resolve on the parent's directory = %+v, want all %d blocks prepared", got.Incremental, len(parent.Blocks))
		}
		if !reflect.DeepEqual(got.Blocks, parent.Blocks) {
			t.Errorf("first resolve on the parent's directory replied\n%+v\nthe parent replied\n%+v", got.Blocks, parent.Blocks)
		}
		for _, err := range logged() {
			if !errors.Is(err, ErrArtifactVersion) {
				t.Errorf("the service logged %v, want only version skews", err)
			}
		}

		// The degradation is exactly the quarantined serving file, counted
		// once as a load failure and once as a quarantine.
		srvFiles, err := filepath.Glob(filepath.Join(dir, "serving", "*.srv.corrupt"))
		if err != nil || len(srvFiles) != 1 {
			t.Errorf("quarantined serving files %v (%v), want the parent's one", srvFiles, err)
		}
		if after := indexFiles(t, dir); !reflect.DeepEqual(after, idxBefore) {
			t.Errorf("DIR/indexes changed from %v to %v; the server must not touch it", slices.Sorted(maps.Keys(idxBefore)), slices.Sorted(maps.Keys(after)))
		}
		want := map[string]float64{"serving_load_failures": 1, "quarantined_serving": 1}
		d := degraded(t, ts)
		if len(d) == 0 {
			t.Error("/v1/stats carries no degradation counters")
		}
		for kind, n := range d {
			if n != want[kind] {
				t.Errorf("restart on the parent's directory degraded: %s = %g, want %g", kind, n, want[kind])
			}
		}
		if snapAfter, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(snapAfter, snapBefore) {
			t.Errorf("the parent's .snap was touched (%v)", err)
		}
	})
}

// serveLogged runs the service over every backend of data, as `ersolve
// serve -data` wires it, and returns its test server and a reader of the
// errors it logged.
func serveLogged(t *testing.T, data *Data) (*httptest.Server, func() []error) {
	t.Helper()
	var mu sync.Mutex
	var logged []error
	srv := service.New(service.Config{Store: data.Store, Serving: data.Serving,
		ErrorLog: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			for _, arg := range args {
				if err, ok := arg.(error); ok {
					logged = append(logged, err)
				}
			}
		}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	return ts, func() []error {
		mu.Lock()
		defer mu.Unlock()
		return append([]error(nil), logged...)
	}
}

// resolve posts one incremental resolve and decodes its 200 reply.
func resolve(t *testing.T, ts *httptest.Server, body string) service.IncrementalResolveResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.IncrementalResolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve %s = %d (%v)", body, resp.StatusCode, err)
	}
	return out
}

// indexFiles reads every file under DIR/indexes, by name.
func indexFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "indexes"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, "indexes", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}
