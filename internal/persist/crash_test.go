package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/faultfs"
	"repro/internal/service"
	"repro/internal/store"
)

// quietLog drops recovery chatter; the crash harness triggers hundreds of
// expected recoveries and their logs would bury real failures.
func quietLog(string, ...any) {}

// noSync is the real filesystem minus fsync. The crash harness kills the
// process in-process, never the machine, so a durability barrier that
// reaches the disk only costs wall time — over half of the harness's,
// which replays the lifecycle once per boundary; the injector above it
// still counts, and crashes at, every Sync and SyncDir.
type noSync struct{ faultfs.OS }

type noSyncFile struct{ faultfs.File }

func (noSyncFile) Sync() error { return nil }

func (noSync) SyncDir(string) error { return nil }

func (n noSync) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := n.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (n noSync) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := n.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// TestCrashEveryIOBoundary is the crash harness: one ingest lifecycle —
// open, append batches, save one artifact of each whole-file kind
// (snapshot, key index), commit a chain of serving indexes (a
// full save, appended records, one compaction), close — is first
// probed to count its mutating filesystem operations, then re-run once
// per operation with a crash injected exactly there (clean crash and
// torn-write crash both), the directory reopened with a healthy
// filesystem, and the recovered state checked:
//
//   - every acknowledged batch is present (the fsync-before-ack
//     contract); at most the one in-flight unacknowledged batch may
//     additionally survive (it was fully journaled before the fault),
//   - every artifact file loads cleanly or is absent — never garbage,
//     never quarantined (whole-file saves are atomic temp+rename, and a
//     record torn off the end of a serving file is dropped, not served),
//   - the serving index that loads is one that had been committed or was
//     being committed at the crash, and the next commit — a full save,
//     the new process having written none of the file — succeeds,
//   - no *.tmp orphan outlives the reopen sweep.
func TestCrashEveryIOBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("the crash harness replays the scenario once per I/O boundary")
	}
	batches := testBatches(t)

	// Reference stores: memJSON[k] is the canonical byte form of the store
	// after the first k batches.
	memJSON := make([][]byte, len(batches)+1)
	mem := store.NewMemStore()
	memJSON[0], _ = storeJSON(t, mem)
	for k, batch := range batches {
		if _, err := mem.Append(batch); err != nil {
			t.Fatal(err)
		}
		memJSON[k+1], _ = storeJSON(t, mem)
	}

	// One artifact of each kind, prepared once: the harness exercises
	// their I/O, not their construction.
	pl := testPipeline(t)
	run, err := pl.RunIncremental(context.Background(), batches[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	const snapKey = "best|closure|exact|0.1|10|42"
	const idxKey = "token|collection|4"
	idxCfg := blockindex.Config{Scheme: blocking.TokenBlocking{}}
	idx, err := blockindex.New(idxCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Update(indexCols()); err != nil {
		t.Fatal(err)
	}
	// Enough one-dirty-block commits to append several records behind the
	// first full save and then outgrow it; the probe below checks the
	// shape. The last one is kept back for the restarted process.
	srvCommits := servingCommits(t, snapKey, 9)
	srvNext := srvCommits[len(srvCommits)-1]
	srvCommits = srvCommits[:len(srvCommits)-1]

	// scenario is the lifecycle under test. It returns how many batches
	// and how many serving commits were acknowledged; a crashed run simply
	// stops acknowledging.
	scenario := func(fsys faultfs.FS, dir string) (acked, committed int) {
		data, err := OpenWithOptions(dir, Options{FS: fsys, Log: quietLog})
		if err != nil {
			return 0, 0
		}
		defer data.Close() // after a crash this fails too; a dead process cannot flush
		for _, batch := range batches {
			if _, err := data.Store.Append(batch); err == nil {
				acked++
			}
		}
		_ = data.Snapshots.Save(snapKey, run.Snapshot)
		_, _ = data.Indexes.SaveIndex(idxKey, idx)
		for _, x := range srvCommits {
			if err := data.Serving.SaveServing(snapKey, x); err == nil {
				committed++
			}
		}
		return acked, committed
	}

	// Probe: an unarmed injector counts the boundaries and proves the
	// scenario is clean end to end — and, through a counting filesystem
	// under it, that the serving leg is a full save, at least three
	// appended commits and exactly one compaction.
	counts := faultfs.NewCounting(noSync{})
	probe := faultfs.NewInjector(counts)
	if got, committed := scenario(probe, t.TempDir()); got != len(batches) || committed != len(srvCommits) {
		t.Fatalf("probe run acked %d/%d batches, %d/%d serving commits", got, len(batches), committed, len(srvCommits))
	}
	total := probe.Ops()
	if total < 30 {
		t.Fatalf("probe counted %d mutating ops; the scenario lost its I/O coverage", total)
	}
	// A full save is two fsyncs (file, directory) and one rename; an
	// appended commit one fsync.
	if srv := counts.Counts()["serving"]; srv.Renames != 2 || srv.Fsyncs-2*srv.Renames < 3 {
		t.Fatalf("serving leg cost %+v over %d commits; want 2 full saves (the first, one compaction) and >= 3 appends",
			srv, len(srvCommits))
	}

	for _, mode := range []struct {
		name string
		arm  func(*faultfs.Injector, int)
	}{
		{"crash", (*faultfs.Injector).CrashAt},
		{"torn", (*faultfs.Injector).TornCrashAt},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for n := 1; n <= total; n++ {
				dir := t.TempDir()
				in := faultfs.NewInjector(noSync{})
				mode.arm(in, n)
				acked, committed := scenario(in, dir)
				if !in.Faulted() {
					t.Fatalf("op %d: planned fault never fired (scenario shrank to %d ops?)", n, in.Ops())
				}

				// Restart with a healthy filesystem.
				reopened := faultfs.NewCounting(noSync{})
				data, err := OpenWithOptions(dir, Options{FS: reopened, Log: quietLog})
				if err != nil {
					t.Fatalf("op %d: reopen after crash failed: %v", n, err)
				}
				gotJSON, _ := storeJSON(t, data.Store)
				ok := bytes.Equal(gotJSON, memJSON[acked])
				if !ok && acked < len(batches) {
					// The in-flight batch was fully journaled before the
					// fault (e.g. the bytes landed, the sync faulted): not
					// acknowledged, but legitimately durable.
					ok = bytes.Equal(gotJSON, memJSON[acked+1])
				}
				if !ok {
					t.Fatalf("op %d: reopened store lost acknowledged data (%d batches acked)", n, acked)
				}

				// Every artifact either loads cleanly or is absent; atomic
				// publication means a crash can never leave a half-written
				// file under the real name.
				if _, err := data.Snapshots.Load(snapKey, pl); err != nil {
					t.Fatalf("op %d: snapshot load after crash: %v", n, err)
				}
				if _, err := data.Indexes.LoadIndex(idxKey, idxCfg); err != nil {
					t.Fatalf("op %d: index load after crash: %v", n, err)
				}
				// The serving index is the last acknowledged commit, or the
				// one in flight when its record (or renamed file) had landed
				// whole before the fault; commits[i] has epoch i+1.
				x, err := data.Serving.LoadLatestServing()
				if err != nil {
					t.Fatalf("op %d: serving index load after crash: %v", n, err)
				}
				epoch := uint64(0)
				if x != nil {
					epoch = x.Epoch()
					if err := x.Validate(); err != nil {
						t.Fatalf("op %d: serving index after crash: %v", n, err)
					}
				}
				if epoch != uint64(committed) && epoch != uint64(committed)+1 {
					t.Fatalf("op %d: serving index at epoch %d after %d acknowledged commits", n, epoch, committed)
				}
				if q := data.Snapshots.Quarantined() + data.Indexes.Quarantined() +
					data.Serving.Quarantined(); q != 0 {
					t.Fatalf("op %d: atomic saves still produced %d quarantined files", n, q)
				}
				// The restarted process commits: a full save, which is also
				// what discards a torn tail.
				before := reopened.Counts()["serving"].Renames
				if err := data.Serving.SaveServing(snapKey, srvNext); err != nil {
					t.Fatalf("op %d: first commit after the crash: %v", n, err)
				}
				if got := reopened.Counts()["serving"].Renames - before; got != 1 {
					t.Fatalf("op %d: first commit after the crash renamed %d files into place, want a full save", n, got)
				}
				tails := data.Serving.TornTails()
				if x, err := data.Serving.LoadServing(snapKey); err != nil || x == nil || x.Epoch() != srvNext.Epoch() || data.Serving.TornTails() != tails {
					t.Fatalf("op %d: after that commit LoadServing = (%v, %v), torn tails %d -> %d", n, x, err, tails, data.Serving.TornTails())
				}
				for _, sub := range []string{"snapshots", "indexes", "serving"} {
					orphans, err := filepath.Glob(filepath.Join(dir, sub, "*.tmp"))
					if err != nil {
						t.Fatal(err)
					}
					if len(orphans) != 0 {
						t.Fatalf("op %d: %s kept %d orphaned temp files after reopen", n, sub, len(orphans))
					}
				}
				if err := data.Close(); err != nil {
					t.Fatalf("op %d: closing recovered store: %v", n, err)
				}
			}
		})
	}
}

// TestQuarantineAndRebuild is the degradation acceptance test at the
// service level: a restart finds its persisted serving index — the
// committed resolution, the one artifact the server writes — corrupted on
// disk. The resolve must not fail — the damaged file is quarantined
// (*.corrupt) and the resolution rebuilt from the journaled corpus, with
// cluster output identical to the pre-damage run, and the degradation
// visible in /v1/stats.
func TestQuarantineAndRebuild(t *testing.T) {
	dir := t.TempDir()
	const knobs = `{"seed": 42, "blocking": "token"}`

	data1, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := service.New(service.Config{Store: data1.Store, Serving: data1.Serving})
	ts1 := httptest.NewServer(srv1.Handler())
	ingestAll(t, ts1, restartCorpus(t))
	before := postIncremental(t, ts1, knobs)
	ts1.Close()
	if err := srv1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := data1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every persisted serving file in place: flip a byte deep
	// inside each — past the envelope, inside the codec's checksummed
	// payload.
	files, err := filepath.Glob(filepath.Join(dir, "serving", "*.srv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no persisted serving file to damage")
	}
	for _, name := range files {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-9] ^= 0x40
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Restart onto the damaged directory.
	data2, err := OpenWithOptions(dir, Options{Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	srv2 := service.New(service.Config{Store: data2.Store, Serving: data2.Serving, ErrorLog: quietLog})
	defer srv2.Close(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// The resolve succeeds despite the damage and rebuilds from the
	// journaled corpus: clusters equal the pre-damage run's.
	after := postIncremental(t, ts2, knobs)
	if after.Incremental.ReusedBlocks != 0 {
		t.Errorf("run against quarantined state reused %d blocks; it must rebuild", after.Incremental.ReusedBlocks)
	}
	if len(after.Blocks) != len(before.Blocks) {
		t.Fatalf("block count changed across quarantine: %d vs %d", len(after.Blocks), len(before.Blocks))
	}
	for i := range before.Blocks {
		a, b := before.Blocks[i], after.Blocks[i]
		if a.Name != b.Name || !equalLabels(a.Labels, b.Labels) {
			t.Errorf("block %q: clusters diverged after quarantine-and-rebuild (%v vs %v)", a.Name, a.Labels, b.Labels)
		}
	}

	// The damage is quarantined, not deleted or still in place.
	if files, err := filepath.Glob(filepath.Join(dir, "serving", "*.corrupt")); err != nil || len(files) == 0 {
		t.Errorf("no quarantined serving files (%v)", err)
	}
	if got := data2.Serving.Quarantined(); got != 1 {
		t.Errorf("serving quarantine count = %d, want 1", got)
	}

	// /v1/stats surfaces the degradation.
	d := degraded(t, ts2)
	if d["quarantined_serving"] != 1 || d["serving_load_failures"] < 1 {
		t.Errorf("degraded stats = %v, want one serving quarantine and the load failure counted", d)
	}

	// The rebuild re-persisted clean state: the next restart loads it and
	// reuses every block again.
	ts2.Close()
	if err := srv2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := data2.Close(); err != nil {
		t.Fatal(err)
	}
	data3, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer data3.Close()
	srv3 := service.New(service.Config{Store: data3.Store, Serving: data3.Serving})
	defer srv3.Close(context.Background())
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	healed := postIncremental(t, ts3, knobs)
	if healed.Incremental.ReusedBlocks != healed.Incremental.Blocks || healed.Incremental.Blocks == 0 {
		t.Errorf("post-rebuild restart stats = %+v, want every block reused", healed.Incremental)
	}
}

// TestSnapshotVersionSkewRebuilds is the upgrade path across a format bump
// of the committed resolution, at the service level: a restart finds a
// .srv file written by format version 1 (the reader decides on the file
// magic's version digit alone, so a current file with that digit rewritten
// stands in for one). It is refused with ErrArtifactVersion and
// quarantined, that resolve is a full one with identical clusters and
// re-saves, and the restart after it reuses every block.
func TestSnapshotVersionSkewRebuilds(t *testing.T) {
	dir := t.TempDir()
	const knobs = `{"seed": 42}`
	// serve opens dir and resolves once; logged is what the service
	// reported through ErrorLog.
	serve := func() (out incResponse, data *Data, logged []any) {
		t.Helper()
		data, err := OpenWithOptions(dir, Options{Log: quietLog})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{
			Store: data.Store, Serving: data.Serving,
			ErrorLog: func(_ string, args ...any) { logged = append(logged, args...) },
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if data.Store.Stats().Docs == 0 {
			ingestAll(t, ts, restartCorpus(t))
		}
		out = postIncremental(t, ts, knobs)
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return out, data, logged
	}

	before, data, _ := serve()
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "serving", "*.srv"))
	if err != nil || len(files) != 1 {
		t.Fatalf("serving files = %v (%v), want exactly one", files, err)
	}
	buf, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The file magic's last byte is the format version digit.
	buf[len(srvFileMagic)-1] = '1'
	if err := os.WriteFile(files[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	after, data, logged := serve()
	refused := false
	for _, arg := range logged {
		if err, ok := arg.(error); ok && errors.Is(err, ErrArtifactVersion) {
			refused = true
		}
	}
	if !refused {
		t.Errorf("service logged %v, want an ErrArtifactVersion load failure", logged)
	}
	if got := data.Serving.Quarantined(); got != 1 {
		t.Errorf("serving quarantine count = %d, want 1", got)
	}
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Errorf("the version-1 file was not quarantined: %v", err)
	}
	if after.Incremental.ReusedBlocks != 0 {
		t.Errorf("run against a version-1 serving file reused %d blocks; it must resolve in full", after.Incremental.ReusedBlocks)
	}
	for i := range before.Blocks {
		a, b := before.Blocks[i], after.Blocks[i]
		if a.Name != b.Name || !equalLabels(a.Labels, b.Labels) {
			t.Errorf("block %q: clusters diverged across the format bump (%v vs %v)", a.Name, a.Labels, b.Labels)
		}
	}
	if err := data.Close(); err != nil {
		t.Fatal(err)
	}

	healed, data, logged := serve()
	defer data.Close()
	if healed.Incremental.ReusedBlocks != healed.Incremental.Blocks || healed.Incremental.Blocks == 0 {
		t.Errorf("restart after the re-save: stats = %+v, want every block reused", healed.Incremental)
	}
	if len(logged) != 0 {
		t.Errorf("restart after the re-save logged %v, want a clean load", logged)
	}
}

// degraded reads the ersolve_degraded_total samples of GET /v1/stats,
// by kind.
func degraded(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	var stats map[string][]struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	out := map[string]float64{}
	for _, smp := range stats["ersolve_degraded_total"] {
		out[smp.Labels["kind"]] = smp.Value
	}
	return out
}

// getJSON fetches path from the test server and decodes the JSON reply.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
