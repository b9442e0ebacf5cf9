package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/store"
)

// durableConfig is the service over every backend of one data directory,
// as `ersolve serve -data` wires it.
func durableConfig(data *persist.Data) Config {
	return Config{Store: data.Store, Serving: data.Serving, ErrorLog: func(string, ...any) {}}
}

// checkRestartResolve is the restart contract for a server's first resolve
// on a directory its predecessor left, gracefully or not: the candidate
// index is never saved, so the resolve keys exactly the store's documents
// into a fresh one — through the delta update, not a fallback — and still
// reuses every block of the last commit, replying what the predecessor's
// last resolve did.
func checkRestartResolve(t *testing.T, first, before IncrementalResolveResponse) {
	t.Helper()
	if first.Blocking.Indexer != "index" || first.Blocking.Fallback || first.Blocking.DeltaDocs != first.Docs {
		t.Errorf("first resolve after the restart blocked with %+v; want the index rebuilt from all %d stored documents",
			first.Blocking, first.Docs)
	}
	if first.Incremental.ReusedBlocks != first.Incremental.Blocks || first.Incremental.Blocks == 0 {
		t.Errorf("first resolve after the restart = %+v, want every block reused", first.Incremental)
	}
	if !jsonEqual(t, first.Blocks, before.Blocks) {
		t.Errorf("first resolve after the restart replied\n%+v\nthe last resolve before it replied\n%+v", first.Blocks, before.Blocks)
	}
}

// splitCollections generates n collections of docs+2 documents and splits
// each into its first docs documents and its last two — a corpus and the
// two-document delta that dirties exactly one of its blocks.
func splitCollections(t *testing.T, n, docs int) (heads, tails []*corpus.Collection) {
	t.Helper()
	for i := 0; i < n; i++ {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("person%03d", i), NumDocs: docs + 2, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, &corpus.Collection{Name: col.Name, Docs: col.Docs[:docs], NumPersonas: col.NumPersonas})
		tails = append(tails, &corpus.Collection{Name: col.Name, Docs: col.Docs[docs:], NumPersonas: col.NumPersonas})
	}
	return heads, tails
}

func ingestBatch(t testing.TB, ts *httptest.Server, cols []*corpus.Collection) {
	t.Helper()
	var ack CollectionsResponse
	if code := postJSON(t, ts, "/v1/collections", CollectionsRequest{Collections: cols}, &ack); code != http.StatusAccepted {
		t.Fatalf("ingest status %d", code)
	}
	if job := waitJob(t, ts, ack.JobID); job.Status != "done" {
		t.Fatalf("ingest job %s: %s (%s)", ack.JobID, job.Status, job.Error)
	}
}

// ioDelta is what the data directory cost between two readings.
func ioDelta(before, after map[string]faultfs.IOCounts) map[string]faultfs.IOCounts {
	out := make(map[string]faultfs.IOCounts, len(after))
	for name, a := range after {
		b := before[name]
		out[name] = faultfs.IOCounts{BytesWritten: a.BytesWritten - b.BytesWritten,
			Fsyncs: a.Fsyncs - b.Fsyncs, Renames: a.Renames - b.Renames}
	}
	return out
}

// TestDeltaCommitWritesTheDelta measures, inside the server and through
// the counting filesystem `ersolve serve -data` runs on, what one
// two-document ingest + delta-resolve cycle writes at two corpus sizes.
// The commit must be proportional to the delta, not the corpus: the bytes
// under every artifact directory together barely move when the corpus
// doubles, stay under 6 KB, are a few percent of the first
// (whole-artifact) commit, and the cycle costs exactly two fsyncs —
// journal record and serving record. Nothing is ever written under
// snapshots or indexes. /metrics must report the same totals.
func TestDeltaCommitWritesTheDelta(t *testing.T) {
	commitBytes := func(c map[string]faultfs.IOCounts) (n int64) {
		for _, artifact := range c {
			n += artifact.BytesWritten
		}
		return n
	}
	cycle := func(ncols int) (first, delta map[string]faultfs.IOCounts) {
		counts := faultfs.NewCounting(nil)
		data, err := persist.OpenWithOptions(t.TempDir(), persist.Options{FS: counts, Log: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { data.Close() })
		_, ts := serverPair(t, durableConfig(data))
		heads, tails := splitCollections(t, ncols, 40)
		ingestBatch(t, ts, heads)

		before := counts.Counts()
		resolveOK(t, ts, IncrementalResolveRequest{})
		first = ioDelta(before, counts.Counts())

		before = counts.Counts()
		ingestBatch(t, ts, tails[ncols/2:ncols/2+1])
		got := resolveOK(t, ts, IncrementalResolveRequest{})
		delta = ioDelta(before, counts.Counts())
		if got.Incremental.PreparedBlocks != 1 || got.Incremental.ReusedBlocks != got.Incremental.Blocks-1 {
			t.Fatalf("%d collections: delta resolve = %+v, want exactly one dirty block", ncols, got.Incremental)
		}

		text := scrapeMetrics(t, ts)
		if got := counts.Counts(); len(got) != 4 || got["snapshots"] != (faultfs.IOCounts{}) || got["indexes"] != (faultfs.IOCounts{}) {
			t.Errorf("%d collections: the filesystem counted %+v, want the four artifact directories and nothing under snapshots or indexes", ncols, got)
		}
		for artifact, c := range counts.Counts() {
			label := `{artifact="` + artifact + `"}`
			if b, f, r := sampleValue(t, text, "ersolve_persist_bytes_written_total"+label),
				sampleValue(t, text, "ersolve_persist_fsyncs_total"+label),
				sampleValue(t, text, "ersolve_persist_renames_total"+label); int64(b) != c.BytesWritten || int64(f) != c.Fsyncs || int64(r) != c.Renames {
				t.Errorf("/metrics reports %s = %g bytes, %g fsyncs, %g renames; the filesystem counted %+v", artifact, b, f, r, c)
			}
		}
		return first, delta
	}

	first40, delta40 := cycle(40)
	_, delta80 := cycle(80)
	for _, d := range []struct {
		docs  int
		delta map[string]faultfs.IOCounts
	}{{40 * 40, delta40}, {80 * 40, delta80}} {
		if got := d.delta["indexes"]; got != (faultfs.IOCounts{}) {
			t.Errorf("%d docs: the delta cycle cost %+v under indexes, want nothing", d.docs, got)
		}
		want := map[string]int64{"segments": 1, "serving": 1, "snapshots": 0, "indexes": 0}
		for artifact, n := range want {
			if got := d.delta[artifact].Fsyncs; got != n {
				t.Errorf("%d docs: %d fsyncs under %s in one delta cycle, want %d (all: %+v)", d.docs, got, artifact, n, d.delta)
			}
		}
		if got := d.delta["serving"].Renames; got != 0 {
			t.Errorf("%d docs: the delta commit renamed %d serving files, want an appended record", d.docs, got)
		}
	}
	small, big, whole := commitBytes(delta40), commitBytes(delta80), commitBytes(first40)
	t.Logf("data-directory bytes: first commit at 1,600 docs %d; delta cycle %d at 1,600 docs, %d at 3,200", whole, small, big)
	if small == 0 || float64(big) > 1.2*float64(small) {
		t.Errorf("delta cycle wrote %d bytes at 1,600 docs and %d at 3,200: ratio %.2f, want <= 1.2", small, big, float64(big)/float64(small))
	}
	if small > 6<<10 || big > 6<<10 {
		t.Errorf("delta cycle wrote %d bytes at 1,600 docs and %d at 3,200, want <= %d at both", small, big, 6<<10)
	}
	if float64(small) >= 0.05*float64(whole) {
		t.Errorf("delta commit wrote %d bytes, the first commit %d: %.1f%%, want < 5%%", small, whole, 100*float64(small)/float64(whole))
	}
}

// TestKillWithoutCloseRestartsFromLastCommit is the restart contract after
// a kill: a server is abandoned — no Close, nothing flushed — after ingest
// → resolve → ingest 2 → resolve. Its successor on the same directory
// answers a lookup, before any resolve, with exactly the entity, epoch and
// store version the last resolve acknowledged; and its first resolve keeps
// the checkRestartResolve contract, as after a graceful restart
// (TestIndexSurvivesRestart).
func TestKillWithoutCloseRestartsFromLastCommit(t *testing.T) {
	dir := t.TempDir()
	open := func() *persist.Data {
		t.Helper()
		data, err := persist.OpenWithOptions(dir, persist.Options{Log: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	heads, tails := splitCollections(t, 3, 20)

	data1 := open()
	srv1 := New(durableConfig(data1))
	ts1 := httptest.NewServer(srv1.Handler())
	ingestBatch(t, ts1, heads)
	resolveOK(t, ts1, IncrementalResolveRequest{})
	ingestBatch(t, ts1, tails[1:2])
	last := resolveOK(t, ts1, IncrementalResolveRequest{})
	var before EntityResponse
	if code := getJSON(t, ts1, "/v1/docs/person001:21/entity", &before); code != http.StatusOK || before.Entity == nil {
		t.Fatalf("pre-kill lookup of an appended document = %d, %+v", code, before)
	}
	if before.StoreVersion != last.StoreVersion {
		t.Fatalf("pre-kill lookup serves store version %d, the resolve acknowledged %d", before.StoreVersion, last.StoreVersion)
	}
	// The kill: srv1 is abandoned. Only its descriptors close, as a dead
	// process's would.
	ts1.Close()
	if err := data1.Close(); err != nil {
		t.Fatal(err)
	}

	data2 := open()
	defer data2.Close()
	srv2 := New(durableConfig(data2))
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Close(ctx); err != nil {
			t.Errorf("closing restarted server: %v", err)
		}
	}()

	var after EntityResponse
	if code := getJSON(t, ts2, "/v1/docs/person001:21/entity", &after); code != http.StatusOK || after.Entity == nil {
		t.Fatalf("post-restart lookup before any resolve = %d, %+v", code, after)
	}
	if after.Epoch != before.Epoch || after.StoreVersion != before.StoreVersion ||
		after.Entity.ID != before.Entity.ID || fmt.Sprint(after.Entity.Members) != fmt.Sprint(before.Entity.Members) {
		t.Fatalf("restart changed the answer: epoch %d store version %d entity %+v, acknowledged epoch %d store version %d entity %+v",
			after.Epoch, after.StoreVersion, after.Entity, before.Epoch, before.StoreVersion, before.Entity)
	}
	stats := getStats(t, ts2)
	if runs := stats.value(t, "ersolve_resolve_runs_total"); runs != 0 {
		t.Fatalf("stats: %g resolve runs before the first resolve", runs)
	}
	for _, kind := range []string{"serving_torn_tails", "quarantined_serving", "serving_load_failures"} {
		if n := stats.value(t, "ersolve_degraded_total", "kind", kind); n != 0 {
			t.Errorf("a quiesced kill degraded the serving load: %s = %g", kind, n)
		}
	}

	first := resolveOK(t, ts2, IncrementalResolveRequest{})
	if first.Docs != 62 || first.Incremental.Blocks != 3 {
		t.Errorf("first resolve after the restart saw %d documents in %d blocks, want 62 in 3", first.Docs, first.Incremental.Blocks)
	}
	checkRestartResolve(t, first, last)
}

// cancelOnSnapshot is a document store whose next Snapshot — the resolve
// handler's, taken under the configuration's lock just before the run —
// first calls the armed function: the client hangs up while its resolve is
// in flight. Only a resolve takes snapshots, so the armed call is that
// resolve's.
type cancelOnSnapshot struct {
	store.DocumentStore
	armed func()
}

func (c *cancelOnSnapshot) Snapshot() ([]*corpus.Collection, uint64) {
	if c.armed != nil {
		c.armed()
		c.armed = nil
	}
	return c.DocumentStore.Snapshot()
}

// TestFaultsAtTheCommitPoint injects, at the service level, every way the
// one durable commit of a resolve — the record appended to the
// configuration's serving file — can fail to happen: its write fails, its
// write is torn by a crash, its fsync fails and the unsynced bytes are
// lost, or the client is gone before the run gets there. Each time the
// server answers what it can (200 and a counted save failure, or nothing
// to nobody), is abandoned without Close, and its successor on the same
// directory serves the last committed resolution on lookup, prepares
// exactly the one block the lost commit held on its first resolve — not
// none, not the corpus — and equals a fresh resolve.
func TestFaultsAtTheCommitPoint(t *testing.T) {
	heads, tails := splitCollections(t, 3, 20)
	quiet := func(string, ...any) {}
	for _, tc := range []struct {
		name string
		// arm plans the fault for the delta resolve: on the filesystem, or
		// by returning the context the request is sent under.
		arm func(in *faultfs.Injector, st *cancelOnSnapshot) context.Context
		// saveFailed: the server answered 200 and counted the failure.
		// dropUnsynced: the bytes of a write whose fsync failed do not
		// survive the kill. tornTail: the successor loads a torn record.
		saveFailed, dropUnsynced, tornTail bool
	}{
		{name: "write fails", saveFailed: true,
			arm: func(in *faultfs.Injector, _ *cancelOnSnapshot) context.Context {
				in.FailAt(1)
				return context.Background()
			}},
		{name: "write torn by a crash", saveFailed: true, tornTail: true,
			arm: func(in *faultfs.Injector, _ *cancelOnSnapshot) context.Context {
				in.TornCrashAt(1)
				return context.Background()
			}},
		{name: "fsync fails", saveFailed: true, dropUnsynced: true,
			arm: func(in *faultfs.Injector, _ *cancelOnSnapshot) context.Context {
				in.FailAt(2)
				return context.Background()
			}},
		{name: "client gone before the commit",
			arm: func(_ *faultfs.Injector, st *cancelOnSnapshot) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				st.armed = cancel
				return ctx
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := faultfs.NewInjector(nil)
			data1, err := persist.OpenWithOptions(dir, persist.Options{FS: in, Log: quiet})
			if err != nil {
				t.Fatal(err)
			}
			st := &cancelOnSnapshot{DocumentStore: data1.Store}
			cfg := durableConfig(data1)
			cfg.Store = st
			srv1 := New(cfg)
			ts1 := httptest.NewServer(srv1.Handler())
			ingestBatch(t, ts1, heads)
			committed := resolveOK(t, ts1, IncrementalResolveRequest{})
			var before EntityResponse
			if code := getJSON(t, ts1, "/v1/docs/person001:19/entity", &before); code != http.StatusOK || before.Entity == nil {
				t.Fatalf("lookup after the first commit = %d, %+v", code, before)
			}
			ingestBatch(t, ts1, tails[1:2])
			files, err := filepath.Glob(filepath.Join(dir, "serving", "*.srv"))
			if err != nil || len(files) != 1 {
				t.Fatalf("serving files = %v (%v), want exactly one", files, err)
			}
			info, err := os.Stat(files[0])
			if err != nil {
				t.Fatal(err)
			}

			// The delta resolve, sent straight to the handler so the request
			// context is the test's to cancel.
			req := httptest.NewRequest(http.MethodPost, "/v1/resolve/incremental", strings.NewReader(`{}`))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv1.Handler().ServeHTTP(rec, req.WithContext(tc.arm(in, st)))
			stats := getStats(t, ts1)
			saveFailures := stats.value(t, "ersolve_degraded_total", "kind", "serving_save_failures")
			if tc.saveFailed {
				if !in.Faulted() || rec.Code != http.StatusOK || saveFailures != 1 {
					t.Fatalf("fault fired %v, status %d, %g serving save failures; want the resolve answered 200 with one serving save failure",
						in.Faulted(), rec.Code, saveFailures)
				}
			} else if runs := stats.value(t, "ersolve_resolve_runs_total"); rec.Body.Len() != 0 || runs != 1 || saveFailures != 0 {
				t.Fatalf("canceled resolve wrote %q, %g runs completed, %g serving save failures; want no answer, no second run, no failure",
					rec.Body.String(), runs, saveFailures)
			}

			// The kill: srv1 is abandoned. Only its descriptors close (a
			// crashed filesystem fails the close's sync, as it should).
			ts1.Close()
			if err := data1.Close(); err != nil && !in.Down() {
				t.Fatal(err)
			}
			if tc.dropUnsynced {
				if err := os.Truncate(files[0], info.Size()); err != nil {
					t.Fatal(err)
				}
			}

			data2, err := persist.OpenWithOptions(dir, persist.Options{Log: quiet})
			if err != nil {
				t.Fatal(err)
			}
			defer data2.Close()
			_, ts2 := serverPair(t, durableConfig(data2))
			var after EntityResponse
			if code := getJSON(t, ts2, "/v1/docs/person001:19/entity", &after); code != http.StatusOK || after.Entity == nil {
				t.Fatalf("post-restart lookup = %d, %+v", code, after)
			}
			if after.Epoch != before.Epoch || after.StoreVersion != committed.StoreVersion || !jsonEqual(t, after.Entity, before.Entity) {
				t.Errorf("the successor serves epoch %d store version %d entity %+v, the last commit was epoch %d store version %d entity %+v",
					after.Epoch, after.StoreVersion, after.Entity, before.Epoch, committed.StoreVersion, before.Entity)
			}
			if code := getJSON(t, ts2, "/v1/docs/person001:21/entity", nil); code != http.StatusNotFound {
				t.Errorf("lookup of a document only the lost commit resolved = %d, want 404", code)
			}
			stats = getStats(t, ts2)
			loadFailures := stats.value(t, "ersolve_degraded_total", "kind", "serving_load_failures")
			quarantined := stats.value(t, "ersolve_degraded_total", "kind", "quarantined_serving")
			tornTails := stats.value(t, "ersolve_degraded_total", "kind", "serving_torn_tails")
			if loadFailures != 0 || quarantined != 0 || (tornTails == 1) != tc.tornTail {
				t.Errorf("the successor's load degraded: %g load failures, %g quarantined, %g torn tails; torn tail expected: %v",
					loadFailures, quarantined, tornTails, tc.tornTail)
			}

			first := resolveOK(t, ts2, IncrementalResolveRequest{})
			if first.Incremental.PreparedBlocks != 1 || first.Incremental.ReusedBlocks != first.Incremental.Blocks-1 || first.Incremental.Blocks != 3 {
				t.Errorf("first resolve after the restart = %+v, want exactly the uncommitted block prepared", first.Incremental)
			}
			fresh := resolveOK(t, ts2, IncrementalResolveRequest{Fresh: true})
			if !jsonEqual(t, first.Blocks, fresh.Blocks) {
				t.Errorf("first resolve after the restart differs from a fresh one:\n got %+v\nwant %+v", first.Blocks, fresh.Blocks)
			}
		})
	}
}
