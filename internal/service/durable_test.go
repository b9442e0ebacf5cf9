package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/persist"
)

// durableConfig is the service over every backend of one data directory,
// as `ersolve serve -data` wires it.
func durableConfig(data *persist.Data) Config {
	return Config{Store: data.Store, Snapshots: data.Snapshots, Indexes: data.Indexes,
		ANNIndexes: data.ANN, Serving: data.Serving, ErrorLog: func(string, ...any) {}}
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

func ingestBatch(t *testing.T, ts *httptest.Server, cols []*corpus.Collection) {
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
// The commit must be proportional to the delta, not the corpus: the
// serving and index bytes barely move when the corpus doubles, they are a
// few percent of the first (whole-artifact) commit, no blocking index is
// rewritten, and the cycle costs exactly four fsyncs — journal record,
// serving record, snapshot file and snapshot directory. /metrics must
// report the same totals.
func TestDeltaCommitWritesTheDelta(t *testing.T) {
	commitBytes := func(c map[string]faultfs.IOCounts) int64 {
		return c["serving"].BytesWritten + c["indexes"].BytesWritten
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
		want := map[string]int64{"segments": 1, "serving": 1, "snapshots": 2, "indexes": 0}
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
	t.Logf("serving+indexes bytes: first commit at 1,600 docs %d; delta commit %d at 1,600 docs, %d at 3,200", whole, small, big)
	if small == 0 || float64(big) > 1.2*float64(small) {
		t.Errorf("delta commit wrote %d bytes at 1,600 docs and %d at 3,200: ratio %.2f, want <= 1.2", small, big, float64(big)/float64(small))
	}
	if float64(small) >= 0.05*float64(whole) {
		t.Errorf("delta commit wrote %d bytes, the first commit %d: %.1f%%, want < 5%%", small, whole, 100*float64(small)/float64(whole))
	}
}

// TestKillWithoutCloseRestartsFromLastCommit is the restart contract after
// the resolve path stopped saving the blocking index on every advance: a
// server is abandoned — no Close, nothing flushed — after ingest → resolve
// → ingest 2 → resolve. Its successor on the same directory answers a
// lookup, before any resolve, with exactly the entity, epoch and store
// version the last resolve acknowledged; and its first resolve reuses every
// block, having re-keyed from the journal the two documents the saved
// blocking index trails by — not none, not the corpus.
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
	var stats StatsResponse
	if code := getJSON(t, ts2, "/v1/stats", &stats); code != http.StatusOK || stats.Resolve.Runs != 0 {
		t.Fatalf("stats = %d, %d resolve runs before the first resolve", code, stats.Resolve.Runs)
	}
	if d := stats.Degraded; d.ServingTornTails != 0 || d.QuarantinedServing != 0 || d.ServingLoadFailures != 0 {
		t.Errorf("a quiesced kill degraded the serving load: %+v", d)
	}

	first := resolveOK(t, ts2, IncrementalResolveRequest{})
	if first.Incremental.ReusedBlocks != first.Incremental.Blocks || first.Incremental.Blocks != 3 {
		t.Errorf("first resolve after the restart = %+v, want every block reused", first.Incremental)
	}
	if first.Blocking.Indexer != "index" || first.Blocking.Fallback || first.Blocking.DeltaDocs != 2 {
		t.Errorf("first resolve after the restart blocked with %+v; want the saved index, 2 documents re-keyed from the journal", first.Blocking)
	}
}
