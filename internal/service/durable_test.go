package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/framing"
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
	if first.Blocking.DeltaDocs != first.Docs {
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

// gatedStore is a document store whose Append signals entered and then
// waits for release before it appends.
type gatedStore struct {
	store.DocumentStore
	entered, release chan struct{}
}

func (g gatedStore) Append(cols []*corpus.Collection) (int, error) {
	close(g.entered)
	<-g.release
	return g.DocumentStore.Append(cols)
}

// TestIngestAckIsDurable pins what a 202 from POST /v1/collections means:
// the batch is merged and journaled. The reply waits for the store's
// Append to return, the first read of its status_url is the finished job,
// and a copy of the data directory taken right after the 202 — the disk a
// process killed at that moment leaves, with no Close — opens with the
// batch in it.
func TestIngestAckIsDurable(t *testing.T) {
	dir := t.TempDir()
	quiet := persist.Options{Log: func(string, ...any) {}}
	data, err := persist.OpenWithOptions(dir, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	gate := gatedStore{DocumentStore: data.Store, entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	ts := httptest.NewServer(New(Config{Store: gate, ErrorLog: func(string, ...any) {}}).Handler())
	defer ts.Close()

	col := testCollection(t, 6)
	body, err := json.Marshal(CollectionsRequest{Collections: []*corpus.Collection{col}})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		code int
		ack  CollectionsResponse
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/collections", "application/json", bytes.NewReader(body))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{code: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.ack)
		replied <- r
	}()

	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the ingest never reached the store's Append")
	}
	select {
	case r := <-replied:
		t.Fatalf("POST /v1/collections answered %d while the store's Append was still blocked", r.code)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	r := <-replied
	if r.err != nil || r.code != http.StatusAccepted || r.ack.StatusURL == "" {
		t.Fatalf("ingest = %d %+v (%v), want 202 with a status_url", r.code, r.ack, r.err)
	}

	// Copy the directory before anything else touches the server: this is
	// the disk the 202 vouches for.
	crashed := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + r.ack.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Status string       `json:"status"`
		Error  string       `json:"error"`
		Result IngestResult `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || job.Status != "done" || job.Result.DocsAdded != 6 {
		t.Fatalf("first GET %s = %d %+v (%v), want 200 and a done job that added 6 documents", r.ack.StatusURL, resp.StatusCode, job, err)
	}

	reopened, err := persist.OpenWithOptions(crashed, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Store.Stats(); st.Docs != 6 || st.Collections != 1 {
		t.Fatalf("the directory as of the 202 reopens with %+v, want the acknowledged 6 documents", st)
	}
}

// TestCraftedServingBaseIsQuarantined pins that a -data server starts over
// a newest serving file whose base record is well framed but impossible —
// a collection with a negative document count, which once panicked the
// decoder and so the server's start. The file is quarantined as damage,
// and lookups answer 409 until the next resolve commits.
func TestCraftedServingBaseIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	open := func() *persist.Data {
		t.Helper()
		data, err := persist.OpenWithOptions(dir, persist.Options{Log: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	heads, _ := splitCollections(t, 2, 6)
	data1 := open()
	ts1 := httptest.NewServer(New(durableConfig(data1)).Handler())
	ingestBatch(t, ts1, heads)
	resolveOK(t, ts1, IncrementalResolveRequest{})
	ts1.Close()
	if err := data1.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep the file's magic and key record; replace its base.
	files, err := filepath.Glob(filepath.Join(dir, "serving", "*.srv"))
	if err != nil || len(files) != 1 {
		t.Fatalf("serving files = %v (%v), want one", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	const magicBytes = 8
	head := framing.NewReader(bytes.NewReader(raw[magicBytes:]), magicBytes, int64(len(raw)), framing.MaxPayloadBytes)
	if _, err := head.Next(); err != nil {
		t.Fatalf("reading the key record: %v", err)
	}
	base, err := framing.Record(func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(struct {
			ColNames []string
			ColDocs  []int
		}{[]string{"person000"}, []int{-1}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], append(raw[:head.Offset():head.Offset()], base...), 0o644); err != nil {
		t.Fatal(err)
	}

	data2 := open()
	defer data2.Close()
	ts2 := testServer(t, durableConfig(data2))
	if code := getJSON(t, ts2, "/v1/docs/person000:0/entity", nil); code != http.StatusConflict {
		t.Errorf("lookup over the quarantined serving file = %d, want 409", code)
	}
	stats := getStats(t, ts2)
	for _, kind := range []string{"quarantined_serving", "serving_load_failures"} {
		if n := stats.value(t, "ersolve_degraded_total", "kind", kind); n != 1 {
			t.Errorf("degraded %s = %g, want 1", kind, n)
		}
	}
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Errorf("the crafted file was not quarantined: %v", err)
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

// discardWriter is a ResponseWriter that keeps only the status, so that
// measuring a request's allocations does not count a reply buffer.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// allocated returns the bytes the process allocated while f ran, from
// runtime.MemStats.TotalAlloc.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResolveAllocatesTheDelta is TestDeltaCommitWritesTheDelta for bytes
// allocated instead of bytes written: what a resolve allocates, the handler
// called in process with a discarding writer, at 75, 150 and 300
// collections of 40 documents, the least of several calls each. For a
// no-change resolve and a two-document delta resolve (one dirty block) it
// fits bytes = intercept + slope × collections through the 150 and 300
// points and bounds each term: the slope is what a resolve pays for every
// collection it does not touch, which an O(delta) request keeps small, and
// the intercept is the per-request constant. The 75 point must lie near the
// line, so a term that is not linear in the corpus cannot hide between two
// sizes. A ratio of the two sizes would rise whenever the constant fell,
// failing exactly the changes that remove per-request work. The store stage
// has its own ceiling: store.Snapshot over 150 collections allocates the
// same at 40 and at 80 documents each, since it copies no document.
func TestResolveAllocatesTheDelta(t *testing.T) {
	const calls = 8
	sizes := []int{75, 150, 300}
	resolveBytes := func(ncols int) (nochange, delta uint64) {
		srv, ts := serverPair(t, Config{ErrorLog: func(string, ...any) {}})
		heads, tails := splitCollections(t, ncols, 40)
		ingestBatch(t, ts, heads)
		resolveOK(t, ts, IncrementalResolveRequest{})
		ingestBatch(t, ts, tails[:1])
		if got := resolveOK(t, ts, IncrementalResolveRequest{}); got.Incremental.PreparedBlocks != 1 {
			t.Fatalf("%d collections: a 2-document delta prepared %d blocks, want 1", ncols, got.Incremental.PreparedBlocks)
		}
		// One P for the measured calls: encoding/json's encoder pool then
		// hands every reply the buffer the previous reply returned, instead
		// of sometimes missing one parked in another P's private slot and
		// growing a fresh buffer to the size of the reply.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		h := srv.Handler()
		resolve := func() uint64 {
			req := httptest.NewRequest(http.MethodPost, "/v1/resolve/incremental", strings.NewReader(`{}`))
			req.Header.Set("Content-Type", "application/json")
			w := &discardWriter{header: http.Header{}, status: http.StatusOK}
			n := allocated(func() { h.ServeHTTP(w, req) })
			if w.status != http.StatusOK {
				t.Fatalf("%d collections: resolve status %d", ncols, w.status)
			}
			return n
		}
		nochange, delta = math.MaxUint64, math.MaxUint64
		for i := 0; i < calls; i++ {
			nochange = min(nochange, resolve())
		}
		// The same collections at every size, so that the sizes differ in
		// the corpus a delta resolve does not touch, not in the block it
		// prepares.
		for i := 1; i <= calls; i++ {
			ingestBatch(t, ts, tails[i*sizes[0]/(calls+1):][:1])
			delta = min(delta, resolve())
		}
		if got := resolveOK(t, ts, IncrementalResolveRequest{}); got.Incremental.ReusedBlocks != got.Incremental.Blocks {
			t.Fatalf("%d collections: after the measured resolves %+v, want every block reused", ncols, got.Incremental)
		}
		return nochange, delta
	}
	snapshotBytes := func(docs int) uint64 {
		m := store.NewMemStore()
		cols := make([]*corpus.Collection, 150)
		for c := range cols {
			cols[c] = &corpus.Collection{Name: fmt.Sprintf("person%03d", c), Docs: make([]corpus.Document, docs)}
		}
		if _, err := m.Append(cols); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			least = min(least, allocated(func() { m.Snapshot() }))
		}
		return least
	}

	snap40, snap80 := snapshotBytes(40), snapshotBytes(80)
	t.Logf("store.Snapshot over 150 collections: %d bytes at 40 docs each, %d at 80", snap40, snap80)
	if float64(snap80) > 1.1*float64(snap40) {
		t.Errorf("store.Snapshot allocates %d bytes over 150 collections of 40 docs and %d over 80: ratio %.2f, want <= 1.1 (a snapshot copies no document)",
			snap40, snap80, float64(snap80)/float64(snap40))
	}

	var nochange, delta [3]uint64
	for i, ncols := range sizes {
		nochange[i], delta[i] = resolveBytes(ncols)
	}
	for _, c := range []struct {
		what           string
		bytes          [3]uint64
		interceptBound float64
		checked        bool
	}{
		{"no-change resolve", nochange, noChangeInterceptBound, true},
		// The race detector drops sync.Pool puts at random, and under it a
		// delta resolve's readings scatter by hundreds of kilobytes from
		// run to run: their least is luck, not a measurement.
		{"2-document delta resolve", delta, deltaInterceptBound, !raceEnabled},
	} {
		small, big := float64(c.bytes[1]), float64(c.bytes[2])
		slope := (big - small) / float64(sizes[2]-sizes[1])
		intercept := small - slope*float64(sizes[1])
		line := intercept + slope*float64(sizes[0])
		residual := (float64(c.bytes[0]) - line) / line
		t.Logf("%s: %d, %d, %d bytes at %v collections: slope %.0f bytes per collection, intercept %.0f bytes, %d-collection point %+.2f%% off the line",
			c.what, c.bytes[0], c.bytes[1], c.bytes[2], sizes, slope, intercept, sizes[0], 100*residual)
		if !c.checked {
			t.Logf("%s: bounds not checked under the race detector", c.what)
			continue
		}
		if slope > allocSlopeBound {
			t.Errorf("a %s allocates %.0f bytes more per collection (%d at %d collections, %d at %d), want <= %d",
				c.what, slope, c.bytes[1], sizes[1], c.bytes[2], sizes[2], allocSlopeBound)
		}
		if intercept > c.interceptBound {
			t.Errorf("a %s allocates %.0f bytes whatever the corpus (the intercept through %d at %d collections and %d at %d), want <= %.0f",
				c.what, intercept, c.bytes[1], sizes[1], c.bytes[2], sizes[2], c.interceptBound)
		}
		if math.Abs(residual) > allocResidualBound {
			t.Errorf("a %s allocates %d bytes at %d collections, %+.2f%% off the line through the larger sizes (%.0f), want within %.0f%%",
				c.what, c.bytes[0], sizes[0], 100*residual, line, 100*allocResidualBound)
		}
	}
}

// The bounds TestResolveAllocatesTheDelta holds a resolve to, each just
// above the spread of twenty runs (CHANGES.md): the slope in bytes per
// collection and the smallest size's distance from the line, as a share of
// the line's value there, for both kinds, and each kind's intercept in
// bytes. They only go down.
const (
	allocSlopeBound        = 750
	allocResidualBound     = 0.02
	noChangeInterceptBound = 7_200
	deltaInterceptBound    = 473_500
)

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
