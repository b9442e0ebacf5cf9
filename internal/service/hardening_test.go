package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/store"
)

// TestOversizedBodyIs413 is the regression test for oversized request
// bodies answering 400: exceeding MaxBodyBytes must map
// *http.MaxBytesError to 413 with the JSON error envelope.
func TestOversizedBodyIs413(t *testing.T) {
	ts := testServer(t, Config{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"label": %q, "collections": []}`, strings.Repeat("x", 1024))
	resp, err := http.Post(ts.URL+"/v1/resolve", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("413 body is not the JSON error envelope: %v", err)
	}
	if !strings.Contains(envelope.Error, "256") {
		t.Errorf("413 error %q does not name the limit", envelope.Error)
	}
}

// TestTrailingGarbageRejected is the regression test for decodeJSON
// accepting `{...}junk`: the same body that resolves cleanly must be
// rejected with 400 once trailing bytes follow the JSON value.
func TestTrailingGarbageRejected(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 6)
	clean, err := json.Marshal(ResolveRequest{Collections: []*corpus.Collection{col}})
	if err != nil {
		t.Fatal(err)
	}

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(clean); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean body status = %d, want 200", resp.StatusCode)
	}
	for _, junk := range []string{"junk", "{}", "[1]", `"x"`} {
		resp := post(append(append([]byte(nil), clean...), junk...))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body with trailing %q: status = %d, want 400", junk, resp.StatusCode)
			continue
		}
		var envelope errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("400 body is not the JSON error envelope: %v", err)
		}
		if !strings.Contains(envelope.Error, "trailing") {
			t.Errorf("error %q does not mention trailing data", envelope.Error)
		}
	}
	// Trailing whitespace and newlines remain fine (curl pipelines add
	// them routinely).
	if resp := post(append(append([]byte(nil), clean...), " \n\t"...)); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace status = %d, want 200", resp.StatusCode)
	}
}

// TestBlocksNeverNull is the regression test for `"blocks": null`: an
// empty result set must marshal as an empty array.
func TestBlocksNeverNull(t *testing.T) {
	blocks, avg := blockResults(nil, true)
	if avg != nil {
		t.Fatalf("average over no blocks = %+v", avg)
	}
	buf, err := json.Marshal(ResolveResponse{Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"blocks": []`) && !strings.Contains(string(buf), `"blocks":[]`) {
		t.Fatalf("empty result marshals as %s, want \"blocks\": []", buf)
	}
}

// TestJobRecordEvictedIs410 is the regression test for unbounded job
// retention at the HTTP layer: with a 1-record history, the older of two
// finished ingest jobs answers 410 Gone (not 404), naming the server's
// fixed history size, while truly unknown IDs stay 404.
func TestJobRecordEvictedIs410(t *testing.T) {
	srv, ts := serverPair(t, Config{})
	srv.jobs = store.NewQueue(1)
	col := testCollection(t, 8)

	postBatch := func(from, to int) string {
		t.Helper()
		body, err := json.Marshal(CollectionsRequest{Collections: []*corpus.Collection{{
			Name: col.Name, Docs: col.Docs[from:to], NumPersonas: col.NumPersonas,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/collections", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		var ack CollectionsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return ack.JobID
	}
	jobStatus := func(id string) (int, store.JobStatus) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job store.Job
		_ = json.NewDecoder(resp.Body).Decode(&job)
		return resp.StatusCode, job.Status
	}

	first := postBatch(0, 4)
	second := postBatch(4, 8)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, status := jobStatus(second); code == http.StatusOK && status == store.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second ingest job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + first)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Errorf("evicted job %s status = %d, want 410", first, resp.StatusCode)
	}
	// The history is the constant jobHistory, not a setting: the body
	// names its size and asks for nothing to be raised.
	if msg := string(body); !strings.Contains(msg, "1024") || strings.Contains(msg, "raise") {
		t.Errorf("evicted job body %s, want the 1024-record history named and no limit to raise", msg)
	}
	if code, _ := jobStatus("j999"); code != http.StatusNotFound {
		t.Errorf("never-issued job status = %d, want 404", code)
	}
}

// TestStatePinnedDuringSlowRun is the regression test for the snapshot
// LRU evicting a state whose run is still in flight. A slow run holds
// the state's lock (exactly as a slow blocker would mid-request) while
// other configurations churn the LRU past its cap; the pinned state must
// survive, and a concurrent same-config acquire must get the same state
// object — the serialize-per-config invariant.
func TestStatePinnedDuringSlowRun(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(func() { srv.Close(context.Background()) })
	knobs := func(seed int64) string { return fmt.Sprintf("seed %d", seed) }
	// acquire takes a configuration's state; the default blocking
	// configuration builds an empty key index, which cannot fail.
	bc, err := pipeline.ParseBlocking("", "")
	if err != nil {
		t.Fatal(err)
	}
	acquire := func(seed int64) *incrementalState {
		st, err := srv.acquireState(knobs(seed), bc)
		if err != nil {
			t.Error(err)
		}
		return st
	}
	// churn acquires and releases n configurations never used before.
	next := int64(2)
	churn := func(n int) {
		for ; n > 0; n-- {
			srv.releaseState(acquire(next))
			next++
		}
	}

	// The slow run: acquired and mid-flight (lock held).
	slow := acquire(1)
	slow.mu.Lock()

	// Meanwhile other configurations hammer the LRU well past its cap.
	churn(2 * maxStates)

	// A same-config request during the slow run must serialize on the
	// SAME state object, not conjure a second one.
	sameCh := make(chan *incrementalState)
	go func() {
		st := acquire(1)
		st.mu.Lock() // blocks until the slow run finishes
		st.mu.Unlock()
		sameCh <- st
	}()

	select {
	case st := <-sameCh:
		t.Fatalf("same-config acquire finished while the slow run held the lock (got %p, slow %p)", st, slow)
	case <-time.After(20 * time.Millisecond):
		// Correct: it is blocked on the pinned state's lock.
	}

	slow.mu.Unlock()
	srv.releaseState(slow)
	st := <-sameCh
	if st != slow {
		t.Fatalf("concurrent same-config run got state %p, want the pinned %p", st, slow)
	}
	srv.releaseState(st)

	// Once unpinned, the LRU may evict it again: churn a full cap of new
	// configurations past it, then re-acquire.
	churn(maxStates)
	if again := acquire(1); again == slow {
		t.Error("unpinned state survived LRU eviction past the cap")
	} else {
		srv.releaseState(again)
	}
}

// memServingStore is an in-memory ServingStore for testing the service's
// commit and restart wiring without a disk: every save is encoded and
// every load decoded, like a file, and the calls are counted.
type memServingStore struct {
	mu                           sync.Mutex
	files                        map[string][]byte
	latest                       string
	saves, latestLoads, keyLoads int
}

func (m *memServingStore) SaveServing(key string, x *serving.Index) error {
	var buf bytes.Buffer
	if err := x.EncodeTo(&buf); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files == nil {
		m.files = make(map[string][]byte)
	}
	m.files[key], m.latest = buf.Bytes(), key
	m.saves++
	return nil
}

func (m *memServingStore) LoadLatestServing() (*serving.Index, error) {
	m.mu.Lock()
	buf, ok := m.files[m.latest]
	m.latestLoads++
	m.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return serving.Decode(bytes.NewReader(buf))
}

func (m *memServingStore) LoadServing(key string) (*serving.Index, error) {
	m.mu.Lock()
	buf, ok := m.files[key]
	m.keyLoads++
	m.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return serving.Decode(bytes.NewReader(buf))
}

// TestSnapshotReloadAcrossServers exercises the restart wiring end to
// end at the service layer: a second Server sharing the first one's
// store and serving store (a restart, minus the process boundary) must
// answer its first incremental request with every block reused and
// clusters identical to the pre-restart run — from the index it published
// at startup when that was committed under the requesting configuration,
// with no second load, and from the configuration's own file otherwise.
func TestSnapshotReloadAcrossServers(t *testing.T) {
	shared := store.NewMemStore()
	saved := &memServingStore{}
	col := testCollection(t, 20)
	if _, err := shared.Append([]*corpus.Collection{col}); err != nil {
		t.Fatal(err)
	}

	incremental := func(ts *httptest.Server, body string) IncrementalResolveResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("incremental status = %d", resp.StatusCode)
		}
		var out IncrementalResolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sameBlocks := func(what string, want, got IncrementalResolveResponse) {
		t.Helper()
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("%s: block count changed: %d vs %d", what, len(got.Blocks), len(want.Blocks))
		}
		for i := range want.Blocks {
			if !jsonEqual(t, want.Blocks[i], got.Blocks[i]) {
				t.Errorf("%s: block %q changed: %+v vs %+v", what, want.Blocks[i].Name, want.Blocks[i], got.Blocks[i])
			}
		}
	}

	ts1 := testServer(t, Config{Store: shared, Serving: saved})
	other := incremental(ts1, `{"seed": 8}`)
	before := incremental(ts1, `{"seed": 9}`)
	if before.Incremental.ReusedBlocks != 0 {
		t.Fatalf("first-ever run reused %d blocks", before.Incremental.ReusedBlocks)
	}
	if saved.saves != 2 {
		t.Fatalf("%d serving commits after two successful incremental runs, want 2", saved.saves)
	}

	// The restarted server publishes the newest commit, seed 9's, and that
	// configuration's first run resumes from it: nothing is loaded twice.
	saved.keyLoads = 0 // each configuration's first-ever run looked for a file
	ts2 := testServer(t, Config{Store: shared, Serving: saved})
	after := incremental(ts2, `{"seed": 9}`)
	if after.Incremental.ReusedBlocks != after.Incremental.Blocks || after.Incremental.Blocks == 0 {
		t.Fatalf("post-restart stats = %+v, want every block reused", after.Incremental)
	}
	if saved.latestLoads != 2 || saved.keyLoads != 0 {
		t.Fatalf("restart made %d latest and %d keyed loads, want the startup load (one per server) and no second decode",
			saved.latestLoads, saved.keyLoads)
	}
	sameBlocks("seed 9 across the restart", before, after)

	// Another configuration's previous run is not the hot index: it comes
	// from that configuration's own file, once.
	afterOther := incremental(ts2, `{"seed": 8}`)
	if afterOther.Incremental.ReusedBlocks != afterOther.Incremental.Blocks || saved.keyLoads != 1 {
		t.Fatalf("post-restart stats of the older configuration = %+v after %d keyed loads, want every block reused from one load",
			afterOther.Incremental, saved.keyLoads)
	}
	sameBlocks("seed 8 across the restart", other, afterOther)
	incremental(ts2, `{"seed": 8}`)
	if saved.keyLoads != 1 {
		t.Errorf("a configuration's second run loaded its file again (%d keyed loads)", saved.keyLoads)
	}

	// "fresh": true ignores the persisted resolution but still commits a
	// new one, and its clusters agree with the reused ones (the
	// equivalence guarantee).
	ts3 := testServer(t, Config{Store: shared, Serving: saved})
	saves := saved.saves
	fresh := incremental(ts3, `{"seed": 9, "fresh": true}`)
	if fresh.Incremental.ReusedBlocks != 0 {
		t.Fatalf("fresh run reused %d blocks", fresh.Incremental.ReusedBlocks)
	}
	if saved.saves != saves+1 {
		t.Errorf("a fresh run made %d serving commits, want 1", saved.saves-saves)
	}
	sameBlocks("fresh against persisted-incremental", before, fresh)
}

// TestFreshRunDoesNotForfeitPersistedSnapshot pins the load-once logic:
// a "fresh" request skips the persisted-resolution load but must not
// consume the single load attempt. The regression scenario: the first
// post-restart request for a configuration is fresh and FAILS (times
// out), leaving no in-memory snapshot — the next non-fresh request must
// still load the configuration's persisted serving index and reuse every
// block, not re-prepare the corpus for the rest of the process lifetime.
func TestFreshRunDoesNotForfeitPersistedSnapshot(t *testing.T) {
	shared := store.NewMemStore()
	saved := &memServingStore{}
	if _, err := shared.Append([]*corpus.Collection{testCollection(t, 60)}); err != nil {
		t.Fatal(err)
	}

	// Seed the persisted resolution, commit another configuration after it
	// so the restarted server's hot index is not seed 3's, then "restart".
	ts1 := testServer(t, Config{Store: shared, Serving: saved})
	for _, body := range []string{`{"seed": 3}`, `{"seed": 4}`} {
		resp, err := http.Post(ts1.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding run %s status = %d", body, resp.StatusCode)
		}
	}

	saved.keyLoads = 0 // each configuration's first-ever run looked for a file
	// The restarted server is driven in-process, so that a request carries
	// the context its client gave it.
	srv := New(Config{Store: shared, Serving: saved})
	t.Cleanup(func() {
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	serve := func(ctx context.Context, body string) (int, IncrementalResolveResponse) {
		t.Helper()
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/resolve/incremental", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		var out IncrementalResolveResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
		return rec.Code, out
	}
	// First post-restart request: fresh, from a client whose deadline has
	// passed before the run starts, so the run dies with 504 and no
	// snapshot in memory however fast the machine is. (A timeout_ms budget
	// races the clock: a 60-document block can resolve inside 1 ms.)
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if code, _ := serve(expired, `{"seed": 3, "fresh": true}`); code != http.StatusGatewayTimeout {
		t.Fatalf("sabotaged fresh run status = %d, want 504", code)
	}
	if saved.keyLoads != 0 {
		t.Fatalf("the fresh request loaded the persisted serving index (%d keyed loads)", saved.keyLoads)
	}
	// The persisted resolution must still be loadable now.
	code, got := serve(context.Background(), `{"seed": 3}`)
	if code != http.StatusOK {
		t.Fatalf("post-fresh run status = %d", code)
	}
	if got.Incremental.ReusedBlocks != got.Incremental.Blocks || got.Incremental.Blocks == 0 || saved.keyLoads != 1 {
		t.Fatalf("post-fresh stats = %+v after %d keyed loads, want full reuse from the persisted serving index",
			got.Incremental, saved.keyLoads)
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}
