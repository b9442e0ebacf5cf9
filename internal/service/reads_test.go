package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/persist"
	"repro/internal/serving"
	"repro/internal/store"
)

// getJSON GETs path and decodes the body into out, returning the status.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

// resolveOK posts an incremental resolve and requires 200.
func resolveOK(t *testing.T, ts *httptest.Server, req IncrementalResolveRequest) IncrementalResolveResponse {
	t.Helper()
	var out IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", req, &out); code != http.StatusOK {
		t.Fatalf("incremental resolve = %d", code)
	}
	return out
}

func TestReadEndpointsServeCommittedResolution(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 24)

	// Before any committed resolution the read path answers 409, not
	// empty results.
	var errOut errorResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &errOut); code != http.StatusConflict {
		t.Fatalf("pre-commit doc lookup = %d, want 409 (%+v)", code, errOut)
	}
	if code := getJSON(t, ts, "/v1/search?name=rivera", &errOut); code != http.StatusConflict {
		t.Fatalf("pre-commit search = %d, want 409", code)
	}

	ingestCollection(t, ts, col)
	resolveOK(t, ts, IncrementalResolveRequest{})

	// Every ingested document answers with the cluster that contains it.
	var byDoc EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &byDoc); code != http.StatusOK {
		t.Fatalf("doc lookup = %d", code)
	}
	if byDoc.Entity == nil || byDoc.Entity.ID == "" {
		t.Fatalf("doc lookup returned no entity: %+v", byDoc)
	}
	found := false
	for _, m := range byDoc.Entity.Members {
		if m.Collection == "rivera" && m.Pos == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cluster %q does not contain (rivera, 0): %+v", byDoc.Entity.ID, byDoc.Entity.Members)
	}

	// The stable ID round-trips through /v1/entities/{id}.
	var byID EntityResponse
	if code := getJSON(t, ts, "/v1/entities/"+byDoc.Entity.ID, &byID); code != http.StatusOK {
		t.Fatalf("entity lookup = %d", code)
	}
	if byID.Entity.ID != byDoc.Entity.ID || len(byID.Entity.Members) != len(byDoc.Entity.Members) {
		t.Fatalf("entity lookup disagrees with doc lookup: %+v vs %+v", byID.Entity, byDoc.Entity)
	}
	if byID.Epoch != byDoc.Epoch || byID.StoreVersion != byDoc.StoreVersion {
		t.Errorf("epoch/version mismatch: %+v vs %+v", byID, byDoc)
	}

	// Search by the collection name finds the block's clusters.
	var search SearchResponse
	if code := getJSON(t, ts, "/v1/search?name=rivera", &search); code != http.StatusOK {
		t.Fatalf("search = %d", code)
	}
	if len(search.Hits) == 0 {
		t.Fatal("search for the ingested name found nothing")
	}
	for _, h := range search.Hits {
		if h.Matched < 1 || h.Entity == nil {
			t.Fatalf("bad hit: %+v", h)
		}
	}

	// Misses and malformed requests.
	if code := getJSON(t, ts, "/v1/entities/no-such-id", &errOut); code != http.StatusNotFound {
		t.Errorf("unknown entity = %d, want 404", code)
	}
	if code := getJSON(t, ts, "/v1/docs/rivera:9999/entity", &errOut); code != http.StatusNotFound {
		t.Errorf("out-of-range doc = %d, want 404", code)
	}
	if code := getJSON(t, ts, "/v1/docs/rivera:abc/entity", &errOut); code != http.StatusBadRequest {
		t.Errorf("non-numeric pos = %d, want 400", code)
	}
	if code := getJSON(t, ts, "/v1/docs/rivera/entity", &errOut); code != http.StatusBadRequest {
		t.Errorf("ref without colon = %d, want 400", code)
	}
	if code := getJSON(t, ts, "/v1/search", &errOut); code != http.StatusBadRequest {
		t.Errorf("search without name = %d, want 400", code)
	}
	if code := getJSON(t, ts, "/v1/search?name=rivera&limit=-2", &errOut); code != http.StatusBadRequest {
		t.Errorf("negative limit = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/entities/"+byDoc.Entity.ID, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST entity = %d, want 405", resp.StatusCode)
	}

	// /v1/stats reports the serving index, read counters and lookup
	// latency observations.
	stats := getStats(t, ts)
	if stats.value(t, "ersolve_serving_available") != 1 || stats.value(t, "ersolve_serving_epoch") == 0 {
		t.Errorf("serving gauges = %+v, want an available index", stats)
	}
	if stats.value(t, "ersolve_serving_docs") != 24 || stats.value(t, "ersolve_serving_stale") != 0 {
		t.Errorf("serving gauges = %+v, want 24 docs, not stale", stats)
	}
	reads := func(endpoint string) float64 { return stats.value(t, "ersolve_reads_total", "endpoint", endpoint) }
	if reads("entities") < 1 || reads("docs") < 2 || reads("search") < 1 {
		t.Errorf("read counters = %+v", stats["ersolve_reads_total"])
	}
	if n := stats.stageCount(t, "lookup"); n < 3 {
		t.Errorf("lookup latency count = %d, want >= 3", n)
	}
	if stats.stageCount(t, "cluster") == 0 || stats.stageCount(t, "block") == 0 {
		t.Errorf("pipeline stage histograms empty: %+v", stats["ersolve_stage_latency_seconds"])
	}
}

// TestReadRepliesAreCompactJSON pins the read path to the encoder every
// other reply uses: each read endpoint answers json.Marshal(reply) plus a
// newline, and a repeat of the request within one serving epoch answers
// the same bytes.
func TestReadRepliesAreCompactJSON(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 20))
	resolveOK(t, ts, IncrementalResolveRequest{})
	var byDoc EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:1/entity", &byDoc); code != http.StatusOK {
		t.Fatalf("doc lookup = %d", code)
	}
	lookup, err := json.Marshal(LookupRequest{IDs: []string{byDoc.Entity.ID}, Refs: []string{"rivera:2"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path  string
		post  []byte
		reply any
	}{
		{"/v1/docs/rivera:0/entity", nil, new(EntityResponse)},
		{"/v1/entities/" + byDoc.Entity.ID, nil, new(EntityResponse)},
		{"/v1/search?name=rivera", nil, new(SearchResponse)},
		{"/v1/entities/lookup", lookup, new(LookupResponse)},
	} {
		var first []byte
		for _, pass := range []string{"first", "repeat"} {
			var resp *http.Response
			var err error
			if c.post != nil {
				resp, err = http.Post(ts.URL+c.path, "application/json", bytes.NewReader(c.post))
			} else {
				resp, err = http.Get(ts.URL + c.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s (%s): status %d, read error %v", c.path, pass, resp.StatusCode, err)
			}
			if err := json.Unmarshal(body, c.reply); err != nil {
				t.Fatalf("%s (%s): %v", c.path, pass, err)
			}
			want, err := json.Marshal(c.reply)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(body, want) {
				t.Errorf("%s (%s): body is not compact JSON + newline:\n got %q\nwant %q", c.path, pass, body, want)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s: repeat differs from the first reply:\n got %q\nwant %q", c.path, body, first)
			}
		}
	}
}

// TestServingRestartServesWithZeroRecompute is the restart half of the
// serving contract: a new server over the same data directory publishes
// the persisted serving index at construction and answers entity lookups
// immediately — no resolve, no pipeline run, zero recompute.
func TestServingRestartServesWithZeroRecompute(t *testing.T) {
	dir := t.TempDir()
	data1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: data1.Store, Serving: data1.Serving})
	ts1 := httptest.NewServer(srv1.Handler())
	ingestCollection(t, ts1, testCollection(t, 20))
	resolveOK(t, ts1, IncrementalResolveRequest{})

	var before EntityResponse
	if code := getJSON(t, ts1, "/v1/docs/rivera:5/entity", &before); code != http.StatusOK {
		t.Fatalf("pre-restart lookup = %d", code)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := data1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory as a "restarted" process.
	data2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	srv2 := New(Config{Store: data2.Store, Serving: data2.Serving})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Close(ctx); err != nil {
			t.Errorf("closing restarted server: %v", err)
		}
	}()

	stats := getStats(t, ts2)
	if stats.value(t, "ersolve_serving_available") != 1 {
		t.Fatal("restarted server has no serving index before any resolve")
	}
	if runs, clusters := stats.value(t, "ersolve_resolve_runs_total"), stats.stageCount(t, "cluster"); runs != 0 || clusters != 0 {
		t.Fatalf("restarted server recomputed: %g resolve runs, %d cluster stages", runs, clusters)
	}
	var after EntityResponse
	if code := getJSON(t, ts2, "/v1/docs/rivera:5/entity", &after); code != http.StatusOK {
		t.Fatalf("post-restart lookup = %d", code)
	}
	if after.Entity.ID != before.Entity.ID || len(after.Entity.Members) != len(before.Entity.Members) {
		t.Fatalf("restart changed the answer: %+v vs %+v", after.Entity, before.Entity)
	}
	if code := getJSON(t, ts2, "/v1/entities/"+before.Entity.ID, &after); code != http.StatusOK {
		t.Fatalf("post-restart entity lookup = %d", code)
	}
}

// TestReadAfterCommitConsistency interleaves ingest batches, incremental
// resolves and concurrent entity lookups (run it with -race). The pinned
// invariant is the staleness contract: a lookup must never observe a
// cluster referencing a document position beyond the store snapshot the
// serving index was built from — the response's store_version bounds every
// member position it may mention.
func TestReadAfterCommitConsistency(t *testing.T) {
	shared := store.NewMemStore()
	ts := testServer(t, Config{Store: shared})
	col := testCollection(t, 40)

	// docsAt maps store version -> total docs committed at that version.
	// The writer records each version right after its ingest, before the
	// resolve that can publish it.
	var docsMu sync.Mutex
	docsAt := map[uint64]int{0: 0}
	ingest := func(batch *corpus.Collection) {
		t.Helper()
		ingestCollection(t, ts, batch)
		st := shared.Stats()
		docsMu.Lock()
		docsAt[st.Version] = st.Docs
		docsMu.Unlock()
	}

	const batches = 8
	per := len(col.Docs) / batches
	ingest(&corpus.Collection{
		Name: col.Name, Docs: col.Docs[:per], NumPersonas: col.NumPersonas,
	})
	resolveOK(t, ts, IncrementalResolveRequest{})
	var first EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &first); code != http.StatusOK {
		t.Fatalf("first doc lookup = %d", code)
	}

	checkEntity := func(e *serving.Cluster, version uint64) error {
		docsMu.Lock()
		limit, known := docsAt[version]
		docsMu.Unlock()
		if !known {
			return fmt.Errorf("response claims unknown store version %d", version)
		}
		for _, m := range e.Members {
			if m.Pos >= limit {
				return fmt.Errorf("cluster %s references (%s, %d) but store version %d had only %d docs",
					e.ID, m.Collection, m.Pos, version, limit)
			}
		}
		return nil
	}

	done := make(chan struct{})
	errCh := make(chan error, 8)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				pos := (w*13 + i) % len(col.Docs)
				resp, err := client.Get(fmt.Sprintf("%s/v1/docs/rivera:%d/entity", ts.URL, pos))
				if err != nil {
					report(err)
					return
				}
				var out EntityResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						report(decErr)
						return
					}
					if err := checkEntity(out.Entity, out.StoreVersion); err != nil {
						report(err)
						return
					}
				case http.StatusNotFound:
					// The document is beyond the served resolution — the
					// contract's honest answer while ingest runs ahead.
				default:
					report(fmt.Errorf("doc lookup = %d", resp.StatusCode))
					return
				}
			}
		}(w)
	}

	// Writer: alternate ingest batches and incremental resolves while the
	// readers hammer the hot index.
	for b := 1; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = len(col.Docs)
		}
		ingest(&corpus.Collection{
			Name: col.Name, Docs: col.Docs[lo:hi], NumPersonas: col.NumPersonas,
		})
		resolveOK(t, ts, IncrementalResolveRequest{})
	}
	close(done)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// After the dust settles the last document is served.
	var out EntityResponse
	if code := getJSON(t, ts, fmt.Sprintf("/v1/docs/rivera:%d/entity", len(col.Docs)-1), &out); code != http.StatusOK {
		t.Fatalf("final doc lookup = %d", code)
	}
	if err := checkEntity(out.Entity, out.StoreVersion); err != nil {
		t.Fatal(err)
	}
	// A lookup made before the writes is answered from the resolution
	// committed after them.
	var again EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &again); code != http.StatusOK {
		t.Fatalf("repeat doc lookup = %d", code)
	}
	if again.Epoch <= first.Epoch || again.StoreVersion <= first.StoreVersion {
		t.Fatalf("epoch/store version did not advance: %d/%d -> %d/%d",
			first.Epoch, first.StoreVersion, again.Epoch, again.StoreVersion)
	}
}

// TestSearchRejectsTokenFreeQueries pins the whitespace-query fix: a
// ?name= value that tokenizes to nothing (whitespace, punctuation, or
// only sub-minimum tokens) must be rejected with the same 400 as a
// missing query — before this, "%20" slipped past the empty-string check
// and ran a zero-token search that could never match anything.
func TestSearchRejectsTokenFreeQueries(t *testing.T) {
	srv, ts := serverPair(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))
	resolveOK(t, ts, IncrementalResolveRequest{})

	for _, q := range []string{
		"name=",          // empty
		"name=%20",       // single space
		"name=%20%09%20", // whitespace only
		"name=...",       // punctuation only
		"name=a",         // below the minimum token length
	} {
		var errOut errorResponse
		if code := getJSON(t, ts, "/v1/search?"+q, &errOut); code != http.StatusBadRequest {
			t.Errorf("search ?%s = %d, want 400", q, code)
		}
	}
	// Token-free queries never reach the serving index.
	if got := srv.counters.readSearch.Load(); got != 0 {
		t.Errorf("readSearch = %d after rejected queries, want 0", got)
	}
	// A real query still works.
	var search SearchResponse
	if code := getJSON(t, ts, "/v1/search?name=rivera", &search); code != http.StatusOK {
		t.Fatalf("search = %d, want 200", code)
	}
}

// TestDocEntityRequiresCanonicalPosition pins one URL per document:
// strconv.Atoi accepted "+3" and "03" for /v1/docs/{ref}/entity. Only the
// canonical digit-only spelling may answer 200.
func TestDocEntityRequiresCanonicalPosition(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))
	resolveOK(t, ts, IncrementalResolveRequest{})

	var canonical EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:3/entity", &canonical); code != http.StatusOK {
		t.Fatalf("canonical lookup = %d", code)
	}

	for _, ref := range []string{
		"rivera:+3", "rivera:03", "rivera:003", "rivera:%203", "rivera:3%20", "rivera:-0",
	} {
		var errOut errorResponse
		if code := getJSON(t, ts, "/v1/docs/"+ref+"/entity", &errOut); code != http.StatusBadRequest {
			t.Errorf("lookup %q = %d, want 400", ref, code)
		}
	}
	// "0" itself stays canonical.
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &struct{}{}); code != http.StatusOK {
		t.Errorf("pos 0 lookup rejected")
	}
}

// TestEntityLookupBatch pins POST /v1/entities/lookup: many IDs and doc
// refs answered in one serving-index pass, per-item misses as null
// entities, an identical repeat answering identically, and the request
// bounds (emptiness, item cap, ref syntax) as 400s.
func TestEntityLookupBatch(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 30))
	resolveOK(t, ts, IncrementalResolveRequest{})

	var byDoc EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &byDoc); code != http.StatusOK {
		t.Fatalf("seed lookup = %d", code)
	}
	id := byDoc.Entity.ID

	req := LookupRequest{
		IDs:  []string{id, "no-such-id"},
		Refs: []string{"rivera:0", "rivera:9999"},
	}
	var out LookupResponse
	if code := postJSON(t, ts, "/v1/entities/lookup", req, &out); code != http.StatusOK {
		t.Fatalf("lookup = %d", code)
	}
	if len(out.Results) != 4 || out.Found != 2 {
		t.Fatalf("lookup answered %d results with %d found, want 4/2", len(out.Results), out.Found)
	}
	if out.Results[0].ID != id || out.Results[0].Entity == nil || out.Results[0].Entity.ID != id {
		t.Errorf("results[0] = %+v, want the seed entity by ID", out.Results[0])
	}
	if out.Results[1].ID != "no-such-id" || out.Results[1].Entity != nil {
		t.Errorf("results[1] = %+v, want a null-entity miss", out.Results[1])
	}
	if out.Results[2].Ref != "rivera:0" || out.Results[2].Entity == nil || out.Results[2].Entity.ID != id {
		t.Errorf("results[2] = %+v, want the same entity by ref", out.Results[2])
	}
	if out.Results[3].Ref != "rivera:9999" || out.Results[3].Entity != nil {
		t.Errorf("results[3] = %+v, want a null-entity miss", out.Results[3])
	}
	if out.Epoch == 0 {
		t.Errorf("lookup response carries no serving epoch")
	}

	var repeat LookupResponse
	if code := postJSON(t, ts, "/v1/entities/lookup", req, &repeat); code != http.StatusOK {
		t.Fatalf("repeat lookup = %d", code)
	}
	if !reflect.DeepEqual(repeat, out) {
		t.Fatalf("repeat diverges: %+v, first %+v", repeat, out)
	}
	if n := getStats(t, ts).value(t, "ersolve_reads_total", "endpoint", "lookup"); n != 2 {
		t.Errorf("lookup reads = %g, want 2", n)
	}

	// Bounds and syntax.
	var errOut errorResponse
	if code := postJSON(t, ts, "/v1/entities/lookup", LookupRequest{}, &errOut); code != http.StatusBadRequest {
		t.Errorf("empty lookup = %d, want 400", code)
	}
	over := LookupRequest{IDs: make([]string, maxLookupItems+1)}
	for i := range over.IDs {
		over.IDs[i] = "x"
	}
	if code := postJSON(t, ts, "/v1/entities/lookup", over, &errOut); code != http.StatusBadRequest {
		t.Errorf("oversized lookup = %d, want 400", code)
	}
	for _, ref := range []string{"rivera", "rivera:+3", "rivera:03", "rivera:x"} {
		var batchErr, docErr errorResponse
		if code := postJSON(t, ts, "/v1/entities/lookup", LookupRequest{Refs: []string{ref}}, &batchErr); code != http.StatusBadRequest {
			t.Errorf("ref %q = %d, want 400", ref, code)
		}
		// Both lookup endpoints parse a ref one way and reject it alike.
		if code := getJSON(t, ts, "/v1/docs/"+ref+"/entity", &docErr); code != http.StatusBadRequest || docErr != batchErr {
			t.Errorf("GET /v1/docs/%s/entity = %d %q, the batch lookup answered 400 %q", ref, code, docErr.Error, batchErr.Error)
		}
	}

	// GET is not the batch verb.
	if code := getJSON(t, ts, "/v1/entities/lookup", &errOut); code != http.StatusMethodNotAllowed {
		t.Errorf("GET lookup = %d, want 405", code)
	}
}

// TestEntityLookupBeforeCommit pins the 409 contract: the batch endpoint
// serves committed resolutions only, like its single-item siblings.
func TestEntityLookupBeforeCommit(t *testing.T) {
	ts := testServer(t, Config{})
	var errOut errorResponse
	if code := postJSON(t, ts, "/v1/entities/lookup", LookupRequest{IDs: []string{"x"}}, &errOut); code != http.StatusConflict {
		t.Fatalf("lookup on empty server = %d, want 409", code)
	}
}

// TestScoredCommitPublishesScores pins that the read path shows the scores
// of the last committed resolve. An unscored commit leaves the block
// without a score; the scored resolve after it, over the same membership,
// scores the block and must publish that score, not reuse the unscored
// materialization. The resolve after that finds the score committed and
// reuses the materialization as is.
func TestScoredCommitPublishesScores(t *testing.T) {
	srv, ts := serverPair(t, Config{})
	ingestCollection(t, ts, testCollection(t, 24))
	unscored := false
	resolveOK(t, ts, IncrementalResolveRequest{resolveKnobs: resolveKnobs{Score: &unscored}})
	var out EntityResponse
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &out); code != http.StatusOK || out.Entity.Score != nil {
		t.Fatalf("after the unscored commit: %d %+v, want 200 without a score", code, out.Entity)
	}

	reply := resolveOK(t, ts, IncrementalResolveRequest{})
	if reply.Incremental.ReusedBlocks != reply.Incremental.Blocks || reply.Blocks[0].Score == nil {
		t.Fatalf("scored resolve = %+v, want every block reused and scored", reply)
	}
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &out); code != http.StatusOK {
		t.Fatalf("doc lookup = %d", code)
	}
	if got, want := out.Entity.Score, reply.Blocks[0].Score; got == nil || got.Fp != want.Fp || got.F != want.F || got.Rand != want.Rand {
		t.Fatalf("after the scored commit the read path answers score %+v, the resolve replied %+v", got, want)
	}

	first := srv.serving.Load().DocEntity("rivera", 0)
	resolveOK(t, ts, IncrementalResolveRequest{})
	if again := srv.serving.Load().DocEntity("rivera", 0); again != first {
		t.Fatal("a second scored resolve over the same membership materialized the block again")
	}
}

// TestAlternatingConfigurationsReuseTheirOwnIndex pins that each
// configuration reuses what it committed itself, whoever published in
// between: two configurations alternate over an unchanged store, and every
// publish must share the clusters of that configuration's previous index
// rather than materialize them again.
func TestAlternatingConfigurationsReuseTheirOwnIndex(t *testing.T) {
	srv, ts := serverPair(t, Config{})
	docs := 0
	for i, name := range []string{"rivera", "cohen", "haddad"} {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: 24, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(30 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestCollection(t, ts, col)
		docs += len(col.Docs)
	}
	seed2 := int64(2)
	configs := []IncrementalResolveRequest{{}, {resolveKnobs: resolveKnobs{Seed: &seed2}}}
	last := make([]*serving.Index, len(configs))
	for round := 0; round < 3; round++ {
		for c, req := range configs {
			resolveOK(t, ts, req)
			x := srv.serving.Load()
			if prev := last[c]; prev != nil {
				reused := 0
				for _, col := range []string{"rivera", "cohen", "haddad"} {
					for pos := 0; pos < 24; pos++ {
						if got := x.DocEntity(col, pos); got != nil && got == prev.DocEntity(col, pos) {
							reused++
						}
					}
				}
				if reused != docs {
					t.Fatalf("round %d, configuration %d: the publish reused the clusters of %d of %d docs", round, c, reused, docs)
				}
			}
			last[c] = x
		}
	}
}
