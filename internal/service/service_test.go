package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/store"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return ts
}

func testCollection(t *testing.T, docs int) *corpus.Collection {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "rivera", NumDocs: docs, NumPersonas: 3,
		Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func postResolve(t *testing.T, ts *httptest.Server, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestResolveEndpoint(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 30)

	// An ergen dataset body with default knobs is a valid request.
	resp := postResolve(t, ts, corpus.Dataset{Label: "smoke", Collections: []*corpus.Collection{col}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ResolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Label != "smoke" || len(out.Blocks) != 1 {
		t.Fatalf("response = %+v", out)
	}
	b := out.Blocks[0]
	if b.Name != "rivera" || b.Docs != 30 || len(b.Labels) != 30 {
		t.Fatalf("block = %+v", b)
	}
	// Every document names an entity in [0, num_entities), and every
	// entity has a member.
	members := make([]int, b.NumEntities)
	for _, label := range b.Labels {
		if label < 0 || label >= b.NumEntities {
			t.Fatalf("label %d outside [0, %d)", label, b.NumEntities)
		}
		members[label]++
	}
	if b.NumEntities < 1 || b.NumEntities > 30 || slices.Contains(members, 0) {
		t.Errorf("entities = %d with member counts %v", b.NumEntities, members)
	}
	if b.Score == nil || b.Score.Fp <= 0 {
		t.Errorf("score = %+v, want Fp > 0 by default", b.Score)
	}
}

// TestResolveReplyContract pins the block shape of both resolve replies
// under every strategy and clustering: exactly the documented keys, labels
// dense in order of first appearance, docs == len(labels) and
// num_entities == 1 + max(labels). The incremental endpoint is checked on a
// full run and again after a delta, whose reply mixes prepared and reused
// blocks; a one-document block takes the trivial path.
func TestResolveReplyContract(t *testing.T) {
	rivera := testCollection(t, 30)
	okafor, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "okafor", NumDocs: 26, NumPersonas: 4,
		Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := corpus.GenerateCollection(corpus.CollectionConfig{Name: "solo", NumDocs: 1, NumPersonas: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := testServer(t, Config{})
	ingestCollection(t, ts, rivera)
	ingestCollection(t, ts, solo)
	ingestCollection(t, ts, &corpus.Collection{Name: okafor.Name, Docs: okafor.Docs[:24], NumPersonas: okafor.NumPersonas})

	keys := []string{"docs", "labels", "name", "num_entities", "score", "source"}
	// check posts body to path and asserts the contract on every block of
	// the reply; it returns the reply's incremental stats.
	check := func(t *testing.T, path string, body map[string]any, want []string) IncrementalStats {
		t.Helper()
		knobs := maps.Clone(body)
		delete(knobs, "collections")
		what := fmt.Sprintf("POST %s %v", path, knobs)
		var out struct {
			Blocks      []json.RawMessage `json:"blocks"`
			Incremental IncrementalStats  `json:"incremental"`
		}
		if code := postJSON(t, ts, path, body, &out); code != http.StatusOK {
			t.Fatalf("%s = %d", what, code)
		}
		if len(out.Blocks) != 3 {
			t.Fatalf("%s: %d blocks, want 3", what, len(out.Blocks))
		}
		for _, raw := range out.Blocks {
			var fields map[string]json.RawMessage
			var b BlockResult
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &b); err != nil {
				t.Fatal(err)
			}
			if got := slices.Sorted(maps.Keys(fields)); !slices.Equal(got, want) {
				t.Errorf("%s: block %s keys %v, want %v", what, b.Name, got, want)
			}
			next := 0 // the one new label a dense first-appearance numbering may use
			for i, label := range b.Labels {
				if label < 0 || label > next {
					t.Fatalf("%s: block %s has label %d at %d, want dense in first-appearance order: %v",
						what, b.Name, label, i, b.Labels)
				}
				if label == next {
					next++
				}
			}
			if b.Docs != len(b.Labels) || b.NumEntities != next {
				t.Errorf("%s: block %s has docs %d and num_entities %d for %d labels up to %d",
					what, b.Name, b.Docs, b.NumEntities, len(b.Labels), next-1)
			}
		}
		return out.Incremental
	}
	strategies := []string{"best", "threshold", "weighted", "majority"}
	clusterings := []string{"closure", "correlation"}
	oneshot := []*corpus.Collection{rivera, okafor, solo}
	for _, strategy := range strategies {
		for _, clustering := range clusterings {
			t.Run(strategy+"/"+clustering, func(t *testing.T) {
				check(t, "/v1/resolve", map[string]any{"strategy": strategy, "clustering": clustering, "collections": oneshot}, keys)
				check(t, "/v1/resolve/incremental", map[string]any{"strategy": strategy, "clustering": clustering}, keys)
			})
		}
	}
	// The delta re-prepares okafor's block; the other two are reused.
	ingestCollection(t, ts, &corpus.Collection{Name: okafor.Name, Docs: okafor.Docs[24:], NumPersonas: okafor.NumPersonas})
	for _, strategy := range strategies {
		for _, clustering := range clusterings {
			st := check(t, "/v1/resolve/incremental", map[string]any{"strategy": strategy, "clustering": clustering}, keys)
			if st.ReusedBlocks != 2 || st.PreparedBlocks != 1 {
				t.Errorf("%s/%s after the delta: %+v, want 2 reused and 1 prepared", strategy, clustering, st)
			}
		}
	}
	// Without scoring a block has no score key.
	unscored := slices.DeleteFunc(slices.Clone(keys), func(k string) bool { return k == "score" })
	check(t, "/v1/resolve", map[string]any{"score": false, "collections": oneshot}, unscored)
	check(t, "/v1/resolve/incremental", map[string]any{"score": false}, unscored)
}

// TestScoreWireForm pins the wire form of a score, which rests only on the
// field tags of eval.Result: on both resolve endpoints every block's
// "score" and the reply's "average" carry exactly the keys fp, f and rand,
// bit-equal to eval.Evaluate over the block's reply labels against its
// ground truth and to eval.Aggregate of those, and GET /v1/entities/{id}
// answers the committed block's score object as the entity's score.
func TestScoreWireForm(t *testing.T) {
	okafor, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "okafor", NumDocs: 26, NumPersonas: 4,
		Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := serverPair(t, Config{})
	ingestCollection(t, ts, testCollection(t, 30))
	ingestCollection(t, ts, okafor)
	cols, _ := srv.store.Snapshot()
	truth := make(map[string][]int)
	for _, col := range cols {
		truth[col.Name] = col.GroundTruth()
	}

	// score decodes one score object, which must have exactly the three keys.
	score := func(what string, raw json.RawMessage) eval.Result {
		t.Helper()
		var fields map[string]float64
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := slices.Sorted(maps.Keys(fields)); !slices.Equal(got, []string{"f", "fp", "rand"}) {
			t.Fatalf("%s: keys %v, want [f fp rand]", what, got)
		}
		return eval.Result{Fp: fields["fp"], F: fields["f"], Rand: fields["rand"]}
	}
	bitEqual := func(a, b eval.Result) bool {
		return math.Float64bits(a.Fp) == math.Float64bits(b.Fp) &&
			math.Float64bits(a.F) == math.Float64bits(b.F) &&
			math.Float64bits(a.Rand) == math.Float64bits(b.Rand)
	}
	type block struct {
		Name   string          `json:"name"`
		Labels []int           `json:"labels"`
		Score  json.RawMessage `json:"score"`
	}
	var committed []block
	for _, path := range []string{"/v1/resolve", "/v1/resolve/incremental"} {
		var body any = IncrementalResolveRequest{}
		if path == "/v1/resolve" {
			body = ResolveRequest{Collections: cols}
		}
		var out struct {
			Blocks  []block         `json:"blocks"`
			Average json.RawMessage `json:"average"`
		}
		if code := postJSON(t, ts, path, body, &out); code != http.StatusOK {
			t.Fatalf("POST %s = %d", path, code)
		}
		if len(out.Blocks) != len(cols) {
			t.Fatalf("POST %s: %d blocks, want %d", path, len(out.Blocks), len(cols))
		}
		var scores []eval.Result
		for _, b := range out.Blocks {
			want, err := eval.Evaluate(b.Labels, truth[b.Name])
			if err != nil {
				t.Fatalf("POST %s: block %s: %v", path, b.Name, err)
			}
			what := fmt.Sprintf("POST %s: block %s score", path, b.Name)
			if got := score(what, b.Score); !bitEqual(got, want) {
				t.Errorf("%s = %+v, eval.Evaluate %+v", what, got, want)
			}
			scores = append(scores, want)
		}
		what := fmt.Sprintf("POST %s: average", path)
		if got, want := score(what, out.Average), eval.Aggregate(scores); !bitEqual(got, want) {
			t.Errorf("%s = %+v, eval.Aggregate %+v", what, got, want)
		}
		committed = out.Blocks
	}

	type entity struct {
		Entity struct {
			ID    string          `json:"id"`
			Score json.RawMessage `json:"score"`
		} `json:"entity"`
	}
	for _, b := range committed {
		var byDoc, byID entity
		if code := getJSON(t, ts, "/v1/docs/"+b.Name+":0/entity", &byDoc); code != http.StatusOK {
			t.Fatalf("doc lookup %s:0 = %d", b.Name, code)
		}
		if code := getJSON(t, ts, "/v1/entities/"+byDoc.Entity.ID, &byID); code != http.StatusOK {
			t.Fatalf("GET /v1/entities/%s = %d", byDoc.Entity.ID, code)
		}
		score("entity "+byID.Entity.ID+" score", byID.Entity.Score)
		if !bytes.Equal(byID.Entity.Score, b.Score) {
			t.Errorf("entity %s score %s, block %s reply score %s", byID.Entity.ID, byID.Entity.Score, b.Name, b.Score)
		}
	}
}

func TestResolveRequestTimeout(t *testing.T) {
	ts := testServer(t, Config{DefaultTimeout: time.Minute})
	col := testCollection(t, 120)

	resp := postResolve(t, ts, ResolveRequest{
		Collections: []*corpus.Collection{col},
		// A 1ms budget fires inside the first block's preparation.
		resolveKnobs: resolveKnobs{TimeoutMillis: 1},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Error, "timeout") {
		t.Errorf("error = %q, want a timeout message", out.Error)
	}
}

// TestTimeoutMillisIsClampedNotWrapped pins the clamp's order: a
// "timeout_ms" beyond what a time.Duration holds is the server's ceiling,
// not a negative (already expired) deadline.
func TestTimeoutMillisIsClampedNotWrapped(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))
	for _, millis := range []int64{math.MaxInt64, 4000000000000000, 60000} {
		var out json.RawMessage
		code := postJSON(t, ts, "/v1/resolve/incremental",
			IncrementalResolveRequest{resolveKnobs: resolveKnobs{TimeoutMillis: millis}}, &out)
		if code != http.StatusOK {
			t.Errorf("timeout_ms %d = %d, want 200: %s", millis, code, out)
		}
	}
}

func TestResolveValidation(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 10)

	cases := []struct {
		name string
		req  ResolveRequest
		want string
	}{
		{"no collections", ResolveRequest{}, "no collections"},
		{"bad strategy", ResolveRequest{Collections: []*corpus.Collection{col},
			resolveKnobs: resolveKnobs{Strategy: "bogus"}},
			"best, threshold, weighted, majority"},
		{"bad clustering", ResolveRequest{Collections: []*corpus.Collection{col},
			resolveKnobs: resolveKnobs{Clustering: "bogus"}},
			"closure, correlation"},
		{"bad blocking", ResolveRequest{Collections: []*corpus.Collection{col},
			resolveKnobs: resolveKnobs{Blocking: "bogus"}},
			"exact, token, sortedneighborhood, canopy"},
	}
	for _, tc := range cases {
		resp := postResolve(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		var out errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, out.Error, tc.want)
		}
	}

	for _, path := range []string{"/v1/resolve", "/v1/resolve/incremental", "/v1/collections"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s Allow = %q, want POST", path, allow)
		}
		var out errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == "" {
			t.Errorf("GET %s: 405 body is not a JSON error (%v, %+v)", path, err, out)
		}
		resp.Body.Close()
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz status = %d", resp.StatusCode)
		}
	}
}

func TestUnsupportedContentType(t *testing.T) {
	ts := testServer(t, Config{})
	for _, path := range []string{"/v1/resolve", "/v1/resolve/incremental", "/v1/collections"} {
		resp, err := http.Post(ts.URL+path, "application/x-www-form-urlencoded",
			strings.NewReader("a=b"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s status = %d, want 415", path, resp.StatusCode)
		}
		var out errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !strings.Contains(out.Error, "application/json") {
			t.Errorf("POST %s: 415 body should be a JSON error naming application/json, got %v %+v", path, err, out)
		}
		resp.Body.Close()
	}

	// A JSON content type with parameters is accepted.
	col := testCollection(t, 10)
	body, _ := json.Marshal(CollectionsRequest{Collections: []*corpus.Collection{col}})
	resp, err := http.Post(ts.URL+"/v1/collections", "application/json; charset=utf-8", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("charset-parameterized JSON rejected with %d", resp.StatusCode)
	}
}

// postJSON posts v to path and decodes the response into out.
func postJSON(t testing.TB, ts *httptest.Server, path string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitJob reads the job's record. A 202 names a job that has already
// finished, so there is nothing to wait for: the first read must be done
// or failed.
func waitJob(t testing.TB, ts *httptest.Server, id string) store.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job store.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || job.Status != store.JobDone && job.Status != store.JobFailed {
		t.Fatalf("GET /v1/jobs/%s right after its 202 = %d %+v, want a finished job", id, resp.StatusCode, job)
	}
	return job
}

func TestIngestJobsAndIncrementalResolve(t *testing.T) {
	ts := testServer(t, Config{})
	col := testCollection(t, 24)

	// Incremental resolution of an empty store is a 409, and leaves no
	// state or index behind.
	var errOut errorResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &errOut); code != http.StatusConflict {
		t.Fatalf("empty-store incremental = %d, want 409 (%+v)", code, errOut)
	}
	empty := getStats(t, ts)
	if states := empty.value(t, "ersolve_snapshot_states"); states != 0 {
		t.Errorf("empty-store 409 left %g snapshot states behind, want 0", states)
	}
	if indexes := empty["ersolve_blocking_index_docs"]; len(indexes) != 0 {
		t.Errorf("empty-store 409 left %d blocking indexes behind, want none: %+v", len(indexes), indexes)
	}

	// Ingest the collection in two batches through the async job queue.
	half := len(col.Docs) / 2
	batches := []*corpus.Collection{
		{Name: col.Name, Docs: col.Docs[:half], NumPersonas: col.NumPersonas},
		{Name: col.Name, Docs: col.Docs[half:], NumPersonas: col.NumPersonas},
	}
	var lastIngest IngestResult
	for i, batch := range batches {
		var ack CollectionsResponse
		if code := postJSON(t, ts, "/v1/collections", CollectionsRequest{Collections: []*corpus.Collection{batch}}, &ack); code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if ack.JobID == "" || ack.StatusURL != "/v1/jobs/"+ack.JobID {
			t.Fatalf("batch %d: ack = %+v", i, ack)
		}
		job := waitJob(t, ts, ack.JobID)
		if job.Status != store.JobDone {
			t.Fatalf("batch %d: job = %+v", i, job)
		}
		raw, err := json.Marshal(job.Result)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &lastIngest); err != nil {
			t.Fatal(err)
		}
	}
	if lastIngest.Store.Docs != len(col.Docs) || lastIngest.Store.Collections != 1 {
		t.Fatalf("store after ingest = %+v", lastIngest.Store)
	}

	// First incremental run resolves everything from scratch.
	var first IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{Label: "run1"}, &first); code != http.StatusOK {
		t.Fatalf("incremental = %d", code)
	}
	if first.Docs != len(col.Docs) || first.Incremental.ReusedBlocks != 0 {
		t.Fatalf("first run = %+v", first)
	}
	if len(first.Blocks) == 0 || first.Blocks[0].Score == nil {
		t.Fatalf("first run blocks = %+v", first.Blocks)
	}

	// An unchanged store makes the second run pure reuse, with clusters
	// identical to a forced-fresh full resolution.
	var second, fresh IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &second); code != http.StatusOK {
		t.Fatalf("second incremental = %d", code)
	}
	if second.Incremental.ReusedBlocks != second.Incremental.Blocks || second.Incremental.PreparedBlocks != 0 {
		t.Fatalf("second run did not reuse everything: %+v", second.Incremental)
	}
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{Fresh: true}, &fresh); code != http.StatusOK {
		t.Fatalf("fresh incremental = %d", code)
	}
	if fresh.Incremental.ReusedBlocks != 0 {
		t.Fatalf("fresh run reused blocks: %+v", fresh.Incremental)
	}
	for i := range fresh.Blocks {
		if !equalInts(second.Blocks[i].Labels, fresh.Blocks[i].Labels) {
			t.Errorf("block %d: incremental clusters %v != fresh clusters %v",
				i, second.Blocks[i].Labels, fresh.Blocks[i].Labels)
		}
	}
}

func TestJobEndpointErrors(t *testing.T) {
	ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/j1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet {
		t.Errorf("POST job status = %d Allow = %q, want 405 with Allow: GET",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestCollectionsValidation(t *testing.T) {
	ts := testServer(t, Config{})
	cases := []struct {
		name string
		req  CollectionsRequest
	}{
		{"no collections", CollectionsRequest{}},
		{"unnamed collection", CollectionsRequest{Collections: []*corpus.Collection{{}}}},
		{"negative persona", CollectionsRequest{Collections: []*corpus.Collection{
			{Name: "x", Docs: []corpus.Document{{PersonaID: -3}}}}}},
	}
	for _, tc := range cases {
		var out errorResponse
		if code := postJSON(t, ts, "/v1/collections", tc.req, &out); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%+v)", tc.name, code, out)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ingestCollection ingests one collection and waits for the job.
func ingestCollection(t *testing.T, ts *httptest.Server, col *corpus.Collection) {
	t.Helper()
	var ack CollectionsResponse
	if code := postJSON(t, ts, "/v1/collections", CollectionsRequest{Collections: []*corpus.Collection{col}}, &ack); code != http.StatusAccepted {
		t.Fatalf("ingest status %d", code)
	}
	if job := waitJob(t, ts, ack.JobID); job.Status != store.JobDone {
		t.Fatalf("ingest job = %+v", job)
	}
}

// TestIncrementalStateKeying pins the snapshot-identity rules: requests
// with the same effective configuration share a snapshot (defaults
// resolved), and no explicit seed may alias the defaults.
func TestIncrementalStateKeying(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))

	seed := func(v int64) IncrementalResolveRequest {
		return IncrementalResolveRequest{resolveKnobs: resolveKnobs{Seed: &v}}
	}
	var out IncrementalResolveResponse
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &out); code != http.StatusOK {
		t.Fatalf("default run: %d", code)
	}
	// {"seed":1} is the default seed spelled out — same state, pure reuse.
	if code := postJSON(t, ts, "/v1/resolve/incremental", seed(1), &out); code != http.StatusOK {
		t.Fatalf("seed 1 run: %d", code)
	}
	if out.Incremental.ReusedBlocks != out.Incremental.Blocks {
		t.Errorf("explicit default seed did not share the default state: %+v", out.Incremental)
	}
	// {"seed":-1} is a different configuration — it must not see the
	// default state's snapshot (computed under seed 1).
	if code := postJSON(t, ts, "/v1/resolve/incremental", seed(-1), &out); code != http.StatusOK {
		t.Fatalf("seed -1 run: %d", code)
	}
	if out.Incremental.ReusedBlocks != 0 {
		t.Errorf("seed -1 aliased the default-seed snapshot: %+v", out.Incremental)
	}
}

// TestPersistedKeysAreStable pins, as a literal, the string that names
// files in a data directory (by hash): the effective-knobs key under
// DIR/serving. A change to it orphans every deployed server's serving
// files, so the expectations are spelled out rather than computed.
func TestPersistedKeysAreStable(t *testing.T) {
	for _, c := range []struct {
		body string
		key  string
	}{
		{`{}`, "best|closure|exact|collection|0.1|10|1"},
		{`{"seed":1}`, "best|closure|exact|collection|0.1|10|1"},
		{`{"blocking":"token","keys":"names"}`, "best|closure|token|names|0.1|10|1"},
		{`{"blocking":"canopy"}`, "best|closure|canopy|collection|0.1|10|1"},
		{`{"blocking":"canopy","blocking_mode":"ann"}`, "best|closure|canopy|collection|0.1|10|1|ann|12|64"},
		// ann_m and ann_ef are unknown keys: the graph's degree and beam
		// are fixed, and the key spells them as it did when they were knobs.
		{`{"blocking":"sortedneighborhood","blocking_mode":"ann","ann_m":5}`, "best|closure|sortedneighborhood|collection|0.1|10|1|ann|12|64"},
		{`{"strategy":"weighted","clustering":"correlation","blocking":"token","keys":"urlhost","train_fraction":0.2,"regions":5,"seed":-1}`,
			"weighted|correlation|token|urlhost|0.2|5|-1"},
		// The defaults spelled out file under the keys of their omission.
		{`{"strategy":"best","clustering":"closure","train_fraction":0.1,"regions":10,"seed":1,"blocking":"exact","keys":"collection","blocking_mode":"exact"}`,
			"best|closure|exact|collection|0.1|10|1"},
		{`{"blocking":"canopy","blocking_mode":"ann","ann_m":12,"ann_ef":64}`, "best|closure|canopy|collection|0.1|10|1|ann|12|64"},
	} {
		var k resolveKnobs
		if err := json.Unmarshal([]byte(c.body), &k); err != nil {
			t.Fatal(err)
		}
		srv := New(Config{})
		_, _, got, err := srv.parseKnobs(k)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if got != c.key {
			t.Errorf("%s: knobs key %q, want %q", c.body, got, c.key)
		}
		if err := srv.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRejectedResolveLeavesNoIndex is the regression test for a request
// that is answered 400 and still creates (and, with a data directory, loads
// and later saves) a shared index: each body below is valid in its blocking
// knobs and invalid elsewhere.
func TestRejectedResolveLeavesNoIndex(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))

	untouched := func(when string) {
		t.Helper()
		stats := getStats(t, ts)
		if indexes := stats["ersolve_blocking_index_docs"]; len(indexes) != 0 {
			t.Errorf("%s: /v1/stats lists %d blocking indexes, want none: %+v", when, len(indexes), indexes)
		}
		if graphs := stats["ersolve_ann_index_docs"]; len(graphs) != 0 {
			t.Errorf("%s: /v1/stats lists %d ann indexes, want none: %+v", when, len(graphs), graphs)
		}
		states, runs := stats.value(t, "ersolve_snapshot_states"), stats.value(t, "ersolve_resolve_runs_total")
		if states != 0 || runs != 0 {
			t.Errorf("%s: %g snapshot states after %g runs, want 0 and 0", when, states, runs)
		}
	}
	for _, body := range []string{
		`{"strategy":"bogus","blocking":"token"}`,
		`{"clustering":"nope","blocking":"canopy","blocking_mode":"ann"}`,
		`{"train_fraction":7,"blocking":"token"}`,
		`{"regions":1,"blocking":"token","keys":"urlhost"}`,
		`{"blocking":"sortedneighborhood","blocking_mode":"ann","strategy":"x"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", body, resp.StatusCode)
		}
	}
	untouched("after the rejected requests")
	// An ingest does no index work, so it creates no entry either.
	more := testCollection(t, 14)
	more.Docs = more.Docs[12:]
	ingestCollection(t, ts, more)
	untouched("after a following ingest")
}

// TestIndexesBoundedByStates is the regression test for a candidate index
// outliving its configuration: every client-chosen ann-mode configuration
// (here, one per seed) mints an ANN graph over the whole store, and such a
// graph used to live until the process exited. Each index now belongs to
// one incremental state, and the LRU that caps the states drops their
// indexes with them.
func TestIndexesBoundedByStates(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))
	for seed := int64(2); seed < 2+2*maxStates; seed++ {
		resolveOK(t, ts, IncrementalResolveRequest{
			resolveKnobs: resolveKnobs{Blocking: "canopy", BlockingMode: "ann", Seed: &seed},
		})
	}
	stats := getStats(t, ts)
	graphs, states := len(stats["ersolve_ann_index_docs"]), stats.value(t, "ersolve_snapshot_states")
	if graphs > maxStates || float64(graphs) != states {
		t.Fatalf("after %d ann configurations: %d ann indexes for %g states, want at most %d and one per state",
			2*maxStates, graphs, states, maxStates)
	}
}

// TestIncrementalSnapshotEviction pins the LRU cap on per-configuration
// snapshots: beyond maxStates, the least-recently-used state is
// dropped and its configuration resolves from scratch next time.
func TestIncrementalSnapshotEviction(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))

	var out IncrementalResolveResponse
	postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &out)
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &out); code != http.StatusOK || out.Incremental.ReusedBlocks == 0 {
		t.Fatalf("warm default state should reuse: %d %+v", code, out.Incremental)
	}
	// A full cap of other configurations evicts the default one, the least
	// recently used.
	for i := int64(0); i < maxStates; i++ {
		seed := 7 + i
		postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{resolveKnobs: resolveKnobs{Seed: &seed}}, &out)
	}
	if code := postJSON(t, ts, "/v1/resolve/incremental", IncrementalResolveRequest{}, &out); code != http.StatusOK {
		t.Fatalf("post-eviction run: %d", code)
	}
	if out.Incremental.ReusedBlocks != 0 {
		t.Errorf("evicted state still reused blocks: %+v", out.Incremental)
	}
}
