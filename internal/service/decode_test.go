package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
	"repro/internal/tracing"
)

// jsonEscape spells the JSON escape of one UTF-16 code unit, given in hex.
func jsonEscape(hex string) string { return `\` + "u" + hex }

// decodeEdgeCases are request bodies on both sides of the corpus fast
// path's canonical subset: what it accepts and what it leaves to
// encoding/json, including bodies encoding/json accepts in a spelling the
// fast path declines.
func decodeEdgeCases(t *testing.T) map[string]string {
	t.Helper()
	marshal := func(cols ...*corpus.Collection) string {
		body, err := json.Marshal(CollectionsRequest{Collections: cols})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	bench := marshal(testCollection(t, 6))
	col := func(name, rest string) string {
		return `{"collections":[{"name":"` + name + `","num_personas":1,"docs":[{"id":0,"url":"http://a/0",` + rest + `}]}]}`
	}
	return map[string]string{
		"bench-shaped":   bench,
		"journal record": marshal(&corpus.Collection{Name: "<o'hara & co>", NumPersonas: 1, Docs: []corpus.Document{{URL: "http://a/?x=<1>&y=2", Text: "a < b && c > d"}}}),
		"surrogate pair": col("x"+jsonEscape("d83d")+jsonEscape("de00"), `"text":"t","persona_id":0`),
		"lone surrogate": col("x"+jsonEscape("d800"), `"text":"t","persona_id":0`),
		"invalid utf8":   col("x\xff", `"text":"t","persona_id":0`),
		"Collections":    strings.Replace(col("y", `"text":"t","persona_id":0`), "collections", "Collections", 1),
		"TEXT":           col("z", `"TEXT":"t","persona_id":0`),
		"duplicate key":  col("w", `"text":"t","text":"u","persona_id":0`),
		"null":           `{"collections":null}`,
		"1e2":            col("v", `"text":"t","persona_id":1e2`),
		"01":             col("v", `"text":"t","persona_id":01`),
		"19 digits":      col("u", `"text":"t","persona_id":1234567890123456789`),
		"trailing":       bench + "x",
	}
}

// decodeServer is one server of the edge-case comparison, over its own
// in-memory store.
type decodeServer struct {
	ts    *httptest.Server
	store *store.MemStore
	srv   *Server
}

func newDecodeServer(t *testing.T, exact bool) decodeServer {
	t.Helper()
	st := store.NewMemStore()
	srv := New(Config{Store: st})
	srv.exactDecode = exact
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return decodeServer{ts: ts, store: st, srv: srv}
}

// post answers the status and body of one POST; a resolve reply loses
// elapsed_ms, the one field two equal runs may disagree on.
func (d decodeServer) post(t *testing.T, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(d.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if path == "/v1/resolve" && resp.StatusCode == http.StatusOK {
		var reply map[string]any
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatal(err)
		}
		delete(reply, "elapsed_ms")
		if raw, err = json.Marshal(reply); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestIngestDecodeEdgeCases posts every decoder edge case to POST
// /v1/collections and POST /v1/resolve of two servers, one decoding with
// encoding/json alone and one taking the fast path first: the statuses,
// the replies (error text included) and the resulting stores are
// identical. Both resolve traces carry a decode span, and a body over the
// size cap is a 413 even when it is malformed within the cap.
func TestIngestDecodeEdgeCases(t *testing.T) {
	exact, fast := newDecodeServer(t, true), newDecodeServer(t, false)
	cases := decodeEdgeCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	accepted := 0
	for _, name := range names {
		for _, path := range []string{"/v1/collections", "/v1/resolve"} {
			wantCode, want := exact.post(t, path, cases[name])
			gotCode, got := fast.post(t, path, cases[name])
			if gotCode != wantCode || (got != want && wantCode != http.StatusAccepted) {
				t.Errorf("%s to %s: fast path %d %s, encoding/json %d %s", name, path, gotCode, got, wantCode, want)
				continue
			}
			if wantCode != http.StatusAccepted {
				continue
			}
			// Job IDs carry a per-queue prefix: wait for each server's own.
			accepted++
			for _, ack := range []struct {
				d    decodeServer
				body string
			}{{exact, want}, {fast, got}} {
				var resp CollectionsResponse
				if err := json.Unmarshal([]byte(ack.body), &resp); err != nil {
					t.Fatal(err)
				}
				if job := waitJob(t, ack.d.ts, resp.JobID); job.Status != store.JobDone {
					t.Fatalf("%s: ingest job = %+v", name, job)
				}
			}
		}
	}
	if accepted < 5 {
		t.Fatalf("only %d edge cases were ingested; the comparison is too thin", accepted)
	}
	wantCols, wantVersion := exact.store.Snapshot()
	gotCols, gotVersion := fast.store.Snapshot()
	if gotVersion != wantVersion || !reflect.DeepEqual(gotCols, wantCols) {
		t.Errorf("stores differ: fast path version %d %+v, encoding/json version %d %+v", gotVersion, gotCols, wantVersion, wantCols)
	}

	// The decode stage is observed and both resolve traces carry it.
	fast.post(t, "/v1/resolve/incremental", `{}`)
	traces := fast.srv.traces.Traces(0)
	seen := map[string]bool{}
	for _, tr := range traces {
		if !hasSpan(tr, "decode") {
			t.Errorf("%s trace has no decode span", tr.Name)
		}
		seen[tr.Name] = true
	}
	if !seen["resolve"] || !seen["resolve.incremental"] {
		t.Errorf("traces %v lack a resolve or an incremental resolve", seen)
	}
	if n := sampleValue(t, scrapeMetrics(t, fast.ts), `ersolve_stage_latency_seconds_count{stage="decode"}`); n == 0 {
		t.Error("the decode histogram observed nothing")
	}

	capped := testServer(t, Config{MaxBodyBytes: 256})
	malformed := `{"collections": x` + strings.Repeat(" ", 1024)
	for _, path := range []string{"/v1/collections", "/v1/resolve"} {
		resp, err := http.Post(capped.URL+path, "application/json", strings.NewReader(malformed))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("malformed oversized body to %s = %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestReadBodyTrustsContentLengthOnlySoFar: a client that declares a body
// at the size cap and sends two bytes pins a buffer of maxPresize, not of
// the cap; a body larger than maxPresize still arrives whole, and one over
// the cap is a *http.MaxBytesError.
func TestReadBodyTrustsContentLengthOnlySoFar(t *testing.T) {
	const limit = 16 * maxPresize
	read := func(body string, declared int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/collections", strings.NewReader(body))
		r.ContentLength = declared
		return readBody(httptest.NewRecorder(), r, limit)
	}
	got, err := read("{}", limit)
	if err != nil || string(got) != "{}" {
		t.Fatalf("short body = %q, %v", got, err)
	}
	if cap(got) > maxPresize+bytes.MinRead {
		t.Errorf("a 2-byte body declared at %d bytes holds a %d-byte buffer, want at most %d", int64(limit), cap(got), maxPresize+bytes.MinRead)
	}
	large := strings.Repeat("x", 3*maxPresize)
	if got, err := read(large, int64(len(large))); err != nil || string(got) != large {
		t.Errorf("a %d-byte body read back as %d bytes, %v", len(large), len(got), err)
	}
	var maxErr *http.MaxBytesError
	if _, err := read(strings.Repeat("x", limit+1), limit+1); !errors.As(err, &maxErr) {
		t.Errorf("a body over the cap = %v, want *http.MaxBytesError", err)
	}
}

// TestRejectedResolvesLeaveNoTrace: a resolve rejected for its body (400,
// 413), its knobs or an empty store (409) is not published to the trace
// ring, so a burst of bad requests cannot push an accepted resolve out.
func TestRejectedResolvesLeaveNoTrace(t *testing.T) {
	srv := New(Config{Store: store.NewMemStore(), MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/v1/resolve", "/v1/resolve/incremental"} {
		for _, body := range []string{`{`, `{}`, `{"strategy":"bogus"}`, `{"seed":1}x`, strings.Repeat(" ", 512) + `{}`,
			`{"strategy":"bogus","collections":[{"name":"n","num_personas":1,"docs":[{"id":0,"url":"u","text":"t","persona_id":0}]}]}`} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode/100 != 4 {
				t.Fatalf("%s %q = %d, want a 4xx", path, body, resp.StatusCode)
			}
		}
	}
	if traces := srv.traces.Traces(0); len(traces) != 0 {
		t.Errorf("rejected resolves left %d traces, first %q", len(traces), traces[0].Name)
	}
}

func hasSpan(tr tracing.Trace, name string) bool {
	for _, s := range tr.Spans[1:] {
		if s.Name == name {
			return true
		}
	}
	return false
}
