package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// fuzzSeeds are shared request-shaped seeds; testdata/fuzz/ holds the
// committed corpus extending them.
var fuzzSeeds = [][]byte{
	[]byte(`{}`),
	[]byte(`not json at all`),
	[]byte(`{"collections":[]}`),
	[]byte(`{"collections":[{"name":"smith","num_personas":1,"docs":[` +
		`{"id":0,"url":"http://a/0","text":"alpha beta","persona_id":0},` +
		`{"id":1,"url":"http://a/1","text":"beta gamma","persona_id":0}]}]}`),
	[]byte(`{"collections":[{"name":"smith","num_personas":2,"docs":[{"id":7,"persona_id":-1}]}],"strategy":"bogus"}`),
	[]byte(`{"label":"x","strategy":"weighted","clustering":"correlation","blocking":"token",` +
		`"train_fraction":1e308,"regions":-5,"seed":9223372036854775807,"timeout_ms":-1,"score":false}`),
	[]byte("{\"collections\":[{\"name\":\"\u0000\",\"docs\":[{\"text\":\"\\ud800\"}]}]}"),
	[]byte(`{"fresh":true,"seed":1}`),
}

// fuzzServe posts the fuzzed body to path on a tiny-bounded server and
// checks the service invariants that must hold for ANY input: no panic,
// a known status code, and a JSON body (error or result) on every reply.
func fuzzServe(t *testing.T, h http.Handler, path string, data []byte, okStatus ...int) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	known := append([]int{
		http.StatusBadRequest,
		http.StatusConflict,
		http.StatusRequestEntityTooLarge,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout,
		http.StatusInternalServerError,
	}, okStatus...)
	legal := false
	for _, s := range known {
		if rec.Code == s {
			legal = true
			break
		}
	}
	if !legal {
		t.Fatalf("%s returned unexpected status %d for %q", path, rec.Code, data)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s returned a non-JSON body %q for %q", path, rec.Body.Bytes(), data)
	}
}

func FuzzResolveRequestDecode(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	// Small body and time bounds keep pathological-but-valid requests from
	// stalling the fuzzing loop.
	srv := New(Config{DefaultTimeout: 5 * time.Second, MaxBodyBytes: 16 << 10})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServe(t, h, "/v1/resolve", data, http.StatusOK)
	})
}

func FuzzCollectionsDecode(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	srv := New(Config{DefaultTimeout: 5 * time.Second, MaxBodyBytes: 16 << 10})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServe(t, h, "/v1/collections", data, http.StatusAccepted)
	})
}

// FuzzParseDocRef pins the one doc-ref parser both lookup endpoints share:
// it never panics, every ref it accepts round-trips exactly — one ref per
// document — and the non-canonical spellings are refused. testdata/fuzz/
// holds committed seeds beyond the ones added here.
func FuzzParseDocRef(f *testing.F) {
	for _, ref := range []string{"rivera:0", "smith, j+jones:12", "a:b:7", ":3"} {
		f.Add(ref)
	}
	for _, bad := range []string{"rivera:+3", "rivera:03", "rivera:-1", "rivera:99999999999999999999", "rivera", "rivera:", "rivera:3 "} {
		if _, _, err := parseDocRef(bad); err == nil {
			f.Errorf("parseDocRef(%q) accepted a non-canonical ref", bad)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, ref string) {
		collection, pos, err := parseDocRef(ref)
		if err != nil {
			return
		}
		if pos < 0 || collection+":"+strconv.Itoa(pos) != ref {
			t.Fatalf("parseDocRef(%q) = (%q, %d), which does not spell the ref back", ref, collection, pos)
		}
	})
}
