package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestANNModeValidation pins that the server blocks by keys only: a body
// naming a global scheme, with or without the retired "blocking_mode":"ann"
// (now an unknown key, ignored like any other), is answered 400 on both
// resolve endpoints with the same message naming the schemes that stay, and
// leaves no state or index behind.
func TestANNModeValidation(t *testing.T) {
	ts := testServer(t, Config{})
	ingestCollection(t, ts, testCollection(t, 12))

	for _, body := range []string{
		`{"blocking":"canopy"}`,
		`{"blocking":"sortedneighborhood"}`,
		`{"blocking":"canopy","blocking_mode":"ann"}`,
	} {
		var errOut errorResponse
		code := postJSON(t, ts, "/v1/resolve/incremental", json.RawMessage(body), &errOut)
		if code != http.StatusBadRequest || !strings.Contains(errOut.Error, "(valid: exact, token)") {
			t.Errorf("%s: incremental = %d %q, want 400 naming exact, token", body, code, errOut.Error)
		}
		// The one-shot endpoint shares the validation: same status, same
		// message.
		var oneShotBody map[string]any
		if err := json.Unmarshal([]byte(body), &oneShotBody); err != nil {
			t.Fatal(err)
		}
		oneShotBody["collections"] = []*corpus.Collection{testCollection(t, 4)}
		var oneShot errorResponse
		if code := postJSON(t, ts, "/v1/resolve", oneShotBody, &oneShot); code != http.StatusBadRequest || oneShot.Error != errOut.Error {
			t.Errorf("%s: one-shot = %d %q, want 400 %q like the incremental endpoint", body, code, oneShot.Error, errOut.Error)
		}
	}

	stats := getStats(t, ts)
	if indexes := stats["ersolve_blocking_index_docs"]; len(indexes) != 0 {
		t.Errorf("the refused requests left %d blocking indexes: %+v", len(indexes), indexes)
	}
	if states, runs := stats.value(t, "ersolve_snapshot_states"), stats.value(t, "ersolve_resolve_runs_total"); states != 0 || runs != 0 {
		t.Errorf("the refused requests left %g snapshot states after %g runs, want 0 and 0", states, runs)
	}
}
