package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/tracing"
)

// ServingStore persists the hot serving index (internal/persist.ServingDir
// is the disk implementation). SaveServing commits the index under its
// resolution-configuration key, durably, however little of it the store
// has to write to do so; LoadLatestServing returns the most
// recently saved index of any configuration — what a restarted server
// publishes before any resolve has run — and LoadServing the one saved
// under key, what that configuration's first resolve after a restart
// resumes from; both return (nil, nil) when none is stored.
type ServingStore interface {
	SaveServing(key string, x *serving.Index) error
	LoadLatestServing() (*serving.Index, error)
	LoadServing(key string) (*serving.Index, error)
}

// committedBlocks lists a run's blocks as the serving index takes them.
func committedBlocks(inc *pipeline.IncrementalResult) []serving.BlockResolution {
	blocks := make([]serving.BlockResolution, len(inc.Results))
	for i, res := range inc.Results {
		blocks[i] = serving.BlockResolution{
			Fingerprint: inc.Fingerprints[i],
			Name:        res.Block.Name,
			Members:     inc.Members[i],
			Resolution:  res.Resolution,
			Score:       res.Score,
		}
	}
	return blocks
}

// stageHistograms are the per-stage latency histograms: the four pipeline
// stages, the read-path lookup, the JSON-body handlers' request decoding,
// and the resolve handlers' commit tail and reply encoding. All
// registry-backed (initObservability), rendered as the
// ersolve_stage_latency_seconds family.
type stageHistograms struct {
	block, prepare, analyze, cluster, lookup, decode *metrics.Histogram

	stateWait, storeSnapshot, servingLoad, publishServing, persistServing, encode *metrics.Histogram
}

// publishServing materializes the committed run's serving index from the
// state's previous one and makes it the state's, swaps it in as the hot
// read-path index (the publish.serving span) and commits it to the serving
// store (persist.serving: an appended record, or a full save when the store
// has to create or replace the key's file). Called from the incremental
// endpoint after a successful run, before the response is written — so a
// client that saw the resolve acknowledged can immediately read the
// clusters it produced, and reads them again after a kill -9. The swap and
// the save are skipped when the hot index already reflects a NEWER store
// version (a slow run for an older snapshot must not roll the read path
// back); the last committed resolution wins ties, so re-resolving one store
// version under new knobs re-points reads.
func (s *Server) publishServing(tr *tracing.Active, state *incrementalState, cols []*corpus.Collection, version uint64, inc *pipeline.IncrementalResult) {
	// One lock across the swap and the save keeps the store's newest file
	// the hot index: publishes under different keys commit in swap order.
	s.servingMu.Lock()
	defer s.servingMu.Unlock()
	timed(tr, "publish.serving", s.latency.publishServing, func() {
		epoch := s.servingEpoch + 1
		state.index = serving.Build(state.index, epoch, version, state.key, cols, committedBlocks(inc))
		if hot := s.serving.Load(); hot == nil || hot.StoreVersion() <= version {
			s.servingEpoch = epoch
			s.serving.Store(state.index)
		}
	})
	if s.serving.Load() != state.index || s.cfg.Serving == nil {
		return
	}
	// Persist before the resolve is acknowledged: a crash after the answer
	// still restarts with this resolution servable and its blocks reusable.
	// A failure costs the restart head-start, not correctness, and is
	// counted as degradation.
	timed(tr, "persist.serving", s.latency.persistServing, func() {
		if err := s.cfg.Serving.SaveServing(state.key, state.index); err != nil {
			s.counters.servingSaveFailures.Add(1)
			s.cfg.ErrorLog("service: saving serving index for %q: %v", state.key, err)
		}
	})
}

// EntityResponse is the GET /v1/entities/{id} and GET /v1/docs/{ref}/entity
// reply. Epoch and StoreVersion identify the serving index that answered:
// reads serve the last committed resolution, so StoreVersion may trail the
// live store until the next incremental resolve commits.
type EntityResponse struct {
	Entity *serving.Cluster `json:"entity"`
	// Epoch is the serving index's publish counter.
	Epoch uint64 `json:"epoch"`
	// StoreVersion is the store version the serving index was built from.
	StoreVersion uint64 `json:"store_version"`
}

// SearchHit is one GET /v1/search candidate: a cluster whose block tokens
// matched the query, with how many query tokens matched.
type SearchHit struct {
	Matched int              `json:"matched"`
	Entity  *serving.Cluster `json:"entity"`
}

// SearchResponse is the GET /v1/search reply.
type SearchResponse struct {
	Query        string      `json:"query"`
	Hits         []SearchHit `json:"hits"`
	Epoch        uint64      `json:"epoch"`
	StoreVersion uint64      `json:"store_version"`
}

// hotIndex loads the serving index, answering 409 (and false) when no
// resolution has been committed yet — the read path serves committed
// resolutions only, so an empty server tells the client what to do first.
func (s *Server) hotIndex(w http.ResponseWriter) (*serving.Index, bool) {
	x := s.serving.Load()
	if x == nil {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: "no resolution has been committed yet; run POST /v1/resolve/incremental first"})
		return nil, false
	}
	return x, true
}

// handleEntity answers GET /v1/entities/{id}: the cluster with that stable
// entity ID, or 404.
func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/entities/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "entity paths look like /v1/entities/{id}"})
		return
	}
	x, ok := s.hotIndex(w)
	if !ok {
		return
	}
	s.counters.readEntities.Add(1)
	start := time.Now()
	c := x.Entity(id)
	s.latency.lookup.Observe(time.Since(start))
	if c == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown entity %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, EntityResponse{Entity: c, Epoch: x.Epoch(), StoreVersion: x.StoreVersion()})
}

// maxLookupItems bounds how many entity IDs plus doc refs one batch
// lookup request may carry: enough for a UI page of rows, small enough
// that a single request cannot monopolize the read path or ask for an
// unbounded reply.
const maxLookupItems = 256

// LookupRequest is the POST /v1/entities/lookup body: entity IDs and/or
// document refs ("collection:pos") to resolve in one serving-index pass.
type LookupRequest struct {
	IDs  []string `json:"ids,omitempty"`
	Refs []string `json:"refs,omitempty"`
}

// LookupResult is one batch-lookup answer, echoing the ID or ref it
// resolves; Entity is null when the serving index has no such entity —
// per-item misses do not fail the batch.
type LookupResult struct {
	ID     string           `json:"id,omitempty"`
	Ref    string           `json:"ref,omitempty"`
	Entity *serving.Cluster `json:"entity"`
}

// LookupResponse is the POST /v1/entities/lookup reply: one result per
// requested item, IDs first then refs, in request order.
type LookupResponse struct {
	Results []LookupResult `json:"results"`
	// Found is how many results carry a non-null entity.
	Found        int    `json:"found"`
	Epoch        uint64 `json:"epoch"`
	StoreVersion uint64 `json:"store_version"`
}

// handleEntityLookup answers POST /v1/entities/lookup: the batch form of
// GET /v1/entities/{id} and GET /v1/docs/{ref}/entity — many lookups,
// one serving-index pass, one response. Misses answer a null
// entity in place rather than failing the batch, so a client rendering a
// page of rows gets every resolvable row in one round trip.
func (s *Server) handleEntityLookup(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) || !jsonBody(w, r) {
		return
	}
	var req LookupRequest
	if !s.decodeJSON(w, r, nil, &req, nil) {
		return
	}
	total := len(req.IDs) + len(req.Refs)
	if total == 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "lookup needs at least one entry in \"ids\" or \"refs\""})
		return
	}
	if total > maxLookupItems {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("lookup carries %d items, cap is %d; split the request", total, maxLookupItems)})
		return
	}
	type docRef struct {
		collection string
		pos        int
	}
	refs := make([]docRef, len(req.Refs))
	for i, ref := range req.Refs {
		collection, pos, err := parseDocRef(ref)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		refs[i] = docRef{collection: collection, pos: pos}
	}
	x, ok := s.hotIndex(w)
	if !ok {
		return
	}
	s.counters.readLookup.Add(1)
	start := time.Now()
	resp := LookupResponse{
		Results:      make([]LookupResult, 0, total),
		Epoch:        x.Epoch(),
		StoreVersion: x.StoreVersion(),
	}
	for _, id := range req.IDs {
		c := x.Entity(id)
		if c != nil {
			resp.Found++
		}
		resp.Results = append(resp.Results, LookupResult{ID: id, Entity: c})
	}
	for i, ref := range refs {
		c := x.DocEntity(ref.collection, ref.pos)
		if c != nil {
			resp.Found++
		}
		resp.Results = append(resp.Results, LookupResult{Ref: req.Refs[i], Entity: c})
	}
	s.latency.lookup.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// handleDocEntity answers GET /v1/docs/{ref}/entity where ref is
// "collection:pos": the cluster containing that store document, or 404 —
// including for documents ingested after the served resolution committed
// (the staleness contract's honest answer).
func (s *Server) handleDocEntity(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/docs/")
	ref, okPath := strings.CutSuffix(rest, "/entity")
	if !okPath || ref == "" || strings.Contains(ref, "/") {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "doc lookups look like /v1/docs/{collection}:{pos}/entity"})
		return
	}
	collection, pos, err := parseDocRef(ref)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	x, ok := s.hotIndex(w)
	if !ok {
		return
	}
	s.counters.readDocs.Add(1)
	start := time.Now()
	c := x.DocEntity(collection, pos)
	s.latency.lookup.Observe(time.Since(start))
	if c == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("document (%s, %d) is not in the served resolution (unknown, or ingested after store version %d)",
				collection, pos, x.StoreVersion())})
		return
	}
	writeJSON(w, http.StatusOK, EntityResponse{Entity: c, Epoch: x.Epoch(), StoreVersion: x.StoreVersion()})
}

// handleSearch answers GET /v1/search?name=…[&limit=N]: candidate clusters
// whose block tokens match the query's name tokens, most matches first.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	name := r.URL.Query().Get("name")
	// Token-free queries (empty, whitespace-only, pure punctuation, or
	// nothing but sub-minimum tokens) are rejected up front with one
	// consistent 400: the serving index tokenizes exactly this way, so
	// such a query could only ever run a zero-token search that matches
	// nothing.
	if name == "" || len(blocking.KeyTokens(name, 2)) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "search needs a ?name= query with at least one name token"})
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("limit %q is not a positive integer", ls)})
			return
		}
		limit = n
	}
	x, ok := s.hotIndex(w)
	if !ok {
		return
	}
	s.counters.readSearch.Add(1)
	start := time.Now()
	hits := x.Search(name, limit)
	s.latency.lookup.Observe(time.Since(start))
	resp := SearchResponse{
		Query:        name,
		Hits:         make([]SearchHit, 0, len(hits)),
		Epoch:        x.Epoch(),
		StoreVersion: x.StoreVersion(),
	}
	for _, h := range hits {
		resp.Hits = append(resp.Hits, SearchHit{Matched: h.Matched, Entity: h.Cluster})
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseDocRef splits a document ref "{collection}:{pos}" — the form of the
// doc lookup path and of the batch lookup's "refs" — at its LAST colon,
// since a collection name may itself contain one (merged blocks use "+",
// but nothing forbids a colon in an ingested name). The error is the 400
// message both endpoints answer.
func parseDocRef(ref string) (collection string, pos int, err error) {
	cut := strings.LastIndexByte(ref, ':')
	if cut < 0 {
		return "", 0, fmt.Errorf("ref %q needs the form {collection}:{pos}", ref)
	}
	pos, ok := parseCanonicalPos(ref[cut+1:])
	if !ok {
		return "", 0, fmt.Errorf("ref %q: position %q is not a canonical non-negative integer (digits only, no leading zeros)", ref, ref[cut+1:])
	}
	return ref[:cut], pos, nil
}

// parseCanonicalPos parses a document position in canonical decimal form:
// ASCII digits only, no sign, no leading zeros (except "0" itself).
// strconv.Atoi would also accept "+3" and "03"; rejecting them keeps one
// URL per document, so a ref a client echoes back, logs or compares is
// the ref the server would print.
func parseCanonicalPos(s string) (int, bool) {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil { // overflow
		return 0, false
	}
	return n, true
}
