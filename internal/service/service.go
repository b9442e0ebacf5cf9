// Package service is the HTTP layer over the resolution pipeline: a JSON
// collection in, clusters and quality scores out, with per-request
// timeouts that cancel the in-flight pipeline (mid-extraction or
// mid-matrix) through the request context. Beyond the one-shot POST
// /v1/resolve, the server owns a document store and a book of ingest job
// records: POST /v1/collections appends documents and answers 202 with a
// job handle once they are merged (and, over a durable store, journaled),
// GET /v1/jobs/{id} reports that job's outcome, and POST
// /v1/resolve/incremental re-resolves only the blocks whose membership
// changed since the previous incremental run. `ersolve serve` mounts it;
// the handler is also usable inside any other mux.
package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/store"
	"repro/internal/tracing"
)

// Config bounds the server's per-request resources and names its backing
// stores. There is no store for the candidate (blocking) indexes: each
// belongs to one resolution configuration's incremental state and lives in
// memory only, so after a restart (or the state's eviction) that
// configuration's first incremental run keys the whole store into a fresh
// one.
type Config struct {
	// DefaultTimeout is the timeout of a request that names none and the
	// ceiling a request's "timeout_ms" is clamped to; zero selects 30
	// seconds.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds the request body; zero selects 32 MiB.
	MaxBodyBytes int64
	// Store is the document store behind the ingest endpoints; nil
	// selects a fresh in-memory store.
	Store store.DocumentStore
	// Serving optionally persists each configuration's committed
	// resolution as its serving index (internal/persist.ServingDir is the
	// disk implementation). When set, every committed incremental run
	// commits its serving index to it before the reply (the blocks that
	// changed, not the index) — the one durable commit of a resolve. The
	// server publishes the most recently saved one at construction, so a
	// restarted server answers entity lookups immediately, with zero
	// recompute, and a configuration's first run after a restart adopts its
	// saved index as its committed state, so it reuses every unchanged
	// block. A damaged or version-skewed saved index degrades to an empty
	// read path until the next commit (lookups answer 409, never wrong
	// data) and that run to a full resolution, and is reported through
	// ErrorLog.
	Serving ServingStore
	// ErrorLog receives the failures the server survives, such as a
	// serving index that did not save or load; nil selects log.Printf.
	ErrorLog func(format string, args ...any)
}

// Server resolves posted collections through the streaming pipeline.
type Server struct {
	cfg   Config
	store store.DocumentStore
	jobs  *store.Queue
	// ingestMu serializes ingests: each holds it across its append, the
	// stats read and the filing of its job record, so job IDs follow ingest
	// order and a version move across an append is that batch's commit.
	ingestMu sync.Mutex

	// states holds one incremental state per resolution configuration: its
	// last committed serving index and the candidate index its block stage
	// keys the store into. Runs with the same configuration serialize on
	// their state so each reuses what the previous run committed, and its
	// candidate index only ever sees a store at least as new as the one
	// before.
	statesMu sync.Mutex
	states   map[string]*incrementalState

	// counters are the server's lifetime counters.
	counters counters

	// serving is the hot read-path index: the last committed resolution,
	// inverted for lookups. Swapped atomically by publishServing so the
	// read handlers are lock-free; servingMu serializes publish (build +
	// swap + save) and guards servingEpoch, the monotonic publish counter.
	serving      atomic.Pointer[serving.Index]
	servingMu    sync.Mutex
	servingEpoch uint64

	// latency holds the per-stage latency histograms, by stage name;
	// lookupLatency is its "lookup" entry, which every read observes.
	latency       map[string]*metrics.Histogram
	lookupLatency *metrics.Histogram

	// registry renders every instrument above on GET /metrics and GET
	// /v1/stats; traces is the ring of recently finished request traces
	// GET /v1/traces dumps; started anchors the uptime gauge.
	registry *metrics.Registry
	traces   *tracing.Buffer
	started  time.Time

	// exactDecode decodes every request body with encoding/json alone,
	// skipping the corpus fast path: the reference tests hold it to.
	exactDecode bool
}

// counters aggregates per-stage activity across the server's lifetime.
// Every field is a registry-backed counter (initObservability wires them).
type counters struct {
	runs, blocks, reused, prepared, trivial *metrics.Counter
	deltaDocs, dirtyBlocks                  *metrics.Counter
	ingestBatches                           *metrics.Counter
	// Read-path counters: per-endpoint request counts.
	readEntities, readDocs, readSearch, readLookup *metrics.Counter
	// Degradation counters: every event where the server kept serving by
	// giving something up — a panicking handler answered 500, a committed
	// resolution failed to load (rebuilt from the corpus) or save
	// (committed by the next resolve). Surfaced as ersolve_degraded_total
	// so operators see silent degradation before it becomes an outage.
	panics                                   *metrics.Counter
	servingLoadFailures, servingSaveFailures *metrics.Counter
}

type incrementalState struct {
	mu sync.Mutex
	// index is the configuration's last committed serving index (nil before
	// its first run), which the next run's diff and the next serving build
	// both reuse; guarded by mu.
	index *serving.Index
	// blocker is the configuration's block stage, built empty with the
	// state and never replaced; it owns the state's key index.
	blocker *pipeline.IndexBlocker
	// loadTried marks that the persisted serving index (if any) was
	// already adopted as index or found unusable, so it is read at most
	// once per state; guarded by mu.
	loadTried bool
	// key is the effective-knobs string this state (and its persisted
	// serving index) is filed under.
	key string
	// lastUsed orders LRU eviction; guarded by Server.statesMu.
	lastUsed time.Time
	// refs counts in-flight runs using this state; eviction skips pinned
	// states so a long run can never have its committed index dropped — or
	// a concurrent same-config request handed a second state object,
	// breaking the serialize-per-config invariant. Guarded by
	// Server.statesMu.
	refs int
}

// New applies the config defaults and returns a server. It starts no
// goroutine; Close is kept for callers that shut a server down.
func New(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = log.Printf
	}
	s := &Server{
		cfg:    cfg,
		store:  cfg.Store,
		jobs:   store.NewQueue(jobHistory),
		states: make(map[string]*incrementalState),
	}
	if s.store == nil {
		s.store = store.NewMemStore()
	}
	// Instruments must exist before anything can tick one: the serving
	// load below touches counters.
	s.initObservability()
	// Publish the most recently persisted serving index before taking any
	// traffic: a restarted -data server answers entity lookups for the
	// last committed resolution immediately, with zero recompute. A
	// damaged file degrades to an empty read path (409s) until the next
	// commit — never wrong data.
	if cfg.Serving != nil {
		if x, err := cfg.Serving.LoadLatestServing(); err != nil {
			s.counters.servingLoadFailures.Add(1)
			cfg.ErrorLog("service: loading persisted serving index: %v", err)
		} else if x != nil {
			s.servingEpoch = x.Epoch()
			s.serving.Store(x)
		}
	}
	return s
}

// jobHistory bounds how many finished ingest-job records stay queryable
// via GET /v1/jobs/{id}; older records answer 410 Gone.
const jobHistory = 1024

// maxStates caps how many knob configurations keep incremental state (each
// retains its last committed serving index — every block's labels, score
// and clusters — while another configuration's index is the hot one); the
// least-recently-used is evicted beyond the cap, except states pinned by an
// in-flight run.
const maxStates = 16

// Close returns nil: the server has nothing to drain or flush. An ingest
// is durable once its 202 is sent, a resolve once it answered, and the
// candidate indexes are rebuilt from the journal after a restart. A request
// still in flight when the caller closes the data directory is safe too:
// persist.Store's mutex lets an append that holds it finish before
// Data.Close, and its closed flag refuses any append after it, so that
// ingest's job fails instead of writing a closed journal. ersolve serve
// does not call it; the benchmark's replay probe (bench/probe.go) and the
// tests do.
func (s *Server) Close(context.Context) error {
	return nil
}

// Handler returns the service mux:
//
//	POST /v1/resolve              one-shot resolution of the posted body
//	POST /v1/collections          append documents to the store
//	GET  /v1/jobs/{id}            ingest job outcome and result
//	POST /v1/resolve/incremental  resolve the store, reusing clean blocks
//	GET  /v1/entities/{id}        cluster members by stable entity ID
//	POST /v1/entities/lookup      batch entity/doc lookup, one index pass
//	GET  /v1/docs/{ref}/entity    which cluster a store document is in
//	GET  /v1/search?name=         name tokens → candidate clusters
//	GET  /v1/stats                every /metrics family as JSON
//	GET  /v1/traces               recent request traces, newest first
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness plus store stats
//	GET  /readyz                  readiness (the server exists ⇒ replay done)
//
// Every route runs behind the panic-recovery middleware: a panicking
// handler answers a JSON 500 and increments the panics kind of
// ersolve_degraded_total instead of killing the connection (and, under
// http.Serve semantics, losing the response entirely).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/resolve", s.handleResolve)
	mux.HandleFunc("/v1/resolve/incremental", s.handleResolveIncremental)
	mux.HandleFunc("/v1/collections", s.handleCollections)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/entities/", s.handleEntity)
	mux.HandleFunc("/v1/entities/lookup", s.handleEntityLookup)
	mux.HandleFunc("/v1/docs/", s.handleDocEntity)
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "store": s.store.Stats()})
	})
	// A Server is constructed only after its store is open — journal
	// replayed, artifact directories swept — so readiness is the
	// handler's existence. The serve command keeps a bootstrap handler
	// answering 503 on this path until construction finishes.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panic in any handler is
// logged with its route, counted, and answered as a JSON 500 — unless the
// handler already wrote a header, in which case the response is beyond
// repair and the connection is left to die. http.ErrAbortHandler passes
// through untouched: it is the stdlib's own mechanism for abandoning a
// response on a gone client, not a server defect.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wrote := &headerTracker{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.counters.panics.Add(1)
			s.cfg.ErrorLog("service: panic handling %s %s: %v", r.Method, r.URL.Path, v)
			if !wrote.wroteHeader {
				writeJSON(wrote, http.StatusInternalServerError,
					errorResponse{Error: "internal error; the failure was logged server-side"})
			}
		}()
		next.ServeHTTP(wrote, r)
	})
}

// headerTracker records whether a handler committed its response header,
// which decides whether the panic middleware can still answer JSON.
type headerTracker struct {
	http.ResponseWriter
	wroteHeader bool
}

func (t *headerTracker) WriteHeader(code int) {
	t.wroteHeader = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *headerTracker) Write(p []byte) (int, error) {
	t.wroteHeader = true
	return t.ResponseWriter.Write(p)
}

// resolveKnobs are the resolution parameters shared by the one-shot and
// incremental endpoints.
type resolveKnobs struct {
	// Strategy is the combine stage: best | threshold | weighted |
	// majority (default best).
	Strategy string `json:"strategy,omitempty"`
	// Clustering is the final clustering step: closure | correlation
	// (default closure).
	Clustering string `json:"clustering,omitempty"`
	// Blocking re-partitions the documents by their keys: exact | token
	// (default exact, the paper's scheme).
	Blocking string `json:"blocking,omitempty"`
	// Keys derives each document's blocking keys: collection | names |
	// urlhost | phonetic (default collection; names keys documents by
	// their extracted person-name mentions, merging cross-collection
	// spelling variants; phonetic additionally soundex-encodes them so
	// spelling variants share a key).
	Keys string `json:"keys,omitempty"`
	// TrainFraction is the labeled fraction (default 0.10).
	TrainFraction float64 `json:"train_fraction,omitempty"`
	// Regions is the accuracy-estimation region count (default 10).
	Regions int `json:"regions,omitempty"`
	// Seed drives training-sample selection (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// TimeoutMillis caps this request's resolution time; it is clamped to
	// the server's maximum.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Score controls evaluation against the embedded ground truth
	// (default true).
	Score *bool `json:"score,omitempty"`
}

// ResolveRequest is the /v1/resolve body. Because the resolution knobs are
// optional, a dataset file written by ergen (`{"label": …,
// "collections": […]}`) is itself a valid request.
type ResolveRequest struct {
	// Label optionally names the dataset; echoed in the response.
	Label string `json:"label,omitempty"`
	// Collections are the blocks to resolve, in ergen's JSON format.
	Collections []*corpus.Collection `json:"collections"`
	resolveKnobs
}

// IncrementalResolveRequest is the /v1/resolve/incremental body: the same
// knobs as /v1/resolve, but the documents come from the server's store
// rather than the request. Each distinct knob configuration keeps its own
// committed serving index; a repeated request re-prepares only the blocks
// whose membership changed since that configuration's previous run.
type IncrementalResolveRequest struct {
	// Label optionally names the run; echoed in the response.
	Label string `json:"label,omitempty"`
	// Fresh resolves without reusing the configuration's committed index,
	// forcing a full re-resolution of the store (the equivalence baseline);
	// the run still commits as any other does.
	Fresh bool `json:"fresh,omitempty"`
	resolveKnobs
}

// CollectionsRequest is the /v1/collections body: documents to append to
// the store. Collections merge by name; document IDs are assigned by the
// store and persona labels are remapped densely per collection, so a
// client may deliver one collection across many batches.
type CollectionsRequest struct {
	Collections []*corpus.Collection `json:"collections"`
}

// IngestResult is the result payload of a finished ingest job.
type IngestResult struct {
	// DocsAdded is the number of documents this job appended.
	DocsAdded int `json:"docs_added"`
	// Store describes the store right after the append.
	Store store.Stats `json:"store"`
}

// CollectionsResponse acknowledges an ingest whose job has finished: its
// record, done or failed, is at StatusURL.
type CollectionsResponse struct {
	JobID     string `json:"job_id"`
	StatusURL string `json:"status_url"`
}

// BlockScore is one block's evaluation against its ground truth. It is an
// alias kept because the benchmark's reply probe (bench/probe.go) names it.
type BlockScore = eval.Result

// BlockResult is one resolved block.
type BlockResult struct {
	// Name is the block's (possibly merged) collection name.
	Name string `json:"name"`
	// Docs is the number of documents in the block.
	Docs int `json:"docs"`
	// NumEntities is the number of predicted entities.
	NumEntities int `json:"num_entities"`
	// Source describes which combination produced the clustering.
	Source string `json:"source"`
	// Labels is the block's partition, the one wire form of it: document i
	// belongs to entity Labels[i]. Labels are dense and numbered in order of
	// first appearance, so entity k's members are the positions holding k
	// and NumEntities is 1 + max(Labels).
	Labels []int `json:"labels"`
	// Clusters is never set by the server and never encoded. It survives
	// only because the benchmark's offline reply probe (bench/probe.go)
	// still fills it; it goes with that loop.
	Clusters [][]int `json:"-"`
	// Score is present when scoring was requested.
	Score *eval.Result `json:"score,omitempty"`
}

// ResolveResponse is the /v1/resolve reply.
type ResolveResponse struct {
	Label  string        `json:"label,omitempty"`
	Blocks []BlockResult `json:"blocks"`
	// Average macro-averages the per-block scores when more than one
	// block was scored.
	Average *eval.Result `json:"average,omitempty"`
	// ElapsedMillis is the server-side resolution time: the run and
	// building the reply, all but the JSON encode and the write.
	ElapsedMillis int64 `json:"elapsed_ms"`
}

// IncrementalStats reports the dirty-block diff of one incremental run.
type IncrementalStats struct {
	// Blocks is the total number of blocks.
	Blocks int `json:"blocks"`
	// ReusedBlocks were unchanged and reused from the previous run.
	ReusedBlocks int `json:"reused_blocks"`
	// PreparedBlocks were dirty and fully re-prepared.
	PreparedBlocks int `json:"prepared_blocks"`
	// TrivialBlocks were dirty but below the training size.
	TrivialBlocks int `json:"trivial_blocks"`
}

// IncrementalResolveResponse is the /v1/resolve/incremental reply.
type IncrementalResolveResponse struct {
	Label string `json:"label,omitempty"`
	// StoreVersion is the store version this resolution reflects.
	StoreVersion uint64 `json:"store_version"`
	// Docs is the number of documents resolved.
	Docs   int           `json:"docs"`
	Blocks []BlockResult `json:"blocks"`
	// Average macro-averages the per-block scores when more than one
	// block was scored.
	Average *eval.Result `json:"average,omitempty"`
	// Incremental reports what the dirty-block diff skipped.
	Incremental IncrementalStats `json:"incremental"`
	// Blocking reports the block stage's own reuse: how many documents the
	// key index newly keyed for this run ("delta_docs": 0 means the
	// whole blocking pass was served from the index) and which
	// implementation ran ("index", the key index).
	Blocking pipeline.BlockingStats `json:"blocking"`
	// ElapsedMillis is the server-side resolution time: the persisted
	// serving-index load on the first resolve after a restart, the run, the
	// commit (publish and persist) and building the reply, all but the JSON
	// encode and the write.
	ElapsedMillis int64 `json:"elapsed_ms"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// allowOnly answers false and writes a 405 with an Allow header and a JSON
// error when the request's method is not the given one.
func allowOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeJSON(w, http.StatusMethodNotAllowed,
		errorResponse{Error: fmt.Sprintf("method %s is not allowed; use %s", r.Method, method)})
	return false
}

// jsonBody answers false and writes a 415 JSON error when the request
// declares a non-JSON content type. An absent Content-Type is accepted as
// JSON for curl-friendliness.
func jsonBody(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		writeJSON(w, http.StatusUnsupportedMediaType,
			errorResponse{Error: fmt.Sprintf("unparseable content type %q: send application/json", ct)})
		return false
	}
	if mt == "application/json" || mt == "text/json" || strings.HasSuffix(mt, "+json") {
		return true
	}
	writeJSON(w, http.StatusUnsupportedMediaType,
		errorResponse{Error: fmt.Sprintf("unsupported content type %q: send application/json", mt)})
	return false
}

// decodeJSON reads the bounded request body whole and decodes it into v,
// timed as the decode stage: 413 when the body exceeds the server's size
// cap, 400 on malformed input or trailing data after the JSON value (a
// request like `{...}garbage` is rejected, not silently half-read), false
// in every error case. fast, when not nil, is tried first: it fills v from
// the body and answers true, or declines, and then encoding/json decodes
// the same bytes — so every error and its text are encoding/json's.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, tr *tracing.Active, v any, fast func(body []byte) bool) (ok bool) {
	s.timed(tr, "decode", func() {
		body, err := readBody(w, r, s.cfg.MaxBodyBytes)
		if err != nil {
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				writeJSON(w, http.StatusRequestEntityTooLarge,
					errorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", maxErr.Limit)})
			} else {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
			}
			return
		}
		if fast != nil && !s.exactDecode && fast(body) {
			ok = true
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(v); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
			return
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "request body has trailing data after the JSON value"})
			return
		}
		ok = true
	})
	return ok
}

// maxPresize bounds how much of a body's declared Content-Length readBody
// allocates before any of it arrives: a client that declares the size cap
// and then stalls pins this much, not the cap. A larger body grows the
// buffer as its bytes come in.
const maxPresize = 64 << 10

// readBody reads the whole request body into one buffer presized from its
// Content-Length (at most maxPresize), failing with *http.MaxBytesError past
// limit bytes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	// bytes.MinRead of room past the body lets ReadFrom meet its end
	// without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), limit, maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// collectionsOnly is the fast path of a body whose only key is
// "collections": it decodes them into *cols, or declines.
func collectionsOnly(cols *[]*corpus.Collection) func(body []byte) bool {
	return func(body []byte) bool {
		decoded, ok := corpus.DecodeCollectionsObject(body)
		*cols = decoded
		return ok
	}
}

// timeoutFor clamps the request's timeout wish to DefaultTimeout. The
// comparison is in milliseconds: converting first would wrap a huge wish
// into a negative duration.
func (s *Server) timeoutFor(millis int64) time.Duration {
	ceiling := s.cfg.DefaultTimeout
	if millis <= 0 || millis > ceiling.Milliseconds() {
		return ceiling
	}
	return time.Duration(millis) * time.Millisecond
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) || !jsonBody(w, r) {
		return
	}
	// The trace starts before the body is read, so its decode span is
	// covered, but is published only once the request is valid: a burst of
	// bad requests cannot push a resolve out of the ring.
	tr := s.traces.Start("resolve")
	var req ResolveRequest
	if !s.decodeJSON(w, r, tr, &req, collectionsOnly(&req.Collections)) {
		return
	}
	if len(req.Collections) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "request has no collections"})
		return
	}
	for _, col := range req.Collections {
		if err := col.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
	}
	cfg, bc, _, err := s.parseKnobs(req.resolveKnobs)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	defer tr.End()
	tr.SetAttr("collections", strconv.Itoa(len(req.Collections)))
	// A one-shot body is an arbitrary posted corpus and must never feed a
	// store-bound index: it blocks through one that lives for the request.
	blocker, err := bc.FreshBlocker()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	pl, err := s.assemble(cfg, blocker, tr)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}

	timeout := s.timeoutFor(req.TimeoutMillis)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	results, err := pl.Run(ctx, req.Collections)
	if !writeRunError(w, err, timeout) {
		return
	}

	blocks, avg := blockResults(results, cfg.Score)
	resp := ResolveResponse{Label: req.Label, Blocks: blocks, Average: avg, ElapsedMillis: time.Since(start).Milliseconds()}
	s.timed(tr, "encode", func() { writeJSON(w, http.StatusOK, resp) })
}

func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) || !jsonBody(w, r) {
		return
	}
	var req CollectionsRequest
	if !s.decodeJSON(w, r, nil, &req, collectionsOnly(&req.Collections)) {
		return
	}
	if len(req.Collections) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "request has no collections"})
		return
	}
	// An ingest is journal + merge only: the indexes catch up inside the
	// next resolve that reads them. The 202 goes out after the append
	// returns, so it acknowledges a merged (and, over a durable store,
	// fsynced) batch, and the job it names has already finished. A batch
	// Append rejects as malformed is a 400 and files no job; any other error
	// (a store gone read-only, or closed at shutdown) fails the job.
	enqueued := time.Now()
	s.ingestMu.Lock()
	started, before := time.Now(), s.store.Stats().Version
	added, err := s.store.Append(req.Collections)
	if invalid := new(store.BatchError); errors.As(err, &invalid) {
		s.ingestMu.Unlock()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	var result any
	if err == nil {
		st := s.store.Stats()
		if st.Version != before {
			s.counters.ingestBatches.Add(1)
		}
		result = IngestResult{DocsAdded: added, Store: st}
	}
	job := s.jobs.File("ingest", enqueued, started, result, err)
	s.ingestMu.Unlock()
	writeJSON(w, http.StatusAccepted, CollectionsResponse{
		JobID:     job.ID,
		StatusURL: "/v1/jobs/" + job.ID,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "job paths look like /v1/jobs/{id}"})
		return
	}
	job, outcome := s.jobs.Get(id)
	switch outcome {
	case store.GetFound:
		writeJSON(w, http.StatusOK, job)
	case store.GetEvicted:
		writeJSON(w, http.StatusGone, errorResponse{
			Error: fmt.Sprintf("job %q finished and its record aged out: the server keeps the last %d job records; poll jobs sooner", id, jobHistory)})
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", id)})
	}
}

func (s *Server) handleResolveIncremental(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) || !jsonBody(w, r) {
		return
	}
	// Started before the body is read and published only once the request
	// is valid, as in handleResolve.
	tr := s.traces.Start("resolve.incremental")
	var req IncrementalResolveRequest
	if !s.decodeJSON(w, r, tr, &req, nil) {
		return
	}
	// The whole request is validated before it reaches any server state: a
	// rejected request must not leave an index (or a state) behind.
	cfg, bc, key, err := s.parseKnobs(req.resolveKnobs)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The store is append-only, so one that holds documents now holds them
	// in the snapshot below as well; an empty one is answered before a
	// state exists, and like any rejected request leaves no trace.
	if s.store.Stats().Docs == 0 {
		writeJSON(w, http.StatusConflict,
			errorResponse{Error: "the store is empty; ingest documents via POST /v1/collections first"})
		return
	}
	defer tr.End()

	// One state per knob configuration; same-config runs serialize so each
	// sees its predecessor's committed index. The state is pinned (refs) for
	// the duration of the run, so the LRU can never evict it — and hand a
	// concurrent same-config request a second state object — while the run
	// holds its lock. The store snapshot is taken under the state lock, so
	// a run can never overwrite the state with results for an older store
	// version than its predecessor saw, and the state's candidate index
	// pays only for the ingest delta since that predecessor.
	state, err := s.acquireState(key, bc)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	defer s.releaseState(state)
	pl, err := s.assemble(cfg, state.blocker, tr)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.timed(tr, "state.wait", state.mu.Lock)
	defer state.mu.Unlock()

	var cols []*corpus.Collection
	var version uint64
	s.timed(tr, "store.snapshot", func() { cols, version = s.store.Snapshot() })
	tr.SetAttr("knobs", state.key)
	tr.SetAttr("store_version", strconv.FormatUint(version, 10))
	docs := 0
	for _, col := range cols {
		docs += len(col.Docs)
	}
	// elapsed_ms covers everything the client waits for from here on: the
	// one-time serving-index load, the run, and the commit tail.
	start := time.Now()
	if state.index == nil && !state.loadTried && s.cfg.Serving != nil && !req.Fresh {
		// First non-fresh use of this configuration since the server
		// started: pick up from the resolution it last committed. That is
		// the hot index when it was committed under this key (usually the
		// one published at startup — no second decode of the same file),
		// else the key's own file. A missing file is normal; a damaged or
		// version-skewed one degrades this run to a full resolution and is
		// logged, never served. A fresh request does not consume the one
		// load attempt: if it fails mid-run, the persisted index still
		// serves the next non-fresh request. The index is adopted at once,
		// so a run that dies (timeout, cancellation) before committing its
		// own does not forfeit the restart head-start either.
		state.loadTried = true
		s.timed(tr, "serving.load", func() {
			x := s.serving.Load()
			if x == nil || x.Knobs() != state.key {
				var err error
				if x, err = s.cfg.Serving.LoadServing(state.key); err != nil {
					s.counters.servingLoadFailures.Add(1)
					s.cfg.ErrorLog("service: loading serving index for %q: %v", state.key, err)
				}
			}
			state.index = x
		})
	}
	var prev pipeline.CommittedRun = state.index
	if req.Fresh {
		prev = nil
	}

	timeout := s.timeoutFor(req.TimeoutMillis)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	inc, err := pl.RunIncremental(ctx, cols, prev)
	if !writeRunError(w, err, timeout) {
		return
	}
	// Commit hook: invert this run into the state's serving index (reusing
	// the clean blocks' materializations), swap it in for lock-free reads,
	// and persist it — all before the resolve is acknowledged, so a client
	// that saw the response can immediately GET the clusters it describes.
	// The appended serving record is the run's one durable commit: a
	// restart adopts it as state.index, and a run whose record did not land
	// is one whose dirty blocks are prepared again.
	s.publishServing(tr, state, cols, version, inc)
	tr.SetAttr("blocks", strconv.Itoa(inc.Stats.Blocks))
	tr.SetAttr("reused", strconv.Itoa(inc.Stats.Reused))
	s.counters.runs.Add(1)
	s.counters.blocks.Add(int64(inc.Stats.Blocks))
	s.counters.reused.Add(int64(inc.Stats.Reused))
	s.counters.prepared.Add(int64(inc.Stats.Prepared))
	s.counters.trivial.Add(int64(inc.Stats.Trivial))
	s.counters.deltaDocs.Add(int64(inc.Stats.Blocking.DeltaDocs))
	s.counters.dirtyBlocks.Add(int64(inc.Stats.Blocking.DirtyBlocks))

	blocks, avg := blockResults(inc.Results, cfg.Score)
	resp := IncrementalResolveResponse{
		Label:         req.Label,
		StoreVersion:  version,
		Docs:          docs,
		Blocks:        blocks,
		Average:       avg,
		ElapsedMillis: time.Since(start).Milliseconds(),
		Incremental: IncrementalStats{
			Blocks:         inc.Stats.Blocks,
			ReusedBlocks:   inc.Stats.Reused,
			PreparedBlocks: inc.Stats.Prepared,
			TrivialBlocks:  inc.Stats.Trivial,
		},
		Blocking: *inc.Stats.Blocking,
	}
	s.timed(tr, "encode", func() { writeJSON(w, http.StatusOK, resp) })
}

// acquireState returns the incremental state of one knob configuration,
// creating it on first use with a fresh blocker for bc, and pins it against
// eviction until the matching releaseState. Eviction removes only unpinned
// states, and their candidate indexes with them (a state whose run is in
// flight never had lastUsed refreshed, so without the pin a long run was
// the LRU's favorite victim); when every state is pinned the map
// temporarily exceeds the cap rather than dropping live state.
func (s *Server) acquireState(key string, bc pipeline.BlockingConfig) (*incrementalState, error) {
	s.statesMu.Lock()
	defer s.statesMu.Unlock()
	state, ok := s.states[key]
	if !ok {
		blocker, err := bc.FreshBlocker()
		if err != nil {
			return nil, err
		}
		for len(s.states) >= maxStates {
			oldestKey := ""
			var oldest time.Time
			for sk, st := range s.states {
				if st.refs > 0 {
					continue
				}
				if oldestKey == "" || st.lastUsed.Before(oldest) {
					oldestKey, oldest = sk, st.lastUsed
				}
			}
			if oldestKey == "" {
				break // every state is pinned by an in-flight run
			}
			delete(s.states, oldestKey)
		}
		state = &incrementalState{key: key, blocker: blocker}
		s.states[key] = state
	}
	state.refs++
	state.lastUsed = time.Now()
	return state, nil
}

// releaseState unpins a state acquired by acquireState and refreshes its
// LRU stamp to the run's end, so recency reflects when the state was last
// busy, not when its run began.
func (s *Server) releaseState(state *incrementalState) {
	s.statesMu.Lock()
	defer s.statesMu.Unlock()
	state.refs--
	state.lastUsed = time.Now()
}

// writeRunError maps a pipeline error to its HTTP reply; it answers true
// when the run succeeded and the caller should write the response.
func writeRunError(w http.ResponseWriter, err error, timeout time.Duration) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout,
			errorResponse{Error: fmt.Sprintf("resolution exceeded the %v request timeout", timeout)})
	case errors.Is(err, context.Canceled):
		// The client went away; there is nobody to answer.
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
	return false
}

// parseKnobs validates a request's resolution knobs — clustering, training
// fraction, region count, strategy and the blocking configuration — and
// returns the pipeline configuration they select, complete but for its
// Blocker (which depends on the endpoint) and Observe, beside the blocking
// configuration and the state key. Both resolve endpoints call it before
// they touch any server state, so they accept and reject the same requests
// with the same message, and a rejected one leaves nothing behind.
//
// Each default is resolved once, here, and the key is formatted from the
// resolved values: it names one resolution configuration — the key
// incremental states and persisted serving indexes are filed under — so
// `{}` and `{"seed":1}` share one state and an explicit "seed":-1 can
// never alias the defaults.
func (s *Server) parseKnobs(req resolveKnobs) (cfg pipeline.Config, bc pipeline.BlockingConfig, key string, err error) {
	strategy, clustering := cmp.Or(req.Strategy, "best"), cmp.Or(req.Clustering, "closure")
	opts := core.DefaultOptions()
	opts.TrainFraction = cmp.Or(req.TrainFraction, opts.TrainFraction)
	opts.RegionK = cmp.Or(req.Regions, opts.RegionK)
	if req.Seed != nil {
		opts.Seed = *req.Seed
	}
	if opts.Clustering, err = core.ParseClusteringMethod(clustering); err != nil {
		return cfg, bc, "", err
	}
	if err = opts.Validate(); err != nil {
		return cfg, bc, "", err
	}
	cfg = pipeline.Config{Options: opts, Score: req.Score == nil || *req.Score}
	if cfg.Strategy, err = pipeline.ParseStrategy(strategy); err != nil {
		return cfg, bc, "", err
	}
	if bc, err = pipeline.ParseBlocking(req.Blocking, req.Keys); err != nil {
		return cfg, bc, "", err
	}
	key = fmt.Sprintf("%s|%s|%s|%s|%g|%d|%d", strategy, clustering, bc.SchemeName, bc.KeysName,
		opts.TrainFraction, opts.RegionK, opts.Seed)
	return cfg, bc, key, nil
}

// assemble builds a validated configuration's pipeline around the
// endpoint's blocker, its stages observed into the request's trace.
func (s *Server) assemble(cfg pipeline.Config, blocker pipeline.Blocker, tr *tracing.Active) (*pipeline.Pipeline, error) {
	cfg.Blocker, cfg.Observe = blocker, s.stageObserver(tr)
	return pipeline.New(cfg)
}

// blockResults converts pipeline results to their response form, macro-
// averaging the per-block scores when more than one block was scored. Each
// reply block points at its run's score rather than copying it.
func blockResults(results []pipeline.Result, score bool) ([]BlockResult, *eval.Result) {
	// Always non-nil so the response marshals "blocks": [] rather than
	// "blocks": null when nothing was resolved.
	blocks := make([]BlockResult, 0, len(results))
	var scores []eval.Result
	if score {
		scores = make([]eval.Result, 0, len(results))
	}
	for _, res := range results {
		br := BlockResult{
			Name:        res.Block.Name,
			Docs:        len(res.Block.Docs),
			NumEntities: res.Resolution.NumEntities(),
			Source:      res.Resolution.Source,
			Labels:      res.Resolution.Labels,
		}
		if score && res.Score != nil {
			br.Score = res.Score
			scores = append(scores, *res.Score)
		}
		blocks = append(blocks, br)
	}
	if len(scores) < 2 {
		return blocks, nil
	}
	avg := eval.Aggregate(scores)
	return blocks, &avg
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = encodeJSON(w, v) // the status is sent; a failed write means the client is gone
}

// encodeJSON is the one encoder of every reply body: compact JSON and a
// trailing newline.
func encodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}
