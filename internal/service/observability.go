package service

import (
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/blockindex"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/tracing"
)

// degradedHelp is shared by the static and callback-backed members of the
// ersolve_degraded_total family — the registry requires identical help
// text for every series joining one family.
const degradedHelp = "Events where the server kept serving by giving something up, by kind."

// stages name the per-stage latency histograms, in registration order, and
// the spans their observations become: the pipeline's stages, the
// read-path lookup, the JSON-body handlers' request decoding, and the
// resolve handlers' commit tail and reply encoding. All are rendered as the
// ersolve_stage_latency_seconds family.
var stages = slices.Concat(pipeline.Stages,
	[]string{"lookup", "decode", "state.wait", "store.snapshot", "serving.load", "publish.serving", "persist.serving", "encode"})

// traceRing bounds the ring of recently finished resolve traces GET
// /v1/traces serves.
const traceRing = 256

// initObservability wires the metrics registry and the trace ring buffer.
// Every lifetime counter the server owns is registered here, and both
// /metrics and /v1/stats render the registry; values owned elsewhere (the
// job records, the backing stores, the live indexes) are read at scrape
// time through callback-backed families. Called once from New, before any
// code path that can increment a counter.
func (s *Server) initObservability() {
	s.started = time.Now()
	s.registry = metrics.NewRegistry()
	s.traces = tracing.NewBuffer(traceRing)

	r := s.registry
	c := &s.counters
	c.runs = r.Counter("ersolve_resolve_runs_total", "Completed incremental resolve runs.")
	c.blocks = r.Counter("ersolve_resolve_blocks_total", "Blocks seen by incremental resolve runs.")
	const outcomeHelp = "Per-block incremental resolve outcomes, by outcome."
	c.reused = r.Counter("ersolve_resolve_block_outcomes_total", outcomeHelp, "outcome", "reused")
	c.prepared = r.Counter("ersolve_resolve_block_outcomes_total", outcomeHelp, "outcome", "prepared")
	c.trivial = r.Counter("ersolve_resolve_block_outcomes_total", outcomeHelp, "outcome", "trivial")
	c.deltaDocs = r.Counter("ersolve_blocking_delta_docs_total", "Documents keyed incrementally by the blocking indexes.")
	c.dirtyBlocks = r.Counter("ersolve_blocking_dirty_blocks_total", "Blocks marked dirty by incremental index deltas.")
	c.ingestBatches = r.Counter("ersolve_ingest_batches_total", "Committed ingest batches observed by the server.")

	const readsHelp = "Read-path requests that reached the serving index, by endpoint."
	c.readEntities = r.Counter("ersolve_reads_total", readsHelp, "endpoint", "entities")
	c.readDocs = r.Counter("ersolve_reads_total", readsHelp, "endpoint", "docs")
	c.readSearch = r.Counter("ersolve_reads_total", readsHelp, "endpoint", "search")
	c.readLookup = r.Counter("ersolve_reads_total", readsHelp, "endpoint", "lookup")

	c.panics = r.Counter("ersolve_degraded_total", degradedHelp, "kind", "panics")
	c.servingLoadFailures = r.Counter("ersolve_degraded_total", degradedHelp, "kind", "serving_load_failures")
	c.servingSaveFailures = r.Counter("ersolve_degraded_total", degradedHelp, "kind", "serving_save_failures")
	// The backing stores count their own recoveries and quarantines; join
	// them into the same family at scrape time.
	r.CounterFunc("ersolve_degraded_total", degradedHelp, s.storeDegradationSamples)

	// A store that counts its device work (persist.Store over a counting
	// filesystem) feeds the I/O accounting families, one series per
	// artifact directory.
	if rep, ok := s.store.(ioReporter); ok {
		ioSamples := func(value func(faultfs.IOCounts) int64) func() []metrics.Sample {
			return func() []metrics.Sample {
				counts := rep.IOCounts()
				out := make([]metrics.Sample, 0, len(counts))
				for artifact, c := range counts {
					out = append(out, metrics.Sample{Labels: []string{"artifact", artifact}, Value: float64(value(c))})
				}
				sort.Slice(out, func(i, j int) bool { return out[i].Labels[1] < out[j].Labels[1] })
				return out
			}
		}
		r.CounterFunc("ersolve_persist_bytes_written_total", "Bytes written under the data directory, by artifact directory.",
			ioSamples(func(c faultfs.IOCounts) int64 { return c.BytesWritten }))
		r.CounterFunc("ersolve_persist_fsyncs_total", "File and directory fsyncs under the data directory, by artifact directory.",
			ioSamples(func(c faultfs.IOCounts) int64 { return c.Fsyncs }))
		r.CounterFunc("ersolve_persist_renames_total", "Files renamed into place under the data directory, by artifact directory.",
			ioSamples(func(c faultfs.IOCounts) int64 { return c.Renames }))
	}

	const latencyHelp = "Stage wall-clock latency in seconds, by stage."
	s.latency = make(map[string]*metrics.Histogram, len(stages))
	for _, stage := range stages {
		s.latency[stage] = r.Histogram("ersolve_stage_latency_seconds", latencyHelp, "stage", stage)
	}
	s.lookupLatency = s.latency["lookup"]

	r.CounterFunc("ersolve_queue_jobs_total", "Lifetime ingest job totals, by event.", func() []metrics.Sample {
		qc := s.jobs.Counters()
		return []metrics.Sample{
			{Labels: []string{"event", "done"}, Value: float64(qc.Done)},
			{Labels: []string{"event", "failed"}, Value: float64(qc.Failed)},
		}
	})

	r.Gauge("ersolve_store_docs", "Documents in the document store.",
		func() float64 { return float64(s.store.Stats().Docs) })
	r.Gauge("ersolve_store_collections", "Collections in the document store.",
		func() float64 { return float64(s.store.Stats().Collections) })
	r.Gauge("ersolve_store_version", "Committed ingest batches (the store version).",
		func() float64 { return float64(s.store.Stats().Version) })

	r.Gauge("ersolve_snapshot_states", "Resolution configurations holding incremental state.",
		func() float64 {
			s.statesMu.Lock()
			defer s.statesMu.Unlock()
			return float64(len(s.states))
		})

	// ersolve_serving_* describe the hot serving index; all read 0 before
	// the first publish.
	servingGauge := func(value func(x *serving.Index) float64) func() float64 {
		return func() float64 {
			if x := s.serving.Load(); x != nil {
				return value(x)
			}
			return 0
		}
	}
	r.Gauge("ersolve_serving_available", "Whether a serving index has been published (1) or reads answer 409 (0).",
		servingGauge(func(*serving.Index) float64 { return 1 }))
	r.Gauge("ersolve_serving_epoch", "Publish counter of the hot serving index.",
		servingGauge(func(x *serving.Index) float64 { return float64(x.Epoch()) }))
	r.Gauge("ersolve_serving_store_version", "Store version the hot serving index was built from.",
		servingGauge(func(x *serving.Index) float64 { return float64(x.StoreVersion()) }))
	r.Gauge("ersolve_serving_clusters", "Clusters in the hot serving index.",
		servingGauge(func(x *serving.Index) float64 { return float64(x.Clusters()) }))
	r.Gauge("ersolve_serving_docs", "Store documents the hot serving index covers.",
		servingGauge(func(x *serving.Index) float64 { return float64(x.Docs()) }))
	r.Gauge("ersolve_serving_stale", "Whether the store has committed documents past the hot serving index (1); reads answer from it until the next resolve publishes.",
		servingGauge(func(x *serving.Index) float64 {
			if s.store.Stats().Version > x.StoreVersion() {
				return 1
			}
			return 0
		}))

	r.GaugeFunc("ersolve_blocking_index_keys", "Distinct keys per blocking index.",
		indexSamples(s, func(x *blockindex.Index) float64 { return float64(x.Stats().Keys) }))
	r.GaugeFunc("ersolve_blocking_index_docs", "Documents indexed per blocking index.",
		indexSamples(s, func(x *blockindex.Index) float64 { return float64(x.Stats().Docs) }))

	r.Gauge("ersolve_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.Gauge("ersolve_build_info", "Build information; the value is always 1.",
		func() float64 { return 1 }, "go_version", runtime.Version())
}

// indexSamples builds a gauge callback emitting one sample per live key
// index, labelled with the owning configuration's knobs key and ordered by
// it. A state's blocker never changes, so the indexes are listed under
// statesMu and queried without it: an index's Stats() waits on its own
// mutex, which an in-flight update can hold for a while, and stalling
// acquireState (and with it every incremental resolve) on a stats scrape
// is not worth it.
func indexSamples(s *Server, value func(*blockindex.Index) float64) func() []metrics.Sample {
	type liveIndex struct {
		key string
		idx *blockindex.Index
	}
	return func() []metrics.Sample {
		var live []liveIndex
		s.statesMu.Lock()
		for key, state := range s.states {
			if idx, ok := state.blocker.Index().(*blockindex.Index); ok {
				live = append(live, liveIndex{key: key, idx: idx})
			}
		}
		s.statesMu.Unlock()
		sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
		var out []metrics.Sample
		for _, li := range live {
			out = append(out, metrics.Sample{Labels: []string{"index", li.key}, Value: value(li.idx)})
		}
		return out
	}
}

// tornTailReporter is implemented by stores that recover torn journal
// tails (persist.Store); quarantineReporter by serving stores that
// rename damaged files aside (persist.ServingDir);
// servingTailReporter by serving stores that load a file short of a
// damaged commit record (persist.ServingDir); ioReporter by stores that
// count their device work (persist.Store over a counting filesystem, nil
// counts otherwise). All are optional: in-memory backends report nothing.
type tornTailReporter interface{ TornTailRecoveries() int }
type quarantineReporter interface{ Quarantined() int64 }
type servingTailReporter interface{ TornTails() int64 }
type ioReporter interface {
	IOCounts() map[string]faultfs.IOCounts
}

// storeDegradationSamples reads the degradation totals owned by the
// backing stores — torn-tail journal recoveries, quarantined persisted
// files and serving logs loaded short of a damaged record — for the
// callback-backed half of the degraded family.
func (s *Server) storeDegradationSamples() []metrics.Sample {
	var out []metrics.Sample
	if rep, ok := s.store.(tornTailReporter); ok {
		out = append(out, metrics.Sample{
			Labels: []string{"kind", "torn_tail_recoveries"},
			Value:  float64(rep.TornTailRecoveries()),
		})
	}
	if rep, ok := s.cfg.Serving.(quarantineReporter); ok {
		out = append(out, metrics.Sample{
			Labels: []string{"kind", "quarantined_serving"},
			Value:  float64(rep.Quarantined()),
		})
	}
	if rep, ok := s.cfg.Serving.(servingTailReporter); ok {
		out = append(out, metrics.Sample{
			Labels: []string{"kind", "serving_torn_tails"},
			Value:  float64(rep.TornTails()),
		})
	}
	return out
}

// stageObserver builds the pipeline.Config.Observe hook for one request:
// every stage duration lands in the shared latency histograms and, when
// the request is traced, also becomes a child span under the request's
// root — annotated with the block it processed. The span's start time is
// reconstructed from the duration, since the seam reports stages after
// the fact.
func (s *Server) stageObserver(tr *tracing.Active) func(stage, block string, d time.Duration) {
	return func(stage, block string, d time.Duration) {
		s.latency[stage].Observe(d)
		if block != "" {
			tr.Span(stage, time.Now().Add(-d), d, "block", block)
		} else {
			tr.Span(stage, time.Now().Add(-d), d)
		}
	}
}

// timed runs fn as one child span of tr named stage and one observation
// of that stage's latency histogram.
func (s *Server) timed(tr *tracing.Active, stage string, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	s.latency[stage].Observe(d)
	tr.Span(stage, start, d)
}

// handleMetrics answers GET /metrics with the Prometheus text exposition
// of every registered instrument.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.registry.WritePrometheus(w)
}

// handleStats answers GET /v1/stats with every registered instrument as
// JSON: the registry walk GET /metrics renders, in another format.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.registry.WriteJSON(w) // a failed write means the client is gone
}

// TracesResponse is the GET /v1/traces reply: recent request traces,
// newest first.
type TracesResponse struct {
	Traces []tracing.Trace `json:"traces"`
}

// handleTraces answers GET /v1/traces[?limit=N]: the most recently
// finished request traces from the ring buffer, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.traces.Traces(limit)})
}
