package main

// This file is the single table BENCHMARK.json is generated from
// (`-spec`) and checked against (bench_test.go): workloads, end-to-end
// metrics with their regression bounds, per-layer metrics.

// runSeconds is the steady-phase length the driver passes as --seconds.
const runSeconds = 10

// benchCommand is how the driver starts one run, from the checkout root.
var benchCommand = []string{"bash", "bench/run.sh"}

// workload is one server configuration plus the traffic driven at it.
// Every workload runs the same lifecycle (setup → steady → full → oneshot
// → restart), so every metric exists on every workload; what changes is
// which layers do the work.
type workload struct {
	Name string
	Why  string
	// Durable starts `ersolve serve -data DIR`; otherwise the in-memory
	// server, which never calls internal/persist.
	Durable bool
	// Paper ingests the generated corpus.WWW05Profile() dataset (12 names
	// × 100 pages) instead of Collections × DocsPer generated pages.
	Paper       bool
	Collections int
	DocsPer     int
}

var workloads = []workload{
	{
		Name:    "durable_delta_6k",
		Why:     "the ROADMAP baseline: -data DIR, 150x40 docs, 2-doc deltas; persist (snapshot+serving+index save, fsync) does most of a delta resolve",
		Durable: true, Collections: 150, DocsPer: 40,
	},
	{
		Name:        "mem_delta_6k",
		Why:         "same inputs, no -data: bypasses persist, so a persistence change predicts no change; leaves store.Snapshot, serving.Build, response encode",
		Collections: 150, DocsPer: 40,
	},
	{
		Name:  "paper_www05",
		Why:   "the paper's WWW'05 shape, 12 names x 100 pages in memory: 100-doc blocks make core/simfn/extract nearly all of every resolve; carries paper Fp",
		Paper: true, Collections: 12, DocsPer: 100,
	},
	{
		Name:    "durable_delta_12k",
		Why:     "durable_delta_6k at twice the corpus (300x40) with the same 2-doc delta: every O(delta) claim is the ratio of this row to the 6k row",
		Durable: true, Collections: 300, DocsPer: 40,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported number. Bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client of `ersolve serve` sees and this sandbox can
// measure steadily enough to gate: definitions, and why the client-side
// timings are not here, are in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"delta_write_kb", "KB", lower, 0.15},
	{"resolve_response_kb", "KB", lower, 0.15},
	{"resolve_fp", "Fp", higher, 0.15},
}

// perLayer is measured by the probe (probe.go), except the service.* rows
// named after an HTTP sample series: those are the client-side timings of
// the real server, demoted here because their run-to-run spread on this
// sandbox exceeds any bound the driver would accept. A layer a workload
// never calls reports 0: no work done, no time busy.
var perLayer = []metricSpec{
	{"service.bulk_ingest_docs_per_s", "docs/s", higher, 0},
	{"service.ingest_commit_ms_p50", "ms", lower, 0},
	{"service.full_resolve_docs_per_s", "docs/s", higher, 0},
	{"service.delta_resolve_ms_p50", "ms", lower, 0},
	{"service.nochange_resolve_ms_p50", "ms", lower, 0},
	{"service.read_ms_p50", "ms", lower, 0},
	{"service.restart_recover_ms", "ms", lower, 0},
	{"service.oneshot_docs_per_s", "docs/s", higher, 0},
	{"service.resolve_self_ms", "ms", lower, 0},
	{"service.read_ms_p99", "ms", lower, 0},
	{"service.read_late_ms_p99", "ms", lower, 0},
	{"service.cpu_s_per_delta", "s", lower, 0},
	{"service.restart_ready_ms", "ms", lower, 0},
	{"service.restart_first_resolve_ms", "ms", lower, 0},
	{"service.probe_coverage", "ratio", higher, 0},
	{"service.persist_share_of_delta", "ratio", lower, 0},
	{"store.append_us", "us", lower, 0},
	{"store.snapshot_ms", "ms", lower, 0},
	{"store.snapshot_alloc_mb", "MB", lower, 0},
	{"persist.journal_append_ms", "ms", lower, 0},
	{"persist.journal_append40_ms", "ms", lower, 0},
	{"persist.journal_bytes_per_doc_byte", "ratio", lower, 0},
	{"persist.disk_bytes_per_doc_byte", "ratio", lower, 0},
	{"persist.snapshot_save_ms", "ms", lower, 0},
	{"persist.snapshot_bytes", "bytes", lower, 0},
	{"persist.serving_save_ms", "ms", lower, 0},
	{"persist.serving_bytes", "bytes", lower, 0},
	{"persist.index_save_ms", "ms", lower, 0},
	{"persist.index_bytes", "bytes", lower, 0},
	{"persist.fsyncs_per_delta", "count", lower, 0},
	{"persist.write_bytes_per_delta", "bytes", lower, 0},
	{"persist.open_ms", "ms", lower, 0},
	{"persist.snapshot_load_ms", "ms", lower, 0},
	{"persist.serving_load_ms", "ms", lower, 0},
	{"pipeline.block_delta_ms", "ms", lower, 0},
	{"pipeline.block_full_ms", "ms", lower, 0},
	{"pipeline.run_delta_ms", "ms", lower, 0},
	{"pipeline.run_nochange_ms", "ms", lower, 0},
	{"pipeline.run_full_ms", "ms", lower, 0},
	{"pipeline.prepare_ms_sum", "ms", lower, 0},
	{"pipeline.analyze_ms_sum", "ms", lower, 0},
	{"pipeline.cluster_ms_sum", "ms", lower, 0},
	{"pipeline.reused_ratio", "ratio", higher, 0},
	{"pipeline.snapshot_encode_ms", "ms", lower, 0},
	{"pipeline.snapshot_decode_ms", "ms", lower, 0},
	{"pipeline.run_full_alloc_mb", "MB", lower, 0},
	{"blockindex.update_docs_per_s", "docs/s", higher, 0},
	{"blockindex.encode_ms", "ms", lower, 0},
	{"ann.update_docs_per_s", "docs/s", higher, 0},
	{"ann.recall", "ratio", higher, 0},
	{"blocking.exact_block_ms", "ms", lower, 0},
	{"blocking.canopy_block_ms", "ms", lower, 0},
	{"core.prepare_ms_42", "ms", lower, 0},
	{"core.prepare_ms_100", "ms", lower, 0},
	{"core.prepare_ms_150", "ms", lower, 0},
	{"core.analyze_ms", "ms", lower, 0},
	{"core.combine_ms", "ms", lower, 0},
	{"core.prepare_allocs_per_doc", "count", lower, 0},
	{"simfn.prepare_block_ms", "ms", lower, 0},
	{"simfn.compute_all_ms", "ms", lower, 0},
	{"extract.features_us_per_doc", "us", lower, 0},
	{"analysis.terms_us_per_doc", "us", lower, 0},
	{"analysis.stem_ns_per_token", "ns", lower, 0},
	{"index.add_us_per_doc", "us", lower, 0},
	{"textsim.pack_us_per_doc", "us", lower, 0},
	{"regions.estimate_us", "us", lower, 0},
	{"ergraph.cluster_us", "us", lower, 0},
	{"eval.score_us", "us", lower, 0},
	{"serving.build_full_ms", "ms", lower, 0},
	{"serving.build_delta_ms", "ms", lower, 0},
	{"serving.doc_entity_ns", "ns", lower, 0},
	{"serving.entity_ns", "ns", lower, 0},
	{"serving.search_us", "us", lower, 0},
	{"serving.encode_ms", "ms", lower, 0},
	{"serving.decode_ms", "ms", lower, 0},
}

var perLayerUnit = func() map[string]string {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return units
}()

// benchmarkFile is BENCHMARK.json's exact shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	return f
}
