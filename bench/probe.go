package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockindex"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/store"
)

// The probe is the traced run: it regenerates nothing (it reuses the
// run's inputs), replays a shortened operation sequence directly against
// the layers' exported functions in the order the incremental-resolve
// handler calls them, and wraps every call in a span. Nothing inside the
// program is instrumented; every number is taken from out here.

const (
	// probeCycles is how many delta and no-change operations are replayed.
	probeCycles = 10
	// probeKey files the probe's artifacts, as the knobs key does the
	// service's.
	probeKey = "bench-probe"
)

type layerMetrics map[string]metricValue

func (m layerMetrics) set(name string, v float64, n int) {
	m[name] = metricValue{Value: v, Unit: perLayerUnit[name], n: n}
}

func (m layerMetrics) median(name string, s []float64) {
	if len(s) > 0 {
		m.set(name, median(s), len(s))
	}
}

func quietLog(string, ...any) {}

// replay holds the state the service would hold for one knob
// configuration: store, blocking index, pipeline, last snapshot, serving
// index — plus where the current operation's spans hang.
type replay struct {
	ctx  context.Context
	rec  *recorder
	in   *inputs
	dir  string // data directory; "" replays the in-memory server
	fs   *countingFS
	data *persist.Data
	st   store.DocumentStore
	ib   *pipeline.IndexBlocker
	pl   *pipeline.Pipeline

	snap       *pipeline.Snapshot
	stored     bool
	serving    *serving.Index
	epoch      uint64
	savedIndex uint64

	// curTrace/curParent are where the pipeline's Observe hook files its
	// spans. Set before RunIncremental starts its workers and untouched
	// until it returns, so the workers only ever read them.
	curTrace, curParent int
	ops                 tally
	// totals collects each replayed operation's span sums (ms by span
	// name) under the operation's name.
	totals map[string][]map[string]float64
	// persistShare is, per delta resolve, the share of the root its
	// persist.* children cover.
	persistShare []float64
}

func (rp *replay) durable() bool { return rp.dir != "" }

func (rp *replay) observe(stage, block string, d time.Duration) {
	var attrs map[string]string
	if block != "" {
		attrs = map[string]string{"block": block}
	}
	rp.rec.add(rp.curTrace, rp.curParent, "pipeline."+stage, time.Now().Add(-d), d, attrs)
}

// openStore opens (or reopens) the store under a persist.open span.
func (rp *replay) openStore(trace, parent int) error {
	if !rp.durable() {
		rp.st = store.NewMemStore()
		return nil
	}
	sp := rp.rec.begin(trace, parent, "persist.open")
	d, err := persist.OpenWithOptions(rp.dir, persist.Options{FS: rp.fs, Log: quietLog})
	sp.end(nil)
	if err != nil {
		return err
	}
	rp.data, rp.st = d, d.Store
	return nil
}

// bind builds the pipeline around a blocking index, with the Observe hook
// that turns stage executions into spans.
func (rp *replay) bind(ib *pipeline.IndexBlocker) error {
	pl, err := pipeline.New(pipeline.Config{Options: core.DefaultOptions(), Blocker: ib, Score: true, Observe: rp.observe})
	if err != nil {
		return err
	}
	rp.ib, rp.pl = ib, pl
	return nil
}

func blockIndexConfig() (blockindex.Config, pipeline.KeyFunc, error) {
	keyFn, err := pipeline.ParseKeys("")
	if err != nil {
		return blockindex.Config{}, nil, err
	}
	return blockindex.Config{Scheme: blocking.ExactKey{}, Keys: blockindex.KeyFunc(keyFn)}, keyFn, nil
}

// finish closes an operation's root span and files its totals.
func (rp *replay) finish(op string, trace int, root *open) {
	root.end(nil)
	if rp.totals == nil {
		rp.totals = map[string][]map[string]float64{}
	}
	rp.totals[op] = append(rp.totals[op], rp.rec.totals(trace))
}

// ingest replays one POST /v1/collections job: the store append, which on
// a durable store is the journal write and fsync.
func (rp *replay) ingest(op string, col *corpus.Collection) error {
	rp.ops.attempted++
	trace := rp.rec.newTrace()
	root := rp.rec.begin(trace, 0, op)
	name := "store.append"
	if rp.durable() {
		name = "persist.journal_append"
	}
	sp := rp.rec.begin(trace, root.id(), name)
	_, err := rp.st.Append([]*corpus.Collection{col})
	sp.end(map[string]string{"docs": strconv.Itoa(len(col.Docs))})
	rp.finish(op, trace, root)
	if err != nil {
		rp.ops.fail("%s: %v", op, err)
	}
	return err
}

// resolve replays one POST /v1/resolve/incremental as its own trace.
func (rp *replay) resolve(op string, fresh bool) (*pipeline.IncrementalResult, error) {
	rp.ops.attempted++
	trace := rp.rec.newTrace()
	root := rp.rec.begin(trace, 0, op)
	inc, err := rp.resolveInto(trace, root.id(), fresh)
	rp.finish(op, trace, root)
	if err != nil {
		rp.ops.fail("%s: %v", op, err)
		return nil, err
	}
	if op == "op.delta_resolve" {
		t := rp.rec.totals(trace)
		rp.persistShare = append(rp.persistShare,
			(t["persist.save_serving"]+t["persist.save_index"]+t["persist.save_snapshot"])/t[op])
	}
	return inc, nil
}

// resolveInto makes the layer calls of handleResolveIncremental, in its
// order: store snapshot → RunIncremental → serving build and save → index
// save → snapshot save (or touch) → response encode.
func (rp *replay) resolveInto(trace, parent int, fresh bool) (*pipeline.IncrementalResult, error) {
	sp := rp.rec.begin(trace, parent, "store.snapshot")
	cols, version := rp.st.Snapshot()
	sp.end(nil)

	prev := rp.snap
	if fresh {
		prev = nil
	}
	sp = rp.rec.begin(trace, parent, "pipeline.run_incremental")
	rp.curTrace, rp.curParent = trace, sp.id()
	inc, err := rp.pl.RunIncremental(rp.ctx, cols, prev)
	if err != nil {
		sp.end(nil)
		return nil, err
	}
	sp.end(map[string]string{
		"blocks": strconv.Itoa(inc.Stats.Blocks), "reused": strconv.Itoa(inc.Stats.Reused),
		"prepared": strconv.Itoa(inc.Stats.Prepared),
	})
	rp.snap = inc.Snapshot

	sp = rp.rec.begin(trace, parent, "serving.build")
	blocks := make([]serving.BlockResolution, len(inc.Results))
	for i, res := range inc.Results {
		blocks[i] = serving.BlockResolution{
			Fingerprint: inc.Fingerprints[i], Name: res.Block.Name, Members: inc.Members[i],
			Resolution: res.Resolution, Score: res.Score,
		}
	}
	rp.epoch++
	x := serving.Build(rp.serving, rp.epoch, version, probeKey, cols, blocks)
	sp.end(nil)
	rp.serving = x

	if rp.durable() {
		sp = rp.rec.begin(trace, parent, "persist.save_serving")
		err := rp.data.Serving.SaveServing(probeKey, x)
		sp.end(nil)
		if err != nil {
			return nil, err
		}
		if idx := rp.ib.Index(); idx.Version() != rp.savedIndex {
			sp = rp.rec.begin(trace, parent, "persist.save_index")
			rp.savedIndex, err = rp.data.Indexes.SaveIndex(probeKey, idx)
			sp.end(nil)
			if err != nil {
				return nil, err
			}
		}
		unchanged := prev != nil && rp.stored && inc.Stats.Reused == inc.Stats.Blocks &&
			inc.Snapshot.Blocks() == prev.Blocks() && rp.data.Snapshots.Touch(probeKey) == nil
		if !unchanged {
			sp = rp.rec.begin(trace, parent, "persist.save_snapshot")
			err := rp.data.Snapshots.Save(probeKey, inc.Snapshot)
			sp.end(nil)
			rp.stored = err == nil
			if err != nil {
				return nil, err
			}
		}
	}

	sp = rp.rec.begin(trace, parent, "service.encode")
	n, err := encodeResponse(inc, version, cols)
	sp.end(map[string]string{"bytes": strconv.FormatInt(n, 10)})
	return inc, err
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// encodeResponse renders the reply the handler would write, with the
// service's own response types and its indented encoder.
func encodeResponse(inc *pipeline.IncrementalResult, version uint64, cols []*corpus.Collection) (int64, error) {
	resp := service.IncrementalResolveResponse{
		StoreVersion: version,
		Incremental: service.IncrementalStats{
			Blocks: inc.Stats.Blocks, ReusedBlocks: inc.Stats.Reused,
			PreparedBlocks: inc.Stats.Prepared, TrivialBlocks: inc.Stats.Trivial,
		},
		Blocks: make([]service.BlockResult, 0, len(inc.Results)),
	}
	for _, col := range cols {
		resp.Docs += len(col.Docs)
	}
	if inc.Stats.Blocking != nil {
		resp.Blocking = *inc.Stats.Blocking
	}
	var scores []eval.Result
	for _, res := range inc.Results {
		n := res.Resolution.NumEntities()
		clusters := make([][]int, n)
		for doc, label := range res.Resolution.Labels {
			if label >= 0 && label < n {
				clusters[label] = append(clusters[label], doc)
			}
		}
		br := service.BlockResult{
			Name: res.Block.Name, Docs: len(res.Block.Docs), NumEntities: n,
			Source: res.Resolution.Source, Labels: res.Resolution.Labels, Clusters: clusters,
		}
		if res.Score != nil {
			br.Score = &service.BlockScore{Fp: res.Score.Fp, F: res.Score.F, Rand: res.Score.Rand}
			scores = append(scores, *res.Score)
		}
		resp.Blocks = append(resp.Blocks, br)
	}
	if len(scores) > 1 {
		a := eval.Aggregate(scores)
		resp.Average = &service.BlockScore{Fp: a.Fp, F: a.F, Rand: a.Rand}
	}
	var w countWriter
	enc := json.NewEncoder(&w)
	enc.SetIndent("", "  ")
	err := enc.Encode(resp)
	return w.n, err
}

// restart replays kill → open → load serving, index and snapshot → first
// resolve, all under one op.restart root. Only a durable store has
// anything to come back from.
func (rp *replay) restart() error {
	rp.ops.attempted++
	if err := rp.data.Close(); err != nil {
		return err
	}
	trace := rp.rec.newTrace()
	root := rp.rec.begin(trace, 0, "op.restart")
	defer func() { rp.finish("op.restart", trace, root) }()
	if err := rp.openStore(trace, root.id()); err != nil {
		return err
	}
	sp := rp.rec.begin(trace, root.id(), "persist.load_serving")
	x, err := rp.data.Serving.LoadLatestServing()
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("loading the serving index: %w", err)
	}
	if x == nil {
		return fmt.Errorf("no serving index survived the restart")
	}
	rp.serving = x

	cfg, _, err := blockIndexConfig()
	if err != nil {
		return err
	}
	sp = rp.rec.begin(trace, root.id(), "persist.load_index")
	idx, err := rp.data.Indexes.LoadIndex(probeKey, cfg)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("loading the blocking index: %w", err)
	}
	if idx == nil {
		return fmt.Errorf("no blocking index survived the restart")
	}
	rp.savedIndex = idx.Version()
	if err := rp.bind(pipeline.NewIndexBlockerWith(idx)); err != nil {
		return err
	}
	sp = rp.rec.begin(trace, root.id(), "persist.load_snapshot")
	rp.snap, err = rp.data.Snapshots.Load(probeKey, rp.pl)
	sp.end(nil)
	if err != nil {
		return fmt.Errorf("loading the snapshot: %w", err)
	}
	if rp.snap == nil {
		return fmt.Errorf("no snapshot survived the restart")
	}
	rp.stored = true
	inc, err := rp.resolveInto(trace, root.id(), false)
	if err != nil {
		return err
	}
	if inc.Stats.Reused != inc.Stats.Blocks {
		rp.ops.fail("op.restart: first resolve reused %d of %d blocks", inc.Stats.Reused, inc.Stats.Blocks)
	}
	return nil
}

// delta returns the i-th steady-phase append, the same pages the HTTP
// writer sends.
func (rp *replay) delta(i int) (*corpus.Collection, int) {
	ci := i % len(rp.in.deltaCols)
	round := (i / len(rp.in.deltaCols)) % deltaRounds
	col := rp.in.full[rp.in.deltaCols[ci]]
	at := rp.in.w.DocsPer + round*deltaDocs
	return &corpus.Collection{Name: col.Name, Docs: col.Docs[at : at+deltaDocs], NumPersonas: col.NumPersonas},
		len(rp.in.deltaBodies[ci][round])
}

// column pulls one span name's per-operation sums out of an operation's
// recorded totals.
func (rp *replay) column(op, name string) []float64 {
	var out []float64
	for _, t := range rp.totals[op] {
		if v, ok := t[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// probe runs the replay, the handler pass and the layer instruments, and
// writes spans.jsonl.
func probe(ctx context.Context, cfg *config, w workload, in *inputs, run *httpRun, dir string) (layerMetrics, *tally, error) {
	// The replay stands in for the server, so it runs under the server's
	// collector settings, not the HTTP driver's frugal ones.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	m := layerMetrics{}
	rp := &replay{ctx: ctx, rec: newRecorder(), in: in, fs: newCountingFS()}
	if w.Durable {
		rp.dir = filepath.Join(dir, "probe-data")
	}
	trace := rp.rec.newTrace()
	root := rp.rec.begin(trace, 0, "op.open")
	err := rp.openStore(trace, root.id())
	rp.finish("op.open", trace, root)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if rp.data != nil {
			rp.data.Close()
		}
	}()
	_, keyFn, err := blockIndexConfig()
	if err != nil {
		return nil, nil, err
	}
	ib, err := pipeline.NewIndexBlocker(blocking.ExactKey{}, keyFn, 0)
	if err != nil {
		return nil, nil, err
	}
	if err := rp.bind(ib); err != nil {
		return nil, nil, err
	}

	// Bulk load, then what the service's warm loop does off the resolve
	// path: feed the new documents to the blocking index.
	docBytes := 0
	for i, col := range in.initial {
		if err := rp.ingest("op.bulk_ingest", col); err != nil {
			return nil, nil, err
		}
		docBytes += len(in.bulkBodies[i])
	}
	cols, _ := rp.st.Snapshot()
	start := time.Now()
	if _, err := rp.ib.Warm(cols); err != nil {
		return nil, nil, err
	}
	m.set("blockindex.update_docs_per_s", float64(in.docs)/time.Since(start).Seconds(), 1)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := rp.resolve("op.full_resolve", true); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	m.set("pipeline.run_full_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), 1)

	var fsyncs, writeBytes []float64
	var last map[string]ioCounts
	for i := 0; i < probeCycles; i++ {
		before := rp.fs.snapshot()
		col, n := rp.delta(i)
		if err := rp.ingest("op.ingest_commit", col); err != nil {
			return nil, nil, err
		}
		docBytes += n
		inc, err := rp.resolve("op.delta_resolve", false)
		if err != nil {
			return nil, nil, err
		}
		if inc.Stats.Prepared != 1 || inc.Stats.Reused != inc.Stats.Blocks-1 {
			rp.ops.fail("op.delta_resolve %d: %+v, want exactly 1 dirty block", i, inc.Stats)
		}
		m.set("pipeline.reused_ratio", float64(inc.Stats.Reused)/float64(inc.Stats.Blocks), 1)
		after := rp.fs.snapshot()
		fsyncs = append(fsyncs, float64(after[""].Fsyncs-before[""].Fsyncs))
		writeBytes = append(writeBytes, float64(after[""].Bytes-before[""].Bytes))
		last = map[string]ioCounts{}
		for name := range after {
			last[name] = ioCounts{Bytes: after[name].Bytes - before[name].Bytes}
		}
	}
	for i := 0; i < probeCycles; i++ {
		inc, err := rp.resolve("op.nochange_resolve", false)
		if err != nil {
			return nil, nil, err
		}
		if inc.Stats.Reused != inc.Stats.Blocks {
			rp.ops.fail("op.nochange_resolve %d: %+v, want every block reused", i, inc.Stats)
		}
	}

	if rp.durable() {
		m.median("persist.fsyncs_per_delta", fsyncs)
		m.median("persist.write_bytes_per_delta", writeBytes)
		m.set("persist.snapshot_bytes", float64(last["snapshots"].Bytes), 1)
		m.set("persist.serving_bytes", float64(last["serving"].Bytes), 1)
		m.set("persist.index_bytes", float64(last["indexes"].Bytes), 1)
		m.set("persist.journal_bytes_per_doc_byte", float64(rp.fs.snapshot()["segments"].Bytes)/float64(docBytes), 1)
		if err := rp.restart(); err != nil {
			rp.ops.fail("op.restart: %v", err)
			return nil, nil, fmt.Errorf("op.restart: %w", err)
		}
	}

	delta := func(name string) []float64 { return rp.column("op.delta_resolve", name) }
	m.median("store.snapshot_ms", delta("store.snapshot"))
	m.median("persist.journal_append_ms", rp.column("op.ingest_commit", "persist.journal_append"))
	m.median("persist.journal_append40_ms", rp.column("op.bulk_ingest", "persist.journal_append"))
	m.median("persist.snapshot_save_ms", delta("persist.save_snapshot"))
	m.median("persist.serving_save_ms", delta("persist.save_serving"))
	m.median("persist.index_save_ms", delta("persist.save_index"))
	m.median("persist.open_ms", rp.column("op.restart", "persist.open"))
	m.median("persist.snapshot_load_ms", rp.column("op.restart", "persist.load_snapshot"))
	m.median("persist.serving_load_ms", rp.column("op.restart", "persist.load_serving"))
	m.median("pipeline.block_delta_ms", delta("pipeline.block"))
	m.median("pipeline.block_full_ms", rp.column("op.full_resolve", "pipeline.block"))
	m.median("pipeline.run_delta_ms", delta("pipeline.run_incremental"))
	m.median("pipeline.run_nochange_ms", rp.column("op.nochange_resolve", "pipeline.run_incremental"))
	m.median("pipeline.run_full_ms", rp.column("op.full_resolve", "pipeline.run_incremental"))
	m.median("pipeline.prepare_ms_sum", rp.column("op.full_resolve", "pipeline.prepare"))
	m.median("pipeline.analyze_ms_sum", rp.column("op.full_resolve", "pipeline.analyze"))
	m.median("pipeline.cluster_ms_sum", rp.column("op.full_resolve", "pipeline.cluster"))
	m.median("serving.build_full_ms", rp.column("op.full_resolve", "serving.build"))
	m.median("serving.build_delta_ms", delta("serving.build"))
	if rp.durable() {
		m.median("service.persist_share_of_delta", rp.persistShare)
	}

	// How much of the HTTP number the replay reproduces.
	probeDelta := median(delta("op.delta_resolve"))
	if http := run.m["delta_resolve_ms_p50"]; len(http) > 0 {
		m.set("service.probe_coverage", probeDelta/median(http), len(http))
	}
	if err := handlerPass(rp, m); err != nil {
		return nil, nil, err
	}
	if err := instruments(ctx, rp, m); err != nil {
		return nil, nil, err
	}

	if err := rp.rec.writeJSONL(filepath.Join(cfg.outDir, "spans.jsonl")); err != nil {
		return nil, nil, err
	}
	return m, &rp.ops, nil
}

// clientMetrics are the per-layer rows only the real server can give: what
// the HTTP run's client saw, filed under the service layer (and the data
// directory's size under persist).
func clientMetrics(run *httpRun) layerMetrics {
	m := layerMetrics{}
	for _, spec := range perLayer {
		m.median(spec.Name, run.m[strings.TrimPrefix(spec.Name, "service.")])
	}
	if reads := run.m["read_ms_p50"]; len(reads) > 0 {
		m.set("service.read_ms_p99", quantile(reads, 0.99), len(reads))
		m.set("service.read_late_ms_p99", quantile(run.m["read_late_ms"], 0.99), len(reads))
	}
	if run.cycles > 0 {
		m.set("service.cpu_s_per_delta", run.cpuSeconds/float64(run.cycles), run.cycles)
	}
	return m
}

// handlerPass drives the real handler (service.New(cfg).Handler(), no
// network) over the replay's store for the same delta cycles. What the
// handler takes beyond the replay's store, pipeline, serving and encode
// spans is the service layer's own time: decode, knobs, state locks,
// counters, response assembly. It runs without persistence so the first
// call need not share the replay's artifact keys.
func handlerPass(rp *replay, m layerMetrics) error {
	srv := service.New(service.Config{Store: rp.st, ErrorLog: quietLog})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx) // nothing queued; only joins the warm loop
	}()
	h := srv.Handler()
	call := func() (time.Duration, error) {
		req := httptest.NewRequest("POST", "/v1/resolve/incremental", strings.NewReader(`{}`))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != 200 {
			return 0, fmt.Errorf("handler answered %d: %.200s", rec.Code, rec.Body.String())
		}
		return d, nil
	}
	rp.ops.attempted++
	if _, err := call(); err != nil { // the configuration's first resolve is a full one
		rp.ops.fail("handler pass: %v", err)
		return err
	}
	var walls []float64
	for i := 0; i < probeCycles; i++ {
		col, _ := rp.delta(probeCycles + i)
		if _, err := rp.st.Append([]*corpus.Collection{col}); err != nil {
			return err
		}
		rp.ops.attempted++
		d, err := call()
		if err != nil {
			rp.ops.fail("handler pass: %v", err)
			return err
		}
		walls = append(walls, ms(d))
	}
	children := 0.0
	for _, name := range []string{"store.snapshot", "pipeline.run_incremental", "serving.build", "service.encode"} {
		children += median(rp.column("op.delta_resolve", name))
	}
	m.set("service.resolve_self_ms", median(walls)-children, len(walls))
	return nil
}
