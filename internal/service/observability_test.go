package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/serving"
	"repro/internal/store"
	"repro/internal/tracing"
)

// serverPair builds a server plus its test listener, keeping the *Server
// reachable for instrument-level assertions.
func serverPair(t *testing.T, cfg Config) (*Server, *httptest.Server) {
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
	return srv, ts
}

// scrapeMetrics GETs /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue extracts one sample's value from the exposition by its
// exact name-plus-labels prefix.
func sampleValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " (.*)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("sample %q not found in exposition", sample)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q value %q: %v", sample, m[1], err)
	}
	return v
}

// TestMetricsExpositionConformance is the endpoint half of the /metrics
// contract: after real traffic (ingest, incremental resolve, reads), the
// scrape must parse under the shared exposition grammar and carry every
// family the server registers, with the traffic counted.
func TestMetricsExpositionConformance(t *testing.T) {
	_, ts := serverPair(t, Config{})
	ingestCollection(t, ts, testCollection(t, 24))
	resolveOK(t, ts, IncrementalResolveRequest{})
	var search SearchResponse
	if code := getJSON(t, ts, "/v1/search?name=rivera", &search); code != http.StatusOK {
		t.Fatalf("search = %d", code)
	}
	if code := getJSON(t, ts, "/v1/docs/rivera:0/entity", &struct{}{}); code != http.StatusOK {
		t.Fatalf("doc lookup = %d", code)
	}

	text := scrapeMetrics(t, ts)
	for _, p := range metrics.LintExposition(text) {
		t.Error(p)
	}

	// Every kind of fact the server keeps surfaces as a family.
	for _, family := range []string{
		"# TYPE ersolve_resolve_runs_total counter",
		"# TYPE ersolve_resolve_block_outcomes_total counter",
		"# TYPE ersolve_blocking_delta_docs_total counter",
		"# TYPE ersolve_ingest_batches_total counter",
		"# TYPE ersolve_reads_total counter",
		"# TYPE ersolve_degraded_total counter",
		"# TYPE ersolve_stage_latency_seconds histogram",
		"# TYPE ersolve_queue_jobs_total counter",
		"# TYPE ersolve_store_docs gauge",
		"# TYPE ersolve_serving_available gauge",
		"# TYPE ersolve_blocking_index_keys gauge",
		"# TYPE ersolve_uptime_seconds gauge",
		"# TYPE ersolve_build_info gauge",
	} {
		if !strings.Contains(text, family+"\n") {
			t.Errorf("exposition missing %q", family)
		}
	}

	if v := sampleValue(t, text, "ersolve_resolve_runs_total"); v != 1 {
		t.Errorf("resolve runs = %g, want 1", v)
	}
	if v := sampleValue(t, text, `ersolve_reads_total{endpoint="search"}`); v != 1 {
		t.Errorf("search reads = %g, want 1", v)
	}
	if v := sampleValue(t, text, `ersolve_queue_jobs_total{event="done"}`); v != 1 {
		t.Errorf("done jobs = %g, want 1", v)
	}
	if v := sampleValue(t, text, "ersolve_serving_available"); v != 1 {
		t.Errorf("serving available = %g, want 1", v)
	}
	if v := sampleValue(t, text, "ersolve_store_docs"); v != 24 {
		t.Errorf("store docs = %g, want 24", v)
	}
	if got := sampleValue(t, text, `ersolve_stage_latency_seconds_count{stage="lookup"}`); got != 2 {
		t.Errorf("lookup _count = %g, want 2", got)
	}
	if got := sampleValue(t, text, `ersolve_stage_latency_seconds_count{stage="cluster"}`); got < 1 {
		t.Errorf("cluster _count = %g, want >= 1", got)
	}
}

// exposition parses a /metrics scrape into its sample values, keyed by
// metric name and label set (fmt prints a map's keys sorted).
func exposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	labelRe := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		name, labels := line[:cut], map[string]string{}
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			for _, m := range labelRe.FindAllStringSubmatch(name[brace:], -1) {
				if labels[m[1]], err = strconv.Unquote(`"` + m[2] + `"`); err != nil {
					t.Fatalf("label in %q: %v", line, err)
				}
			}
			name = name[:brace]
		}
		out[name+fmt.Sprint(labels)] = v
	}
	return out
}

// flatten lists a /v1/stats reply's values under the keys exposition
// gives the same samples on /metrics: a histogram's count, sum and each
// cumulative bucket as its _count, _sum and _bucket{le} samples.
func flatten(stats statsReply) map[string]float64 {
	out := map[string]float64{}
	for name, samples := range stats {
		for _, smp := range samples {
			labels := map[string]string{}
			for k, v := range smp.Labels {
				labels[k] = v
			}
			if smp.Buckets == nil {
				out[name+fmt.Sprint(labels)] = smp.Value
				continue
			}
			out[name+"_count"+fmt.Sprint(labels)] = float64(smp.Count)
			out[name+"_sum"+fmt.Sprint(labels)] = smp.Sum
			for _, b := range smp.Buckets {
				labels["le"] = b.Le
				out[name+"_bucket"+fmt.Sprint(labels)] = float64(b.Count)
			}
		}
	}
	return out
}

// TestStatsMatchesMetrics pins that /v1/stats and /metrics are one
// surface in two formats: after real traffic, with nothing in flight,
// every sample of one has a sample of the other with the same name, labels
// and value. Only the uptime gauge moves between two scrapes.
func TestStatsMatchesMetrics(t *testing.T) {
	dir := t.TempDir()
	data, err := persist.OpenWithOptions(dir, persist.Options{FS: faultfs.NewCounting(nil), Log: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	_, ts := serverPair(t, durableConfig(data))
	ingestCollection(t, ts, testCollection(t, 24))
	resolveOK(t, ts, IncrementalResolveRequest{})
	canopy := IncrementalResolveRequest{resolveKnobs: resolveKnobs{Blocking: "canopy", BlockingMode: "ann"}}
	resolveOK(t, ts, canopy)
	for _, path := range []string{"/v1/search?name=rivera", "/v1/docs/rivera:0/entity", "/v1/docs/rivera:99/entity"} {
		getJSON(t, ts, path, nil)
	}

	const uptime = "ersolve_uptime_seconds" + "map[]"
	var scraped, stats map[string]float64
	for attempt := 0; ; attempt++ {
		// Nothing in flight: the scrapes on either side of the stats read
		// agree, so the stats read saw the same state.
		before := exposition(t, scrapeMetrics(t, ts))
		stats = flatten(getStats(t, ts))
		scraped = exposition(t, scrapeMetrics(t, ts))
		delete(before, uptime)
		delete(scraped, uptime)
		if reflect.DeepEqual(before, scraped) {
			break
		}
		if attempt == 50 {
			t.Fatal("/metrics never settled between two scrapes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := stats[uptime]; !ok {
		t.Errorf("/v1/stats has no %s", uptime)
	}
	delete(stats, uptime)
	for key, v := range stats {
		if got, ok := scraped[key]; !ok || got != v {
			t.Errorf("/v1/stats %s = %g; /metrics has %g (present: %v)", key, v, got, ok)
		}
	}
	for key := range scraped {
		if _, ok := stats[key]; !ok {
			t.Errorf("/metrics %s is missing from /v1/stats", key)
		}
	}
	if len(stats) < 100 {
		t.Errorf("/v1/stats carries only %d samples", len(stats))
	}
}

// TestResolveTraceSpans is the acceptance path for the tracing layer: one
// incremental resolve must yield a trace in GET /v1/traces whose root is
// the resolve and whose children include every pipeline stage, each
// parented to the root span.
func TestResolveTraceSpans(t *testing.T) {
	_, ts := serverPair(t, Config{})
	ingestCollection(t, ts, testCollection(t, 24))
	resolveOK(t, ts, IncrementalResolveRequest{})

	// Reads are timed by the lookup histogram, not traced: more of them
	// than the trace ring holds must not push the resolve out of it.
	for i := 0; i < 300; i++ {
		if code := getJSON(t, ts, "/v1/docs/rivera:"+strconv.Itoa(i%24)+"/entity", nil); code != http.StatusOK {
			t.Fatalf("doc lookup %d = %d", i, code)
		}
	}

	var out TracesResponse
	if code := getJSON(t, ts, "/v1/traces", &out); code != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d", code)
	}
	var trace *tracing.Trace
	for i := range out.Traces {
		if out.Traces[i].Name == "resolve.incremental" {
			trace = &out.Traces[i]
			break
		}
	}
	if trace == nil {
		t.Fatalf("no resolve.incremental trace among %d traces", len(out.Traces))
	}
	if trace.ID == "" || trace.DurationMicros <= 0 {
		t.Fatalf("trace header = %+v", trace)
	}
	root := trace.Spans[0]
	if root.ID != tracing.RootSpanID || root.Parent != 0 {
		t.Fatalf("root span = %+v", root)
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["store_version"] == "" || attrs["blocks"] == "" {
		t.Errorf("root attrs missing store_version/blocks: %+v", root.Attrs)
	}
	stages := map[string]int{}
	for _, s := range trace.Spans[1:] {
		if s.Parent != tracing.RootSpanID {
			t.Errorf("span %q parent = %d, want root", s.Name, s.Parent)
		}
		stages[s.Name]++
	}
	for _, stage := range []string{"block", "prepare", "analyze", "cluster"} {
		if stages[stage] == 0 {
			t.Errorf("trace has no %q child span (got %v)", stage, stages)
		}
	}

	// limit caps the dump; bad limits answer 400.
	if code := getJSON(t, ts, "/v1/traces?limit=1", &out); code != http.StatusOK || len(out.Traces) != 1 {
		t.Fatalf("limit=1: code %d, %d traces", code, len(out.Traces))
	}
	if code := getJSON(t, ts, "/v1/traces?limit=0", &struct{}{}); code != http.StatusBadRequest {
		t.Fatalf("limit=0 = %d, want 400", code)
	}
}

// slowLoadStore is a ServingStore whose LoadServing takes at least delay,
// like a large serving file on a cold disk.
type slowLoadStore struct {
	ServingStore
	delay time.Duration
}

func (s slowLoadStore) LoadServing(key string) (*serving.Index, error) {
	time.Sleep(s.delay)
	return s.ServingStore.LoadServing(key)
}

// TestRestartDeltaResolveIsObserved pins that nothing the client waits
// for hides: the first resolve after a restart, over a corpus that grew
// meanwhile, reports the serving-index load in elapsed_ms and carries the
// lock wait, the store snapshot, the load, the three commit steps — the
// serving build and swap apart from its save — and the reply encoding as
// child spans inside the root span, with the same stages in the latency
// histogram family. Another configuration committed last, so the resolve
// has to load its own file rather than resume from the hot index.
func TestRestartDeltaResolveIsObserved(t *testing.T) {
	shared := store.NewMemStore()
	saved := &memServingStore{}
	col := testCollection(t, 24)
	head := &corpus.Collection{Name: col.Name, Docs: col.Docs[:22], NumPersonas: col.NumPersonas}
	if _, err := shared.Append([]*corpus.Collection{head}); err != nil {
		t.Fatal(err)
	}
	ts1 := testServer(t, Config{Store: shared, Serving: saved})
	resolveOK(t, ts1, IncrementalResolveRequest{})
	seed := int64(2)
	resolveOK(t, ts1, IncrementalResolveRequest{resolveKnobs: resolveKnobs{Seed: &seed}})

	tail := &corpus.Collection{Name: col.Name, Docs: col.Docs[22:], NumPersonas: col.NumPersonas}
	if _, err := shared.Append([]*corpus.Collection{tail}); err != nil {
		t.Fatal(err)
	}
	const delay = 50 * time.Millisecond
	_, ts := serverPair(t, Config{Store: shared, Serving: slowLoadStore{saved, delay}})
	got := resolveOK(t, ts, IncrementalResolveRequest{})
	if got.ElapsedMillis < delay.Milliseconds() {
		t.Errorf("elapsed_ms = %d, want >= %d: the serving-index load the client waited for is missing",
			got.ElapsedMillis, delay.Milliseconds())
	}

	var out TracesResponse
	if code := getJSON(t, ts, "/v1/traces", &out); code != http.StatusOK || len(out.Traces) != 1 {
		t.Fatalf("GET /v1/traces = %d with %d traces, want the one resolve", code, len(out.Traces))
	}
	root := out.Traces[0].Spans[0]
	// Durations are truncated to whole microseconds.
	rootEnd := root.Start.Add(time.Duration(root.DurationMicros+1) * time.Microsecond)
	seen := map[string]tracing.Span{}
	for _, s := range out.Traces[0].Spans[1:] {
		seen[s.Name] = s
	}
	text := scrapeMetrics(t, ts)
	for _, stage := range []string{"state.wait", "store.snapshot", "serving.load", "publish.serving", "persist.serving", "encode"} {
		s, ok := seen[stage]
		if !ok {
			t.Errorf("trace has no %q child span", stage)
			continue
		}
		end := s.Start.Add(time.Duration(s.DurationMicros) * time.Microsecond)
		if s.Parent != tracing.RootSpanID || s.Start.Before(root.Start) || end.After(rootEnd) {
			t.Errorf("span %q [%v, %v] parent %d does not nest in the root [%v, %v]",
				stage, s.Start, end, s.Parent, root.Start, rootEnd)
		}
		if n := sampleValue(t, text, `ersolve_stage_latency_seconds_count{stage="`+stage+`"}`); n != 1 {
			t.Errorf("%s histogram count = %g, want 1", stage, n)
		}
	}
	if d := seen["serving.load"].DurationMicros; d < delay.Microseconds() {
		t.Errorf("serving.load span = %dus, want >= %dus", d, delay.Microseconds())
	}
	for _, gone := range []string{"snapshot.load", "persist.snapshot", "persist.index"} {
		if _, ok := seen[gone]; ok || strings.Contains(text, `stage="`+gone+`"`) {
			t.Errorf("the %q stage is still traced or registered", gone)
		}
	}
}
