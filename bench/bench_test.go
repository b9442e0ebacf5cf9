package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesSpec pins the committed BENCHMARK.json to the
// tables in spec.go, which is what the runs actually report.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestQuick is the smoke test: a shrunken traced run of the durable
// workload (every end-to-end and per-layer metric, the span file) and an
// untraced run of the in-memory paper workload.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer killAllServers()
	out := t.TempDir()
	cfg := &config{outDir: out, quick: true}
	var err error
	if cfg.bin, _, err = buildServer(ctx, t.TempDir()); err != nil {
		t.Fatal(err)
	}

	check := func(res *runResult, specs []metricSpec, values map[string]metricValue, zeroOK bool) {
		t.Helper()
		if len(values) != len(specs) {
			t.Errorf("%s: %d metrics reported, %d named", res.workload, len(values), len(specs))
		}
		for _, spec := range specs {
			v, ok := values[spec.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is missing", res.workload, spec.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 || (v.Value == 0 && !zeroOK):
				t.Errorf("%s: %s = %v, want a positive finite number", res.workload, spec.Name, v.Value)
			case v.Unit != spec.Unit:
				t.Errorf("%s: %s has unit %q, want %q", res.workload, spec.Name, v.Unit, spec.Unit)
			}
		}
	}

	durable, _ := workloadByName("durable_delta_6k")
	res, err := runOne(ctx, cfg, durable, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("durable run failed %d of %d ops: %v", res.ops.failed, res.ops.attempted, res.ops.firstFailures)
	}
	check(res, endToEnd, res.endToEnd, false)
	// service.resolve_self_ms is a difference of two medians and may dip
	// below zero on a corpus this small; every other layer row is positive
	// on a durable workload.
	self := res.perLayer["service.resolve_self_ms"]
	self.Value = math.Abs(self.Value) + 1
	res.perLayer["service.resolve_self_ms"] = self
	check(res, perLayer, res.perLayer, false)
	checkSpans(t, filepath.Join(out, "spans.jsonl"))

	paper, _ := workloadByName("paper_www05")
	res, err = runOne(ctx, cfg, paper, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("paper run failed %d of %d ops: %v", res.ops.failed, res.ops.attempted, res.ops.firstFailures)
	}
	check(res, endToEnd, res.endToEnd, false)
	for _, spec := range perLayer {
		if _, fromHTTP := res.client[spec.Name]; fromHTTP && res.client[spec.Name].Value <= 0 {
			t.Errorf("paper run: client-side %s = %v, want positive", spec.Name, res.client[spec.Name].Value)
		}
	}

	live.Lock()
	if n := len(live.procs); n != 0 {
		t.Errorf("%d server processes survive the runs", n)
	}
	live.Unlock()
	left, err := filepath.Glob(filepath.Join(out, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories survive the runs: %v (err %v)", left, err)
	}
}

// checkSpans parses the span file and checks every child lies inside its
// parent and shares its trace.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var all []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans.jsonl: %v", err)
		}
		byID[s.Span] = s
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.Span, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Name] = true
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %d %s [%d,%d]",
				s.Span, s.Name, s.Start, s.End, p.Span, p.Name, p.Start, p.End)
		}
	}
	for _, op := range []string{"op.bulk_ingest", "op.full_resolve", "op.ingest_commit", "op.delta_resolve", "op.nochange_resolve", "op.restart"} {
		if !roots[op] {
			t.Errorf("spans.jsonl has no %s trace", op)
		}
	}
}
