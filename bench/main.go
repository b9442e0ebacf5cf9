// Command bench is the repository's benchmark: it builds ./cmd/ersolve,
// starts it as a subprocess per workload, drives it over HTTP with one
// writer and one reader connection, checks the answers, and reports what a
// client sees (end-to-end metrics) and — in a traced run — where the time
// goes layer by layer, measured from outside by replaying the same inputs
// against the layers' exported functions. See README.md.
//
//	bash bench/run.sh --workload durable_delta_6k --seed 1 --seconds 10 --trace 0   # one run, as the driver does
//	bash bench/run.sh -seed 1                                                       # every workload, both passes
//	bash bench/run.sh -noise 10                                                     # spread of every end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value, printed beside it.
	n int
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repoRoot is the repository whose cmd/ersolve is built and measured,
// relative to bench/, where run.sh and go test both run.
const repoRoot = ".."

type config struct {
	outDir string
	quick  bool
	bin    string
}

func main() {
	os.Exit(realMain())
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func realMain() int {
	var (
		workloadF  = flag.String("workload", "", "run this one workload and print the driver's result line")
		workloadsF = flag.String("workloads", "", "comma-separated workloads for a suite run (default all)")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Float64("seconds", runSeconds, "steady-phase length")
		trace      = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 runs the probe and reports per-layer metrics")
		noise      = flag.Int("noise", 0, "run each workload N times (seeds seed..seed+N-1) and print every end-to-end metric's spread")
		quick      = flag.Bool("quick", false, "shrunken corpora and phases, for the smoke test")
		out        = flag.String("out", "out", "directory for scratch data, spans.jsonl and results.json")
		spec       = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		body, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(body))
		return 0
	}
	var selected []workload
	names := *workloadsF
	if *workloadF != "" {
		names = *workloadF
	}
	for _, name := range strings.Split(names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}

	// The harness shares two cores with the server it measures; collect
	// its own garbage rarely.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every exit path — return, panic, signal, watchdog — kills the servers.
	defer func() {
		killAllServers()
		if v := recover(); v != nil {
			panic(v)
		}
	}()

	cfg := &config{outDir: *out, quick: *quick}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	binDir, err := os.MkdirTemp(cfg.outDir, "bin-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(binDir)
	if binDir, err = filepath.Abs(binDir); err != nil {
		return fail(err)
	}
	var buildTime time.Duration
	if cfg.bin, buildTime, err = buildServer(ctx, binDir); err != nil {
		return fail(err)
	}
	fmt.Printf("build_s %.3f s (go build ./cmd/ersolve; excluded from setup_s)\n", buildTime.Seconds())

	switch {
	case *workloadF != "":
		// The driver allows a run 180 s; die (killing the servers) before it
		// has to shoot the benchmark and orphan them.
		watchdog := time.AfterFunc(170*time.Second, func() {
			fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded 170 s")
			killAllServers()
			os.Exit(3)
		})
		defer watchdog.Stop()
		res, err := runOne(ctx, cfg, selected[0], *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(err)
		}
		res.print()
		line, err := json.Marshal(res.line(*trace == 1))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.correct() {
			return 1
		}
		return 0
	case *noise > 0:
		return noiseRun(ctx, cfg, selected, *seed, *seconds, *noise)
	default:
		return suiteRun(ctx, cfg, selected, *seed, *seconds)
	}
}

// runResult is one workload's run: operation counts and every metric
// measured. perLayer is the probe's and only a traced run has it; client
// is the part of it the HTTP pass alone supplies, which every run has.
type runResult struct {
	workload string
	ops      tally
	endToEnd map[string]metricValue
	client   map[string]metricValue
	perLayer map[string]metricValue
}

// correct is the run's verdict: no failed operation or check, and every
// reported metric a finite number.
func (r *runResult) correct() bool {
	for _, m := range []map[string]metricValue{r.endToEnd, r.perLayer} {
		for _, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return false
			}
		}
	}
	return r.ops.failed == 0
}

// line is the driver's result object: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *runResult) line(trace bool) result {
	metrics := r.endToEnd
	if trace {
		metrics = r.perLayer
	}
	out := result{Correct: r.correct(), Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: map[string]metricValue{}}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // JSON has no NaN; correct is already false
		}
		out.Metrics[name] = v
	}
	return out
}

func (r *runResult) print() {
	fmt.Printf("== %s: %d ops attempted, %d failed\n", r.workload, r.ops.attempted, r.ops.failed)
	for _, f := range r.ops.firstFailures {
		fmt.Println("   failed:", f)
	}
	layers := r.perLayer
	if layers == nil {
		layers = r.client
	}
	for _, table := range []struct {
		specs  []metricSpec
		values map[string]metricValue
	}{{endToEnd, r.endToEnd}, {perLayer, layers}} {
		for _, spec := range table.specs {
			if v, ok := table.values[spec.Name]; ok {
				fmt.Printf("%-36s %16.4f %-7s n=%d\n", spec.Name, v.Value, v.Unit, v.n)
			}
		}
	}
}

// runOne executes one workload once: the HTTP lifecycle, plus the probe
// when traced. The scratch directory is gone when it returns.
func runOne(ctx context.Context, cfg *config, w workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	if cfg.quick {
		w = quickWorkload(w)
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	genStart := time.Now()
	in, err := generate(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("generate_s %.3f s (%s: %d docs from seed %d)\n", time.Since(genStart).Seconds(), w.Name, in.docs, seed)

	run := &httpRun{
		w: w, in: in, bin: cfg.bin, dir: dir, plan: planFor(w, seconds, cfg.quick),
		wc: newClient(), rc: newClient(), m: map[string]samples{},
	}
	err = run.run(ctx)
	res := &runResult{workload: w.Name, ops: run.ops, endToEnd: map[string]metricValue{}}
	if err != nil {
		res.print()
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, spec := range endToEnd {
		s := run.m[spec.Name]
		res.endToEnd[spec.Name] = metricValue{Value: median(s), Unit: spec.Unit, n: len(s)}
	}
	res.client = clientMetrics(run)
	if trace {
		layer, probeOps, err := probe(ctx, cfg, w, in, run, dir)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.Name, err)
		}
		res.ops.merge(probeOps)
		for name, v := range res.client {
			layer[name] = v
		}
		res.perLayer = map[string]metricValue{}
		for _, spec := range perLayer {
			v := layer[spec.Name] // absent: the workload never calls this layer
			v.Unit = spec.Unit
			res.perLayer[spec.Name] = v
		}
	}
	return res, nil
}

// quickWorkload shrinks a workload for the smoke test.
func quickWorkload(w workload) workload {
	if w.Paper {
		w.Collections = 3
	} else {
		w.Collections = 20
	}
	return w
}

// suiteRun runs every selected workload untraced then traced and writes
// all numbers, with their sample counts, to results.json.
func suiteRun(ctx context.Context, cfg *config, selected []workload, seed int64, seconds float64) int {
	type cell struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	type row struct {
		Workload  string          `json:"workload"`
		Seed      int64           `json:"seed"`
		Trace     bool            `json:"trace"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]cell `json:"metrics"`
	}
	var rows []row
	code := 0
	for _, w := range selected {
		for _, trace := range []bool{false, true} {
			res, err := runOne(ctx, cfg, w, seed, seconds, trace)
			if err != nil {
				return fail(err)
			}
			res.print()
			if !res.correct() {
				code = 1
			}
			r := row{Workload: w.Name, Seed: seed, Trace: trace, Attempted: res.ops.attempted, Failed: res.ops.failed, Metrics: map[string]cell{}}
			for name, v := range res.line(trace).Metrics {
				r.Metrics[name] = cell{v.Value, v.Unit, v.n}
			}
			rows = append(rows, r)
		}
	}
	body, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(body, '\n'), 0o644)
	}
	if err != nil {
		return fail(err)
	}
	return code
}

// noiseRun repeats the untraced run n times per workload on consecutive
// seeds — what the driver does — and prints min / median / max and spread
// (interquartile distance over median) of each end-to-end metric, then of
// the client-side timings that are not gated, which is why they are not.
func noiseRun(ctx context.Context, cfg *config, selected []workload, seed int64, seconds float64, n int) int {
	code := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runOne(ctx, cfg, w, seed+int64(i), seconds, false)
			if err != nil {
				return fail(err)
			}
			if !res.correct() {
				res.print()
				code = 1
			}
			for _, m := range []map[string]metricValue{res.endToEnd, res.client} {
				for name, v := range m {
					values[name] = append(values[name], v.Value)
				}
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
		fmt.Printf("%-34s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, spec := range specs {
				v := sorted(values[spec.Name])
				if len(v) == 0 || v[len(v)-1] == 0 {
					continue
				}
				sp, bound := spread(v), "     -"
				if spec.Bound > 0 {
					bound = fmt.Sprintf("%6.2f", spec.Bound)
					switch {
					case sp > spec.Bound:
						bound += "  > bound"
					case sp > spec.Bound/3:
						bound += "  > bound/3"
					}
				}
				fmt.Printf("%-34s %12.4f %12.4f %12.4f %8.4f %s\n", spec.Name, v[0], median(v), v[len(v)-1], sp, bound)
			}
		}
	}
	return code
}
