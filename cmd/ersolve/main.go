// Command ersolve runs the entity-resolution pipeline over a dataset JSON
// file (as produced by ergen) and prints the resolved entities, optionally
// with quality scores against the embedded ground truth; `ersolve serve`
// exposes the same pipeline as an HTTP service.
//
// Usage:
//
//	ersolve -in dataset.json [-strategy best|threshold|weighted|majority]
//	        [-clustering closure|correlation]
//	        [-blocking exact|token]
//	        [-keys collection|names|urlhost|phonetic]
//	        [-train 0.10] [-regions 10] [-seed N] [-score] [-members]
//	ersolve serve [-addr :8476] [-timeout 30s] [-max-body 33554432]
//	        [-drain 10s] [-data DIR]
//
// The serve mode accepts POST /v1/resolve with an ergen dataset JSON body
// (plus optional "strategy", "clustering", "blocking", "timeout_ms", …
// fields) and answers with each block's labels (document i's entity) and
// scores; requests are canceled mid-resolution when their timeout fires.
// It additionally owns a document store fed through POST /v1/collections
// (each ingest answers 202 once merged, naming its finished job, whose
// record GET /v1/jobs/{id} serves) and resolved
// via POST /v1/resolve/incremental, which re-prepares only blocks whose
// membership changed since the previous run. With -data DIR the store and every
// configuration's committed resolution are durable: ingested batches are
// journaled (and fsynced) before they are acknowledged, every incremental
// run appends the blocks it changed to its configuration's serving file
// before it answers, and a restarted server replays the journal and reloads
// the serving files — it answers lookups at once and its first incremental
// resolution reuses every block instead of re-preparing the corpus. The
// candidate (blocking) indexes live in memory only: that first resolution
// keys the replayed store into its configuration's index afresh. GET
// /metrics exposes every counter and latency histogram in the Prometheus
// text format, and GET /v1/traces dumps the last 256 resolve
// traces with per-stage pipeline spans plus the incremental resolve's lock
// wait, store snapshot, serving-index load and commit steps. On
// SIGINT/SIGTERM the server drains in-flight requests, ingests included,
// for up to -drain before canceling what remains, then flushes and closes
// the data directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/pipeline"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(ctx, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ersolve serve:", err)
			var ue *usageError
			if errors.As(err, &ue) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	var (
		in         = flag.String("in", "", "input dataset JSON (required)")
		strategy   = flag.String("strategy", "best", "best | threshold | weighted | majority")
		clustering = flag.String("clustering", "closure", "closure | correlation")
		blockingF  = flag.String("blocking", "exact", "exact | token")
		keysF      = flag.String("keys", "collection", "blocking keys: collection | names | urlhost | phonetic")
		train      = flag.Float64("train", 0.10, "training fraction")
		regionK    = flag.Int("regions", 10, "accuracy-estimation regions")
		seed       = flag.Int64("seed", 1, "random seed")
		score      = flag.Bool("score", false, "score against embedded ground truth")
		members    = flag.Bool("members", false, "list cluster members")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "ersolve: -in is required")
		os.Exit(2)
	}

	// Validate every flag up front so a typo fails fast, enums with the
	// list of valid values, before any data is loaded.
	strategyFn, err := pipeline.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ersolve: -strategy:", err)
		os.Exit(2)
	}
	clusteringM, err := core.ParseClusteringMethod(*clustering)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ersolve: -clustering:", err)
		os.Exit(2)
	}
	opts := core.DefaultOptions()
	opts.TrainFraction = *train
	opts.RegionK = *regionK
	opts.Seed = *seed
	opts.Clustering = clusteringM
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ersolve:", err)
		os.Exit(2)
	}
	// Both schemes block through the key index (the incremental Block
	// stage).
	blockingCfg, err := pipeline.ParseBlocking(*blockingF, *keysF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ersolve:", err)
		os.Exit(2)
	}
	blocker, err := blockingCfg.FreshBlocker()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ersolve:", err)
		os.Exit(1)
	}

	if err := run(ctx, *in, opts, strategyFn, blocker, *score, *members); err != nil {
		fmt.Fprintln(os.Stderr, "ersolve:", err)
		os.Exit(1)
	}
}

// usageError marks a flag-validation failure so main can exit with the
// conventional usage status 2 instead of the runtime-failure status 1.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// loadDataset reads and validates the dataset, closing the file on every
// path and surfacing close errors.
func loadDataset(path string) (*corpus.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	dataset, err := corpus.ReadJSON(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return dataset, err
}

func run(ctx context.Context, in string, opts core.Options, strategy pipeline.Strategy,
	blocker pipeline.Blocker, score, members bool) error {

	dataset, err := loadDataset(in)
	if err != nil {
		return err
	}

	pl, err := pipeline.New(pipeline.Config{
		Options:  opts,
		Strategy: strategy,
		Blocker:  blocker,
		Score:    score,
	})
	if err != nil {
		return err
	}

	results, err := pl.Run(ctx, dataset.Collections)
	if err != nil {
		return err
	}

	var scores []eval.Result
	for _, res := range results {
		fmt.Printf("%s: %d pages -> %d entities (%s)\n",
			res.Block.Name, len(res.Block.Docs), res.Resolution.NumEntities(), res.Resolution.Source)
		if members {
			clusters := make(map[int][]int)
			for doc, label := range res.Resolution.Labels {
				clusters[label] = append(clusters[label], doc)
			}
			for label := 0; label < res.Resolution.NumEntities(); label++ {
				fmt.Printf("  entity %d: %v\n", label, clusters[label])
			}
		}
		if res.Score != nil {
			scores = append(scores, *res.Score)
			fmt.Printf("  Fp=%.4f F=%.4f Rand=%.4f\n", res.Score.Fp, res.Score.F, res.Score.Rand)
		}
	}
	if score && len(scores) > 1 {
		avg := eval.Aggregate(scores)
		fmt.Printf("\naverage: Fp=%.4f F=%.4f Rand=%.4f\n", avg.Fp, avg.F, avg.Rand)
	}
	return nil
}

// runServe starts the HTTP service layer and blocks until the listener
// fails or an interrupt triggers a graceful shutdown: in-flight requests
// get the drain window to finish, then are canceled.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ersolve serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8476", "listen address")
		timeout = fs.Duration("timeout", 30*time.Second, "maximum per-request resolution time")
		maxBody = fs.Int64("max-body", 32<<20, "maximum request body bytes")
		drain   = fs.Duration("drain", 10*time.Second, "shutdown drain window for in-flight work")
		dataDir = fs.String("data", "", "durable data directory (default in-memory only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *addr == "":
		return &usageError{"-addr: listen address must not be empty"}
	case *timeout <= 0:
		return &usageError{fmt.Sprintf("-timeout: %v is out of range; need a positive duration", *timeout)}
	case *maxBody <= 0:
		return &usageError{fmt.Sprintf("-max-body: %d is out of range; need a positive byte count", *maxBody)}
	case *drain <= 0:
		return &usageError{fmt.Sprintf("-drain: %v is out of range; need a positive drain window", *drain)}
	}

	cfg := service.Config{
		DefaultTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
	}

	// The listener comes up immediately with a bootstrap handler that
	// answers 503 to everything — /readyz included — while the data
	// directory is opened and its journal replayed in the background. Once
	// replay finishes, the real service handler is swapped in atomically
	// and /readyz flips to 200, so an orchestrator can start the process,
	// point a readiness probe at it, and route traffic only when recovery
	// is done — a large journal no longer looks like a hung start.
	var handler atomic.Value
	handler.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting","detail":"journal replay in progress"}`)
	})))
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}

	// data is published by the opener goroutine and consumed by the
	// shutdown goroutine; it may still be nil when a very early signal
	// arrives.
	var mu sync.Mutex
	var data *persist.Data
	openFail := make(chan error, 1)
	go func() {
		if *dataDir != "" {
			// The counting filesystem is what /metrics' ersolve_persist_*
			// families read: bytes, fsyncs and renames per artifact kind.
			d, err := persist.OpenWithOptions(*dataDir, persist.Options{FS: faultfs.NewCounting(nil)})
			if err != nil {
				openFail <- err
				httpSrv.Close()
				return
			}
			st := d.Store.Stats()
			fmt.Fprintf(os.Stderr, "ersolve: data directory %s: %d collections, %d documents (version %d)\n",
				*dataDir, st.Collections, st.Docs, st.Version)
			cfg.Store = d.Store
			cfg.Serving = d.Serving
			mu.Lock()
			data = d
			mu.Unlock()
		}
		handler.Store(http.Handler(service.New(cfg).Handler()))
		fmt.Fprintln(os.Stderr, "ersolve: ready")
	}()

	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintf(os.Stderr, "ersolve: shutting down, draining for up to %v\n", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// First stop taking requests and let in-flight handlers — ingests
		// among them, each acknowledged only after its append — finish,
		// then flush and close the data directory so the last journal
		// write and segment state land on disk. The server itself holds
		// nothing to drain or flush. An ingest still running past the
		// drain window holds the store's mutex until its append returns,
		// and one that starts after Data.Close fails its job: the store
		// refuses appends once closed.
		err := httpSrv.Shutdown(shutdownCtx)
		mu.Lock()
		d := data
		mu.Unlock()
		if d != nil {
			if cerr := d.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("flushing data directory: %w", cerr)
			}
		}
		done <- err
	}()

	fmt.Fprintf(os.Stderr,
		"ersolve: serving POST /v1/resolve, /v1/collections, /v1/resolve/incremental on %s (timeout %v)\n",
		*addr, *timeout)
	err := httpSrv.ListenAndServe()
	select {
	case oerr := <-openFail:
		return oerr
	default:
	}
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}
