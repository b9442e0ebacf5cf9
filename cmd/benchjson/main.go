// Command benchjson measures the numbers the project tracks across
// releases — ingest-plus-blocking throughput, incremental (delta) resolve
// latency, read-path lookup throughput, and the ANN candidate index's
// delta-ingest throughput with its candidate recall against exact canopy
// — and writes them as one JSON object. The committed BENCH_v10.json at
// the repo root is this command's output on the reference machine; CI
// re-runs it and fails on a >30% throughput/latency regression against
// the committed numbers, and on ANN recall below its absolute floor.
//
//	go run ./cmd/benchjson -out BENCH_v10.json
//
// The workload is deterministic (fixed seeds), so run-to-run variance
// comes from the machine, not the data.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/store"
)

// BenchReport is the committed benchmark record. Throughputs are
// higher-is-better; the latency is lower-is-better. Lookups are measured
// single-threaded, so LookupsPerSec is per core.
type BenchReport struct {
	Schema string `json:"schema"`
	// IngestBlockDocsPerSec is documents per second through store append
	// plus incremental block-index keying.
	IngestBlockDocsPerSec float64 `json:"ingest_block_docs_per_sec"`
	// DeltaResolveMillis is the wall time of one incremental resolve after
	// a small append, with the previous snapshot warm — the O(delta) path.
	DeltaResolveMillis float64 `json:"delta_resolve_ms"`
	// LookupsPerSec is single-threaded serving-index lookups per second
	// (alternating doc-ref and entity-ID lookups).
	LookupsPerSec float64 `json:"lookups_per_sec"`
	// ANNBlockDocsPerSec is documents per second through the Block stage
	// served by the ANN candidate index in the delta-ingest case: the
	// graph already holds all but the last 5 documents of each collection,
	// so each timed pass pays only the delta insertion plus block
	// assembly over the whole corpus (canopy scheme).
	ANNBlockDocsPerSec float64 `json:"ann_block_docs_per_sec"`
	// ANNRecall is the candidate pair recall of those ANN blocks against
	// the exact canopy blocks on the same corpus — the quantity the
	// sublinear index trades for throughput. Gated as an absolute floor,
	// not a relative regression.
	ANNRecall float64 `json:"ann_recall"`
	// Shape records the workload so the numbers are comparable.
	Collections int `json:"collections"`
	Docs        int `json:"docs"`
	Lookups     int `json:"lookups"`
	ANNDocs     int `json:"ann_docs"`
}

func main() {
	var (
		out      = flag.String("out", "-", "output file (- = stdout)")
		nCols    = flag.Int("collections", 24, "generated collections")
		nDocs    = flag.Int("docs", 40, "documents per collection")
		lookups  = flag.Int("lookups", 2_000_000, "read-path lookups to time")
		annCols  = flag.Int("ann-collections", 60, "collections in the ANN corpus")
		annDocs  = flag.Int("ann-docs", 50, "documents per ANN collection")
		annIters = flag.Int("ann-iters", 8, "timed ANN delta-ingest passes")
		annEf    = flag.Int("ann-ef", 0, "ANN neighbor-query beam width (0 = package default)")
	)
	flag.Parse()

	rep, err := run(*nCols, *nDocs, *lookups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := annBench(rep, *annCols, *annDocs, *annIters, *annEf); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	body = append(body, '\n')
	if *out == "-" {
		os.Stdout.Write(body)
		return
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(nCols, nDocs, lookups int) (*BenchReport, error) {
	ctx := context.Background()
	cols := make([]*corpus.Collection, nCols)
	for i := range cols {
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("person-%03d", i), NumDocs: nDocs, NumPersonas: 4,
			Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(100 + i),
		})
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}

	// Stage 1: ingest + blocking. Append each collection as its own batch
	// and re-key the delta through the sharded incremental index after
	// every batch — the serving pipeline's write path up to the Block
	// stage.
	st := store.NewMemStore()
	blocker, err := pipeline.NewBlocker(blocking.ExactKey{}, nil, 0)
	if err != nil {
		return nil, err
	}
	ib, ok := blocker.(*pipeline.IndexBlocker)
	if !ok {
		return nil, fmt.Errorf("exact-key blocker is %T, want *pipeline.IndexBlocker", blocker)
	}
	total := 0
	ingestStart := time.Now()
	for _, col := range cols {
		if _, err := st.Append([]*corpus.Collection{col}); err != nil {
			return nil, err
		}
		snap, _ := st.Snapshot()
		if _, err := ib.BlockFingerprints(ctx, snap); err != nil {
			return nil, err
		}
		total += len(col.Docs)
	}
	ingestSecs := time.Since(ingestStart).Seconds()

	// Warm resolve: builds the incremental snapshot every delta resolve
	// reuses.
	pl, err := pipeline.New(pipeline.Config{Blocker: ib})
	if err != nil {
		return nil, err
	}
	snap, version := st.Snapshot()
	full, err := pl.RunIncremental(ctx, snap, nil)
	if err != nil {
		return nil, err
	}

	// Stage 2: delta resolve. One grown collection, everything else
	// reused.
	delta, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: cols[0].Name, NumDocs: 10, NumPersonas: 4,
		Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: 999,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.Append([]*corpus.Collection{delta}); err != nil {
		return nil, err
	}
	snap, version = st.Snapshot()
	deltaStart := time.Now()
	inc, err := pl.RunIncremental(ctx, snap, full.Snapshot)
	if err != nil {
		return nil, err
	}
	deltaMillis := float64(time.Since(deltaStart).Microseconds()) / 1000

	// Stage 3: read path. Materialize the serving index the service would
	// publish for this commit, then hammer it single-threaded.
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
	x := serving.Build(nil, 1, version, "bench", snap, blocks)
	if err := x.Validate(); err != nil {
		return nil, err
	}
	ids := make([]string, 0, x.Clusters())
	for _, col := range snap {
		for pos := range col.Docs {
			if c := x.DocEntity(col.Name, pos); c != nil {
				ids = append(ids, c.ID)
			}
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("serving index answered no documents")
	}
	lookupStart := time.Now()
	hit := 0
	for i := 0; i < lookups/2; i++ {
		col := snap[i%len(snap)]
		if x.DocEntity(col.Name, i%len(col.Docs)) != nil {
			hit++
		}
		if x.Entity(ids[i%len(ids)]) != nil {
			hit++
		}
	}
	lookupSecs := time.Since(lookupStart).Seconds()
	if hit == 0 {
		return nil, fmt.Errorf("every lookup missed")
	}

	return &BenchReport{
		Schema:                "bench_v10",
		IngestBlockDocsPerSec: float64(total) / ingestSecs,
		DeltaResolveMillis:    deltaMillis,
		LookupsPerSec:         float64(2*(lookups/2)) / lookupSecs,
		Collections:           nCols,
		Docs:                  total,
		Lookups:               2 * (lookups / 2),
	}, nil
}

// annCorpus builds the ANN workload: name collections with token overlap
// across collection names (shared given names and surnames, occasional
// middle initials), a "base" prefix holding all but the last 5 documents
// of each, and the full union one ingest batch later. It mirrors the
// corpus of the pipeline ANN benchmarks so the committed numbers and
// `go test -bench` agree on the workload family.
func annCorpus(nCols, nDocs int) (base, full []*corpus.Collection, docs int, err error) {
	surnames := []string{"smith", "rivera", "cohen", "tanaka", "okafor", "larsen"}
	given := []string{"john", "maria", "wei", "amara", "erik", "fatima", "david", "yuki"}
	for i := 0; i < nCols; i++ {
		name := fmt.Sprintf("%s %s", given[i%len(given)], surnames[i%len(surnames)])
		if i%3 == 0 {
			name = fmt.Sprintf("%s %c %s", given[i%len(given)], 'a'+rune(i%26), surnames[i%len(surnames)])
		}
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: nDocs, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(7000 + i),
		})
		if err != nil {
			return nil, nil, 0, err
		}
		full = append(full, col)
		base = append(base, &corpus.Collection{
			Name: col.Name, Docs: col.Docs[:len(col.Docs)-5], NumPersonas: col.NumPersonas,
		})
		docs += len(col.Docs)
	}
	return base, full, docs, nil
}

// flattenMembers maps member refs to flattened document indices for the
// recall metric.
func flattenMembers(cols []*corpus.Collection, members [][]pipeline.DocRef) [][]int {
	offset := make([]int, len(cols))
	off := 0
	for ci, col := range cols {
		offset[ci] = off
		off += len(col.Docs)
	}
	out := make([][]int, len(members))
	for i, mem := range members {
		out[i] = make([]int, len(mem))
		for j, ref := range mem {
			out[i][j] = offset[ref.Col] + ref.Doc
		}
	}
	return out
}

// annBench fills in the ANN fields of the report: iters timed Block
// passes over the full corpus with the base graph restored (untimed)
// before each, then one recall comparison of the warm graph's blocks
// against the exact canopy pass.
func annBench(rep *BenchReport, nCols, nDocs, iters, efSearch int) error {
	ctx := context.Background()
	base, full, docs, err := annCorpus(nCols, nDocs)
	if err != nil {
		return err
	}
	scheme, err := blocking.ParseScheme("canopy")
	if err != nil {
		return err
	}
	approx, ok := scheme.(blocking.ApproxScheme)
	if !ok {
		return fmt.Errorf("canopy lost its approximation policy")
	}
	cfg := ann.Config{Scheme: approx, EfSearch: efSearch}
	seed, err := ann.New(cfg)
	if err != nil {
		return err
	}
	if _, err := seed.Update(base); err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := seed.EncodeTo(&buf); err != nil {
		return err
	}
	encoded := buf.Bytes()

	var ab *pipeline.IndexBlocker
	var timed time.Duration
	for i := 0; i < iters; i++ {
		idx, err := ann.Decode(bytes.NewReader(encoded), cfg)
		if err != nil {
			return err
		}
		ab = pipeline.NewANNBlockerWith(idx)
		start := time.Now()
		if _, err := ab.BlockFingerprints(ctx, full); err != nil {
			return err
		}
		timed += time.Since(start)
	}

	// The last blocker's graph is warm (delta already inserted), so this
	// membership pass measures recall of the steady-state index.
	_, annMembers, err := ab.BlockMembership(ctx, full)
	if err != nil {
		return err
	}
	_, exactMembers, err := pipeline.NewSchemeBlocker(approx).BlockMembership(ctx, full)
	if err != nil {
		return err
	}
	rep.ANNBlockDocsPerSec = float64(docs*iters) / timed.Seconds()
	rep.ANNRecall = eval.CandidateRecall(
		flattenMembers(full, exactMembers), flattenMembers(full, annMembers))
	rep.ANNDocs = docs
	return nil
}
