package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/pipeline"
	"repro/internal/regions"
	"repro/internal/serving"
	"repro/internal/simfn"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/textsim"
)

// instruments times single layers through their exported functions: the
// compute layers on fixed-size blocks (42, 100 and 150 pages — a grown
// delta block, a WWW'05 block, a WePS block), the codecs and the read path
// on the replay's own state, and the ANN index on cmd/benchjson's corpus.
func instruments(ctx context.Context, rp *replay, m layerMetrics) error {
	if err := computeInstruments(ctx, m); err != nil {
		return err
	}
	if err := stateInstruments(ctx, rp, m); err != nil {
		return err
	}
	return annInstruments(ctx, m)
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// fixedBlock generates one collection of the given profile and size.
func fixedBlock(p corpus.DatasetProfile, name string, personas, docs int) (*corpus.Collection, error) {
	return corpus.GenerateCollection(corpus.CollectionConfig{
		Name: name, NumDocs: docs, NumPersonas: personas,
		Noise: p.Noise, MissingInfo: p.MissingInfo, Spurious: p.Spurious,
		Template: p.Template, ChannelScale: p.ChannelScale,
		Seed: stats.SplitSeed(1, p.Label+"/"+name),
	})
}

func computeInstruments(ctx context.Context, m layerMetrics) error {
	www, weps := corpus.WWW05Profile(), corpus.WePSProfile()
	c42, err := fixedBlock(corpus.DatasetProfile{Label: "delta", Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2}, "badeba", 4, 42)
	if err != nil {
		return err
	}
	c100, err := fixedBlock(www, www.Names[5], www.ClusterCounts[5], 100)
	if err != nil {
		return err
	}
	c150, err := fixedBlock(weps, weps.Names[0], weps.ClusterCounts[0], 150)
	if err != nil {
		return err
	}
	resolver, err := core.New(core.DefaultOptions())
	if err != nil {
		return err
	}
	var prepared *core.Prepared
	for _, b := range []struct {
		name string
		col  *corpus.Collection
	}{{"core.prepare_ms_42", c42}, {"core.prepare_ms_150", c150}, {"core.prepare_ms_100", c100}} {
		d, err := timeMedian(3, func() (err error) {
			prepared, err = resolver.PrepareCtx(ctx, b.col)
			return err
		})
		if err != nil {
			return err
		}
		m.set(b.name, ms(d), 3)
	}
	// prepared is now the 100-page block's; the rest run on it.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := resolver.PrepareCtx(ctx, c100); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m.set("core.prepare_allocs_per_doc", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(c100.Docs)), 1)

	var an *core.Analysis
	d, err := timeMedian(5, func() (err error) {
		an, err = prepared.Run(7)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.analyze_ms", ms(d), 5)
	var res *core.Resolution
	d, err = timeMedian(5, func() (err error) {
		res, err = an.BestAnyCriterion()
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.combine_ms", ms(d), 5)

	fe := extract.NewFeatureExtractor(nil, nil)
	var block *simfn.Block
	d, err = timeMedian(3, func() (err error) {
		block, err = simfn.PrepareBlockCtx(ctx, c100, fe)
		return err
	})
	if err != nil {
		return err
	}
	m.set("simfn.prepare_block_ms", ms(d), 3)
	funcs, err := simfn.Subset(core.DefaultOptions().FunctionIDs)
	if err != nil {
		return err
	}
	d, err = timeMedian(3, func() error {
		_, err := simfn.ComputeAllCtx(ctx, block, funcs)
		return err
	})
	if err != nil {
		return err
	}
	m.set("simfn.compute_all_ms", ms(d), 3)

	// Per-document stages of Prepare, each over the 100 pages.
	n := len(c100.Docs)
	perDoc := func(name string, fn func(doc corpus.Document)) {
		d, _ := timeMedian(3, func() error {
			for _, doc := range c100.Docs {
				fn(doc)
			}
			return nil
		})
		m.set(name, usOf(d)/float64(n), 3)
	}
	perDoc("extract.features_us_per_doc", func(doc corpus.Document) { fe.Extract(doc.Text, doc.URL, c100.Name) })
	perDoc("analysis.terms_us_per_doc", func(doc corpus.Document) { analysis.Standard.Terms(doc.Text) })
	ix := index.New(nil)
	perDoc("index.add_us_per_doc", func(doc corpus.Document) { ix.Add(c100.Name, doc.Text) })
	vectors := ix.AllVectors()[:n]
	d, _ = timeMedian(3, func() error {
		vocab := textsim.NewVocab()
		for _, v := range vectors {
			v.Pack(vocab)
		}
		return nil
	})
	m.set("textsim.pack_us_per_doc", usOf(d)/float64(n), 3)
	var tokens []string
	for _, doc := range c100.Docs {
		tokens = append(tokens, analysis.Tokenize(doc.Text)...)
	}
	d, _ = timeMedian(3, func() error {
		for _, tok := range tokens {
			analysis.PorterStem(tok)
		}
		return nil
	})
	m.set("analysis.stem_ns_per_token", float64(d)/float64(len(tokens)), 3)

	// The small stages: one region fit, one clustering, one scoring.
	values := an.Train.Values(prepared.Matrices[funcs[0].ID])
	d, err = timeMedian(21, func() error {
		_, err := regions.EstimateAccuracy(regions.NewEqualWidthBins(10), values, an.Train.Links)
		return err
	})
	if err != nil {
		return err
	}
	m.set("regions.estimate_us", usOf(d), 21)
	graph := an.Graphs[0].Graph
	d, _ = timeMedian(21, func() error {
		graph.ConnectedComponents()
		return nil
	})
	m.set("ergraph.cluster_us", usOf(d), 21)
	truth := c100.GroundTruth()
	d, err = timeMedian(21, func() error {
		_, err := eval.Evaluate(res.Labels, truth)
		return err
	})
	if err != nil {
		return err
	}
	m.set("eval.score_us", usOf(d), 21)
	return nil
}

// stateInstruments times the store, the codecs, the exact blockers and the
// read path on the corpus and artifacts the replay built.
func stateInstruments(ctx context.Context, rp *replay, m layerMetrics) error {
	// store: a fresh in-memory store fed the bulk load, one batch at a time.
	mem := store.NewMemStore()
	var appends []float64
	for _, col := range rp.in.initial {
		start := time.Now()
		if _, err := mem.Append([]*corpus.Collection{col}); err != nil {
			return err
		}
		appends = append(appends, usOf(time.Since(start)))
	}
	m.median("store.append_us", appends)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cols, _ := rp.st.Snapshot()
	runtime.ReadMemStats(&ms1)
	m.set("store.snapshot_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), 1)

	var buf bytes.Buffer
	d, err := timeMedian(3, func() error {
		buf.Reset()
		return pipeline.EncodeSnapshot(&buf, rp.snap)
	})
	if err != nil {
		return err
	}
	m.set("pipeline.snapshot_encode_ms", ms(d), 3)
	encoded := buf.Bytes()
	d, err = timeMedian(3, func() error {
		_, err := rp.pl.DecodeSnapshot(bytes.NewReader(encoded))
		return err
	})
	if err != nil {
		return err
	}
	m.set("pipeline.snapshot_decode_ms", ms(d), 3)

	var idxBuf bytes.Buffer
	d, err = timeMedian(3, func() error {
		idxBuf.Reset()
		_, err := rp.ib.Index().EncodeTo(&idxBuf)
		return err
	})
	if err != nil {
		return err
	}
	m.set("blockindex.encode_ms", ms(d), 3)

	var srvBuf bytes.Buffer
	d, err = timeMedian(3, func() error {
		srvBuf.Reset()
		return rp.serving.EncodeTo(&srvBuf)
	})
	if err != nil {
		return err
	}
	m.set("serving.encode_ms", ms(d), 3)
	srvBytes := srvBuf.Bytes()
	d, err = timeMedian(3, func() error {
		_, err := serving.Decode(bytes.NewReader(srvBytes))
		return err
	})
	if err != nil {
		return err
	}
	m.set("serving.decode_ms", ms(d), 3)

	// The exact block stage from scratch: the stateless reference blocker
	// over the whole corpus, and canopy over the one-shot subset (it is
	// quadratic, so the cap keeps it to the size the paper's datasets have).
	d, err = timeMedian(3, func() error {
		_, _, err := pipeline.NewSchemeBlocker(blocking.ExactKey{}).BlockMembership(ctx, cols)
		return err
	})
	if err != nil {
		return err
	}
	m.set("blocking.exact_block_ms", ms(d), 3)
	canopy, err := blocking.ParseScheme("canopy")
	if err != nil {
		return err
	}
	subset := cols
	for docs, i := 0, 0; i < len(cols); i++ {
		if docs += len(cols[i].Docs); docs > oneshotMaxDocs {
			subset = cols[:i]
			break
		}
	}
	d, err = timeMedian(1, func() error {
		_, _, err := pipeline.NewSchemeBlocker(canopy).BlockMembership(ctx, subset)
		return err
	})
	if err != nil {
		return err
	}
	m.set("blocking.canopy_block_ms", ms(d), 1)

	// Read path: the three lookups the reader issues, in a tight loop.
	x := rp.serving
	var ids []string
	for _, col := range cols {
		if c := x.DocEntity(col.Name, 0); c != nil {
			ids = append(ids, c.ID)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("serving index answered no documents")
	}
	const lookups = 200_000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		// Initial pages only: the handler pass appended past the replay's
		// last commit.
		col, pos := cols[i%len(cols)], i%rp.in.w.DocsPer
		if x.DocEntity(col.Name, pos) == nil {
			return fmt.Errorf("serving index lost %s:%d", col.Name, pos)
		}
	}
	m.set("serving.doc_entity_ns", float64(time.Since(start))/lookups, lookups)
	start = time.Now()
	for i := 0; i < lookups; i++ {
		if x.Entity(ids[i%len(ids)]) == nil {
			return fmt.Errorf("serving index lost entity %s", ids[i%len(ids)])
		}
	}
	m.set("serving.entity_ns", float64(time.Since(start))/lookups, lookups)
	const searches = 2000
	start = time.Now()
	for i := 0; i < searches; i++ {
		if len(x.Search(cols[i%len(cols)].Name, 0)) == 0 {
			return fmt.Errorf("search for %q found nothing", cols[i%len(cols)].Name)
		}
	}
	m.set("serving.search_us", usOf(time.Since(start))/searches, searches)
	return nil
}

// annInstruments is the successor of BENCH_v10.json's ANN rows: the
// cmd/benchjson corpus (name collections whose tokens overlap across
// collections, fixed seeds, so recall is comparable release to release),
// graph insertion throughput, and candidate recall against exact canopy.
func annInstruments(ctx context.Context, m layerMetrics) error {
	surnames := []string{"smith", "rivera", "cohen", "tanaka", "okafor", "larsen"}
	given := []string{"john", "maria", "wei", "amara", "erik", "fatima", "david", "yuki"}
	var cols []*corpus.Collection
	docs := 0
	for i := 0; i < 60; i++ {
		name := given[i%len(given)] + " " + surnames[i%len(surnames)]
		if i%3 == 0 {
			name = fmt.Sprintf("%s %c %s", given[i%len(given)], 'a'+rune(i%26), surnames[i%len(surnames)])
		}
		col, err := corpus.GenerateCollection(corpus.CollectionConfig{
			Name: name, NumDocs: 50, NumPersonas: 3,
			Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(7000 + i),
		})
		if err != nil {
			return err
		}
		cols = append(cols, col)
		docs += len(col.Docs)
	}
	scheme, err := blocking.ParseScheme("canopy")
	if err != nil {
		return err
	}
	approx, ok := scheme.(blocking.ApproxScheme)
	if !ok {
		return fmt.Errorf("canopy lost its approximation policy")
	}
	idx, err := ann.New(ann.Config{Scheme: approx})
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := idx.Update(cols); err != nil {
		return err
	}
	m.set("ann.update_docs_per_s", float64(docs)/time.Since(start).Seconds(), 1)

	_, annMembers, err := pipeline.NewANNBlockerWith(idx).BlockMembership(ctx, cols)
	if err != nil {
		return err
	}
	_, exactMembers, err := pipeline.NewSchemeBlocker(approx).BlockMembership(ctx, cols)
	if err != nil {
		return err
	}
	m.set("ann.recall", eval.CandidateRecall(flatten(cols, exactMembers), flatten(cols, annMembers)), 1)
	return nil
}

// flatten maps member refs to corpus-wide document indices.
func flatten(cols []*corpus.Collection, members [][]pipeline.DocRef) [][]int {
	offset := make([]int, len(cols))
	for ci, off := 0, 0; ci < len(cols); ci++ {
		offset[ci] = off
		off += len(cols[ci].Docs)
	}
	out := make([][]int, len(members))
	for i, mem := range members {
		for _, ref := range mem {
			out[i] = append(out[i], offset[ref.Col]+ref.Doc)
		}
	}
	return out
}

// timeMedian runs fn n times and returns the median wall time.
func timeMedian(n int, fn func() error) (time.Duration, error) {
	var d []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(start)))
	}
	return time.Duration(median(d)), nil
}
