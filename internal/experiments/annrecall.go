package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/pipeline"
)

// The ANN recall sweep quantifies what the approximate candidate index
// trades against the exact canopy pass it replaces, on the synthetic
// WWW'05 dataset with per-document extracted-name keys (the richest key
// function, so documents carry distinct vectors and the graph actually
// has to search). For each efSearch setting it reports the pair-level
// candidate recall of the ANN blocks against the exact canopy blocks,
// the end-to-end Fp of resolving the ANN blocks, and the Block-stage
// wall time — next to the exact baseline's Fp and wall time. Both sides
// run the identical downstream pipeline with the same training seed, so
// any Fp difference is attributable to the Block stage alone.

// ANNRecallPoint is one efSearch setting's measurement.
type ANNRecallPoint struct {
	// EfSearch is the neighbor-query beam width (the recall knob).
	EfSearch int
	// Recall is the fraction of exact-canopy co-blocked pairs the ANN
	// blocks preserve.
	Recall float64
	// Blocks is the number of candidate-connected components.
	Blocks int
	// Fp is the end-to-end paper F-measure of resolving the ANN blocks.
	Fp float64
	// BlockMillis is the Block-stage wall time: one full insertion pass
	// plus block assembly.
	BlockMillis float64
}

// ANNRecallReport is the sweep result plus the exact-canopy baseline.
type ANNRecallReport struct {
	// Docs is the corpus size.
	Docs int
	// ExactBlocks, ExactFp and ExactMillis are the exact canopy pass's
	// block count, end-to-end Fp, and Block-stage wall time.
	ExactBlocks int
	ExactFp     float64
	ExactMillis float64
	// Points are the ANN measurements, one per efSearch setting.
	Points []ANNRecallPoint
}

// ANNRecallSweep runs the sweep over the given efSearch settings.
func ANNRecallSweep(ctx context.Context, cfg Config, efs []int) (*ANNRecallReport, error) {
	d, err := corpus.WWW05Profile().Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	cols := d.Collections
	keys, err := pipeline.ParseKeys("names")
	if err != nil {
		return nil, err
	}
	// A tighter canopy than the serving default (loose 0.3 glues the
	// whole extracted-name corpus into one block, which measures
	// nothing): at loose 0.55 the corpus separates into many canopies,
	// so recall has pairs to lose and the sweep has something to show.
	scheme := blocking.Canopy{Loose: 0.55, Tight: 0.9}

	// Global ground truth over the flattened corpus: personas are
	// per-collection, so each collection's labels get their own range.
	offset := make([]int, len(cols))
	total := 0
	for ci, col := range cols {
		offset[ci] = total
		total += len(col.Docs)
	}
	flat := func(ref pipeline.DocRef) int { return offset[ref.Col] + ref.Doc }
	truth := make([]int, total)
	next := 0
	for ci, col := range cols {
		gt := col.GroundTruth()
		high := 0
		for di, label := range gt {
			truth[offset[ci]+di] = next + label
			if label > high {
				high = label
			}
		}
		next += high + 1
	}

	flatten := func(members [][]pipeline.DocRef) [][]int {
		out := make([][]int, len(members))
		for i, mem := range members {
			out[i] = make([]int, len(mem))
			for j, ref := range mem {
				out[i][j] = flat(ref)
			}
		}
		return out
	}

	// endToEnd resolves the corpus through the given blocker and scores
	// the resulting global clustering: per-block labels become globally
	// distinct cluster ids through the block's membership.
	endToEnd := func(blocker pipeline.Blocker, members [][]pipeline.DocRef) (float64, error) {
		opts := cfg.options()
		opts.Seed = cfg.Seed
		pl, err := pipeline.New(pipeline.Config{Blocker: blocker, Options: opts})
		if err != nil {
			return 0, err
		}
		results, err := pl.Run(ctx, cols)
		if err != nil {
			return 0, err
		}
		if len(results) != len(members) {
			return 0, fmt.Errorf("experiments: %d resolved blocks but %d membership blocks", len(results), len(members))
		}
		pred := make([]int, total)
		nextCluster := 0
		for i, res := range results {
			labels := res.Resolution.Labels
			if len(labels) != len(members[i]) {
				return 0, fmt.Errorf("experiments: block %d has %d labels for %d members", i, len(labels), len(members[i]))
			}
			local := map[int]int{}
			for j, label := range labels {
				g, ok := local[label]
				if !ok {
					g = nextCluster
					nextCluster++
					local[label] = g
				}
				pred[flat(members[i][j])] = g
			}
		}
		return eval.FpMeasure(pred, truth)
	}

	rep := &ANNRecallReport{Docs: total}

	exact := pipeline.SchemeBlocker{Scheme: scheme, Keys: keys}
	start := time.Now()
	exactBlocks, err := exact.BlockFingerprints(ctx, cols)
	if err != nil {
		return nil, err
	}
	exactMembers := exactBlocks.Members
	rep.ExactMillis = float64(time.Since(start).Microseconds()) / 1000
	rep.ExactBlocks = len(exactMembers)
	if rep.ExactFp, err = endToEnd(exact, exactMembers); err != nil {
		return nil, err
	}
	ref := flatten(exactMembers)

	for _, ef := range efs {
		idx, err := ann.New(ann.Config{Scheme: scheme, Keys: ann.KeyFunc(keys), EfSearch: ef})
		if err != nil {
			return nil, err
		}
		ab := pipeline.NewANNBlockerWith(idx)
		start := time.Now()
		annBlocks, err := ab.BlockFingerprints(ctx, cols)
		if err != nil {
			return nil, err
		}
		annMembers := annBlocks.Members
		point := ANNRecallPoint{
			EfSearch:    ef,
			BlockMillis: float64(time.Since(start).Microseconds()) / 1000,
			Blocks:      len(annMembers),
			Recall:      eval.CandidateRecall(ref, flatten(annMembers)),
		}
		// The graph is warm now, so the pipeline's own Block call inside
		// Run pays only assembly — the steady-state serving shape.
		if point.Fp, err = endToEnd(ab, annMembers); err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, point)
	}
	return rep, nil
}

// Render formats the sweep as a text table.
func (r *ANNRecallReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ANN candidate index vs exact canopy (WWW'05, names keys, %d docs)\n", r.Docs)
	fmt.Fprintf(&b, "  %-10s  %-8s  %-8s  %-8s  %s\n", "config", "recall", "blocks", "Fp", "block ms")
	fmt.Fprintf(&b, "  %-10s  %-8s  %-8d  %-8.4f  %.1f\n", "exact", "1.0000", r.ExactBlocks, r.ExactFp, r.ExactMillis)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-10s  %-8.4f  %-8d  %-8.4f  %.1f\n",
			fmt.Sprintf("ef=%d", p.EfSearch), p.Recall, p.Blocks, p.Fp, p.BlockMillis)
	}
	return b.String()
}
