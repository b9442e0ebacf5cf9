package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// Resolver runs Algorithm 1 over collections. It is safe to reuse across
// collections; each ResolveCtx/PrepareCtx call is independent.
type Resolver struct {
	opts  Options
	funcs []simfn.Func
}

// New validates the options and returns a resolver.
func New(opts Options) (*Resolver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	funcs, err := simfn.Subset(opts.FunctionIDs)
	if err != nil {
		return nil, err
	}
	return &Resolver{opts: opts, funcs: funcs}, nil
}

// Options returns a copy of the resolver's options.
func (r *Resolver) Options() Options { return r.opts }

// Prepared caches the per-collection work that does not depend on the
// training split: the prepared block (feature extraction, TF-IDF vectors)
// and the pairwise similarity matrices of every selected function. Multiple
// experiment runs with different training samples share one Prepared.
type Prepared struct {
	// Block is the prepared blocking unit.
	Block *simfn.Block
	// Matrices are the per-function similarity matrices, keyed by ID.
	Matrices map[string]*simfn.Matrix

	resolver *Resolver
}

// PrepareCtx extracts features and computes all similarity matrices for one
// collection (the per-block G_w^fi computation of Algorithm 1). The context
// is threaded into feature extraction and the pairwise matrix computation,
// so a canceled or timed-out context aborts mid-extraction or mid-matrix and
// returns ctx.Err().
func (r *Resolver) PrepareCtx(ctx context.Context, col *corpus.Collection) (*Prepared, error) {
	if len(col.Docs) < 2 {
		return nil, fmt.Errorf("core: collection %q has %d documents", col.Name, len(col.Docs))
	}
	block, err := simfn.PrepareBlockCtx(ctx, col, nil)
	if err != nil {
		return nil, err
	}
	matrices, err := simfn.ComputeAllCtx(ctx, block, r.funcs)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Block:    block,
		Matrices: matrices,
		resolver: r,
	}, nil
}

// PrepareAllCtx prepares independent collections concurrently on a bounded
// worker pool (GOMAXPROCS) and returns the results in input order. Blocks
// are independent by construction — the paper's blocking scheme computes
// similarities only within a block — so per-name preparation (feature
// extraction, TF-IDF, all similarity matrices) parallelizes without
// coordination. The result slice is deterministic: out[i] always
// corresponds to cols[i], and each Prepared is identical to what a serial
// r.PrepareCtx(ctx, cols[i]) would build. A canceled or timed-out context
// stops workers from claiming further collections, aborts the in-flight
// per-collection preparations, and returns ctx.Err().
func (r *Resolver) PrepareAllCtx(ctx context.Context, cols []*corpus.Collection) ([]*Prepared, error) {
	out := make([]*Prepared, len(cols))
	errs := make([]error, len(cols))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cols) {
		workers = len(cols)
	}
	if workers <= 1 {
		for i, col := range cols {
			p, err := r.PrepareCtx(ctx, col)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				return nil, fmt.Errorf("core: preparing %q: %w", col.Name, err)
			}
			out[i] = p
		}
		return out, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cols) {
					return
				}
				out[i], errs[i] = r.PrepareCtx(ctx, cols[i])
				if errs[i] != nil {
					// Stop claiming further collections; the error is
					// reported to the caller, so finishing the rest of
					// the dataset would be wasted work.
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: preparing %q: %w", cols[i].Name, err)
		}
	}
	return out, nil
}

// Analysis is the per-run state of Algorithm 1: a training sample and the
// full set of decision graphs G_{i,Dj} with their accuracy estimates.
type Analysis struct {
	// Prepared links back to the shared per-collection state.
	Prepared *Prepared
	// Train is this run's training sample.
	Train *Training
	// Graphs holds one decision graph per (function, criterion).
	Graphs []*DecisionGraph

	opts Options
	rng  *rand.Rand
}

// Run draws a training sample with the given seed and builds every
// decision graph. Distinct seeds give the independent runs the paper
// averages over.
func (p *Prepared) Run(runSeed int64) (*Analysis, error) {
	return p.RunWith(runSeed, p.resolver.opts)
}

// RunWith is Run with per-run option overrides (training fraction, region
// count, clustering method), letting ablation experiments share one
// expensive PrepareCtx across many configurations. The function set is fixed
// by the PrepareCtx call; opts.FunctionIDs is ignored here.
func (p *Prepared) RunWith(runSeed int64, opts Options) (*Analysis, error) {
	if opts.TrainFraction <= 0 || opts.TrainFraction >= 1 {
		return nil, fmt.Errorf("core: train fraction %v out of (0,1)", opts.TrainFraction)
	}
	if opts.RegionK < 2 {
		return nil, fmt.Errorf("core: region count %d < 2", opts.RegionK)
	}
	rng := stats.NewRNG(runSeed)
	train, err := NewTraining(p.Block, opts.TrainFraction, rng)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Prepared: p, Train: train, opts: opts, rng: rng}
	for _, f := range p.resolver.funcs {
		m := p.Matrices[f.ID]
		s := newSample(train, m)
		for _, crit := range AllCriteria {
			dg, err := buildDecisionGraph(f.ID, crit, m, train, s, opts.RegionK, rng)
			if err != nil {
				return nil, err
			}
			a.Graphs = append(a.Graphs, dg)
		}
	}
	return a, nil
}

// Resolution is one final entity resolution of a block.
type Resolution struct {
	// Labels assigns each document a cluster index.
	Labels []int
	// Source describes which combination produced the clustering.
	Source string
}

// NumEntities returns the number of predicted entities.
func (r *Resolution) NumEntities() int { return ergraph.NumClusters(r.Labels) }

// cluster applies the configured final clustering step to a combined graph.
func (a *Analysis) cluster(g *ergraph.Graph) []int {
	switch a.opts.Clustering {
	case CorrelationClustering:
		return ergraph.CorrelationCluster(g, a.rng)
	default:
		return g.ConnectedComponents()
	}
}

// BestThresholdOnly resolves with the best threshold-criterion graph (the
// paper's I columns: "maximal performance considering just the threshold-
// based technique").
func (a *Analysis) BestThresholdOnly() (*Resolution, error) {
	best, err := SelectBestGraph(a.Graphs, ThresholdCriterion)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.cluster(best.Graph), Source: best.Label()}, nil
}

// BestAnyCriterion resolves with the best graph over all decision criteria
// (the paper's C columns: "chose the best decision criteria, based on
// accuracy estimation of the regions" — the combination that performed
// best in the paper).
func (a *Analysis) BestAnyCriterion() (*Resolution, error) {
	best, err := SelectBestGraph(a.Graphs, AllCriteria...)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.cluster(best.Graph), Source: best.Label()}, nil
}

// WeightedAverage resolves with the accuracy-weighted average combination
// (the paper's W column). Each function is represented by its best
// criterion's graph.
func (a *Analysis) WeightedAverage() (*Resolution, error) {
	per := bestPerFunction(a.Graphs)
	combined, threshold, err := WeightedAverageGraph(per, a.Prepared.Matrices, a.Train)
	if err != nil {
		return nil, err
	}
	return &Resolution{
		Labels: a.cluster(combined),
		Source: fmt.Sprintf("weighted-average(th=%.3f)", threshold),
	}, nil
}

// MajorityVote resolves with the simple majority-vote fusion over each
// function's best graph (ablation baseline).
func (a *Analysis) MajorityVote() (*Resolution, error) {
	per := bestPerFunction(a.Graphs)
	combined, err := MajorityVoteGraph(per)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.cluster(combined), Source: "majority-vote"}, nil
}

// SingleFunction resolves with one function under one criterion — the
// per-function bars of Figures 2 and 3 and the F1..F10 columns of Table III
// use the threshold criterion.
func (a *Analysis) SingleFunction(funcID string, crit CriterionKind) (*Resolution, error) {
	for _, g := range a.Graphs {
		if g.FuncID == funcID && g.Criterion == crit {
			return &Resolution{Labels: a.cluster(g.Graph), Source: g.Label()}, nil
		}
	}
	return nil, fmt.Errorf("core: no graph for %s/%s", funcID, crit)
}

// Graph returns the decision graph for (funcID, crit), for inspection
// (Figure 1 reads the k-means estimate of F3 this way).
func (a *Analysis) Graph(funcID string, crit CriterionKind) (*DecisionGraph, error) {
	for _, g := range a.Graphs {
		if g.FuncID == funcID && g.Criterion == crit {
			return g, nil
		}
	}
	return nil, fmt.Errorf("core: no graph for %s/%s", funcID, crit)
}

// GraphsFor returns the decision graphs restricted to the given function
// IDs and criteria — the mechanism behind the paper's I4/I7/I10 and
// C4/C7/C10 columns, which select the best graph from different candidate
// pools.
func (a *Analysis) GraphsFor(funcIDs []string, criteria ...CriterionKind) []*DecisionGraph {
	wantFunc := make(map[string]bool, len(funcIDs))
	for _, id := range funcIDs {
		wantFunc[id] = true
	}
	wantCrit := make(map[CriterionKind]bool, len(criteria))
	for _, c := range criteria {
		wantCrit[c] = true
	}
	var out []*DecisionGraph
	for _, g := range a.Graphs {
		if wantFunc[g.FuncID] && wantCrit[g.Criterion] {
			out = append(out, g)
		}
	}
	return out
}

// BestOver resolves with the best graph among the given functions and
// criteria, selected by training accuracy.
func (a *Analysis) BestOver(funcIDs []string, criteria ...CriterionKind) (*Resolution, error) {
	best, err := SelectBestGraph(a.GraphsFor(funcIDs, criteria...), criteria...)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.cluster(best.Graph), Source: best.Label()}, nil
}

// WeightedAverageOver resolves with the weighted-average combination
// restricted to the given functions.
func (a *Analysis) WeightedAverageOver(funcIDs []string) (*Resolution, error) {
	per := bestPerFunction(a.GraphsFor(funcIDs, AllCriteria...))
	combined, threshold, err := WeightedAverageGraph(per, a.Prepared.Matrices, a.Train)
	if err != nil {
		return nil, err
	}
	return &Resolution{
		Labels: a.cluster(combined),
		Source: fmt.Sprintf("weighted-average(th=%.3f)", threshold),
	}, nil
}

// ResolveCtx runs the full pipeline on a collection with the resolver's
// seed and the paper's best-performing combination (best graph over all
// criteria, then clustering). A canceled or timed-out context aborts the
// preparation stage (feature extraction and pairwise matrices) and returns
// ctx.Err().
func (r *Resolver) ResolveCtx(ctx context.Context, col *corpus.Collection) (*Resolution, error) {
	prep, err := r.PrepareCtx(ctx, col)
	if err != nil {
		return nil, err
	}
	a, err := prep.Run(r.opts.Seed)
	if err != nil {
		return nil, err
	}
	return a.BestAnyCriterion()
}
