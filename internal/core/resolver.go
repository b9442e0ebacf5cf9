package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/fanout"
	"repro/internal/regions"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// Resolver runs Algorithm 1 over collections. It is safe to reuse across
// collections; each ResolveCtx/PrepareCtx call is independent.
//
// A Workspace carries one block worker's memory from block to block:
// PrepareIn and RunIn are PrepareCtx and Run on it, except that RunIn,
// not PrepareIn, computes the matrices, one function group at a time.
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
// and, when built by PrepareCtx, the pairwise similarity matrices of every
// selected function. Multiple experiment runs with different training
// samples share one Prepared. One built by PrepareIn has no matrices: each
// analysis computes them in its workspace one simfn.Groups group at a
// time, just before that group's decision graphs. It lives in its
// workspace's memory and is valid until that workspace's next PrepareIn.
type Prepared struct {
	// Block is the prepared blocking unit.
	Block *simfn.Block
	// Matrices are the per-function similarity matrices, keyed by ID; nil
	// for a Prepared built by PrepareIn.
	Matrices map[string]*simfn.Matrix

	resolver *Resolver
}

// PrepareCtx extracts features and computes all similarity matrices for one
// collection (the per-block G_w^fi computation of Algorithm 1), so that
// every analysis of the Prepared reads them instead of computing them. The
// context is threaded into feature extraction and the pairwise matrix
// computation, so a canceled or timed-out context aborts mid-extraction or
// mid-matrix and returns ctx.Err(). It is PrepareIn on a fresh workspace,
// followed by the matrices, so the Prepared owns all of its memory.
func (r *Resolver) PrepareCtx(ctx context.Context, col *corpus.Collection) (*Prepared, error) {
	ws := new(Workspace)
	p, err := r.PrepareIn(ctx, ws, col)
	if err != nil {
		return nil, err
	}
	if p.Matrices, err = ws.sim.ComputeAll(ctx, p.Block, r.funcs); err != nil {
		return nil, err
	}
	return p, nil
}

// Workspace is the memory one block worker reuses across the blocks it
// resolves one after another: simfn's extraction tables, documents and
// the matrices of one function group, and the decision stage's RNG,
// training values, argsort, k-means tables, graph bitsets, closure labels
// and Fp tables. Each block reuses what an earlier one grew, so a worker
// allocates for its largest block rather than once per block. Apart from
// simfn's lexicon, whose entries do not depend on the block, and the RNG,
// which every analysis seeds afresh, only memory carries over, never a
// value: everything a stage reads it has written or cleared for this
// block, so results are bit-identical to fresh memory.
//
// A workspace lives as long as its owner keeps it — the pipeline keeps one
// per worker for one run and drops it with the run; it is never pooled, so
// nothing it holds stays reachable between runs. What is built in it is
// valid until it builds the same thing again (see PrepareIn and RunIn);
// what outlives a block — a Resolution's labels, a score — is always
// freshly allocated. The zero value is ready to use; a Workspace belongs
// to one goroutine at a time.
type Workspace struct {
	sim simfn.Workspace
	// group holds the functions of the group whose matrices are computed.
	group []simfn.Func
	// rng is the analysis's RNG, re-seeded by every RunIn.
	rng *rand.Rand
	// values are one function's training values, the sample its three
	// criteria are fitted on.
	values  []float64
	regions regions.Scratch
	graphs  ergraph.Arena
	closure ergraph.Closure
	// labels backs the closures of the block's decision graphs, carved one
	// graph's after another; carved counts the entries taken.
	labels []int
	carved int
	// pred, ids and overlap are trainingFp's tables, sizes
	// closureLinkRate's.
	pred, ids, overlap, sizes []int
}

// PrepareIn extracts features and packs the vectors of one collection in
// the workspace's memory, and computes no matrix: RunIn computes them one
// function group at a time, so a worker holds the cells of one group (at
// most three functions) instead of every function's. The Prepared it
// returns — block and documents — is valid until the workspace's next
// PrepareIn.
func (r *Resolver) PrepareIn(ctx context.Context, ws *Workspace, col *corpus.Collection) (*Prepared, error) {
	if len(col.Docs) < 2 {
		return nil, fmt.Errorf("core: collection %q has %d documents", col.Name, len(col.Docs))
	}
	block, err := ws.sim.PrepareBlock(ctx, col, nil)
	if err != nil {
		return nil, err
	}
	return &Prepared{Block: block, resolver: r}, nil
}

// PrepareAllCtx prepares independent collections concurrently on one
// fan-out (internal/fanout) and returns the results in input order. Blocks
// are independent by construction — the paper's blocking scheme computes
// similarities only within a block — so per-name preparation (feature
// extraction, TF-IDF, all similarity matrices) parallelizes without
// coordination. The result slice is deterministic: out[i] always
// corresponds to cols[i], and each Prepared is identical to what a serial
// r.PrepareCtx(ctx, cols[i]) would build. A canceled or timed-out context
// stops workers from claiming further collections, aborts the in-flight
// per-collection preparations, and returns ctx.Err(); otherwise the first
// failure stops the claiming and the lowest-index error is returned.
func (r *Resolver) PrepareAllCtx(ctx context.Context, cols []*corpus.Collection) ([]*Prepared, error) {
	out := make([]*Prepared, len(cols))
	errs := make([]error, len(cols))
	fanout.Each(len(cols), func(i int) bool {
		out[i], errs[i] = r.PrepareCtx(ctx, cols[i])
		return errs[i] == nil
	})
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
	// recompute computes the given functions' matrices in fresh memory,
	// under the context the analysis ran with, for a combination that
	// reads values the Prepared does not hold.
	recompute func(funcs []simfn.Func) (map[string]*simfn.Matrix, error)
}

// Run draws a training sample with the given seed and builds every
// decision graph. Distinct seeds give the independent runs the paper
// averages over.
func (p *Prepared) Run(runSeed int64) (*Analysis, error) {
	return p.runIn(context.Background(), new(Workspace), runSeed, p.resolver.opts)
}

// RunWith is Run with per-run option overrides (training fraction, region
// count, clustering method), letting ablation experiments share one
// expensive PrepareCtx across many configurations. The function set is fixed
// by the PrepareCtx call; opts.FunctionIDs is ignored here.
//
// runSeed seeds the run's one RNG. It draws the training sample
// (NewTraining) and, under CorrelationClustering, the pivot order of the
// final ergraph.CorrelationCluster; fitting the decision graphs draws
// nothing from it.
//
// It is the decision stage on a fresh workspace, so the Analysis owns all
// of its memory. A canceled or timed-out context stops the analysis before
// the next function's decision graphs, and RunWith returns ctx.Err().
func (p *Prepared) RunWith(ctx context.Context, runSeed int64, opts Options) (*Analysis, error) {
	return p.runIn(ctx, new(Workspace), runSeed, opts)
}

// RunIn is Run on the workspace's memory: the Analysis it returns — its
// decision graphs, their adjacency rows, its RNG — is valid until the
// workspace's next RunIn. The Resolutions its combinations return own
// their labels. On a Prepared without matrices (PrepareIn's), each
// function group's matrices are computed in the workspace just before the
// group's decision graphs, and overwrite the previous group's. A canceled
// or timed-out context stops the analysis mid-matrix or before the next
// function's decision graphs, and RunIn returns ctx.Err().
func (p *Prepared) RunIn(ctx context.Context, ws *Workspace, runSeed int64) (*Analysis, error) {
	return p.runIn(ctx, ws, runSeed, p.resolver.opts)
}

func (p *Prepared) runIn(ctx context.Context, ws *Workspace, runSeed int64, opts Options) (*Analysis, error) {
	if opts.TrainFraction <= 0 || opts.TrainFraction >= 1 {
		return nil, fmt.Errorf("core: train fraction %v out of (0,1)", opts.TrainFraction)
	}
	if opts.RegionK < 2 {
		return nil, fmt.Errorf("core: region count %d < 2", opts.RegionK)
	}
	rng := ws.seeded(runSeed)
	train, err := NewTraining(p.Block, opts.TrainFraction, rng)
	if err != nil {
		return nil, err
	}
	crits := len(AllCriteria)
	n, graphs := len(p.Block.Docs), len(p.resolver.funcs)*crits
	ws.graphs.Reset(graphs, n)
	ws.labels, ws.carved = slices.Grow(ws.labels[:0], graphs*n)[:graphs*n], 0
	a := &Analysis{Prepared: p, Train: train, Graphs: make([]*DecisionGraph, graphs), opts: opts, rng: rng,
		recompute: func(funcs []simfn.Func) (map[string]*simfn.Matrix, error) {
			return simfn.ComputeAllCtx(ctx, p.Block, funcs)
		},
	}
	for _, group := range simfn.Groups(p.resolver.funcs) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ms := p.Matrices
		if ms == nil {
			ws.group = ws.group[:0]
			for _, fi := range group {
				ws.group = append(ws.group, p.resolver.funcs[fi])
			}
			if ms, err = ws.sim.ComputeAll(ctx, p.Block, ws.group); err != nil {
				return nil, err
			}
		}
		for _, fi := range group {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// decisionGraphs appends in place to the function's own slots,
			// so the graphs stay in function order — which SelectBestGraph's
			// ties depend on — whatever order the groups take.
			id := p.resolver.funcs[fi].ID
			m := ms[id]
			slots := a.Graphs[fi*crits : fi*crits : (fi+1)*crits]
			if _, err = decisionGraphs(slots, id, AllCriteria, m, train, newSample(ws, train, m), opts.RegionK); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// seeded returns the workspace's RNG seeded with seed: its draws are those
// of a fresh stats.NewRNG(seed), whatever it drew before.
func (ws *Workspace) seeded(seed int64) *rand.Rand {
	if ws.rng == nil {
		ws.rng = stats.NewRNG(seed)
	} else {
		ws.rng.Seed(seed)
	}
	return ws.rng
}

// Resolution is one final entity resolution of a block.
type Resolution struct {
	// Labels assigns each document a cluster index.
	Labels []int
	// Source describes which combination produced the clustering.
	Source string
}

// NumEntities returns the number of predicted entities, 1 + max(Labels):
// every clustering labels entities densely in order of first appearance.
func (r *Resolution) NumEntities() int {
	n := 0
	for _, l := range r.Labels {
		n = max(n, l+1)
	}
	return n
}

// cluster applies the configured final clustering step to a combined graph.
func (a *Analysis) cluster(g *ergraph.Graph) []int {
	switch a.opts.Clustering {
	case CorrelationClustering:
		return ergraph.CorrelationCluster(g, a.rng)
	default:
		return g.ConnectedComponents()
	}
}

// clusterGraph is cluster of one decision graph: its transitive closure is
// the one it was scored by.
func (a *Analysis) clusterGraph(dg *DecisionGraph) []int {
	if a.opts.Clustering == TransitiveClosure {
		return slices.Clone(dg.closure)
	}
	return a.cluster(dg.Graph)
}

// BestAnyCriterion resolves with the best graph over all decision criteria
// (the paper's C columns: "chose the best decision criteria, based on
// accuracy estimation of the regions" — the combination that performed
// best in the paper). It is BestOver(nil, AllCriteria...) without building
// the pool, the pipeline's default strategy.
func (a *Analysis) BestAnyCriterion() (*Resolution, error) {
	best, err := SelectBestGraph(a.Graphs, AllCriteria...)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.clusterGraph(best), Source: best.Label()}, nil
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

// GraphsFor returns the pool of decision graphs of the given functions
// under the given criteria, in a.Graphs order; nil funcIDs stands for every
// function the analysis built. The paper's I4/I7/I10 and C4/C7/C10 columns
// select from such pools, and one function under one criterion is a pool
// of one graph (the per-function bars of Figures 2 and 3 and the F1..F10
// columns of Table III).
func (a *Analysis) GraphsFor(funcIDs []string, criteria ...CriterionKind) []*DecisionGraph {
	var out []*DecisionGraph
	for _, g := range a.Graphs {
		if (funcIDs == nil || slices.Contains(funcIDs, g.FuncID)) && slices.Contains(criteria, g.Criterion) {
			out = append(out, g)
		}
	}
	return out
}

// BestOver resolves with the best graph of the pool GraphsFor(funcIDs,
// criteria...), selected by SelectBestGraph; ties break towards the earlier
// graph. BestOver(nil, ThresholdCriterion) is the paper's I column over all
// functions.
func (a *Analysis) BestOver(funcIDs []string, criteria ...CriterionKind) (*Resolution, error) {
	best, err := SelectBestGraph(a.GraphsFor(funcIDs, criteria...), criteria...)
	if err != nil {
		return nil, err
	}
	return &Resolution{Labels: a.clusterGraph(best), Source: best.Label()}, nil
}

// WeightedAverageOver resolves with the accuracy-weighted average
// combination (the paper's W column) of the given functions, nil for every
// function; each function is represented by its best criterion's graph.
// It is the one combination that reads similarity values, so on a
// Prepared without matrices (PrepareIn's) it computes those functions'
// matrices again, in fresh memory and under the analysis's context.
func (a *Analysis) WeightedAverageOver(funcIDs []string) (*Resolution, error) {
	per := bestPerFunction(a.GraphsFor(funcIDs, AllCriteria...))
	matrices := a.Prepared.Matrices
	if matrices == nil {
		funcs := slices.DeleteFunc(slices.Clone(a.Prepared.resolver.funcs), func(f simfn.Func) bool {
			return !slices.ContainsFunc(per, func(g *DecisionGraph) bool { return g.FuncID == f.ID })
		})
		var err error
		if matrices, err = a.recompute(funcs); err != nil {
			return nil, err
		}
	}
	combined, threshold, err := WeightedAverageGraph(per, matrices, a.Train)
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
// ctx.Err(). No entry point calls it — they resolve through the pipeline
// — it is the one-collection reference the pipeline is tested against.
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
