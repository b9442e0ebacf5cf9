package repro_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ergraph"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/simfn"
	"repro/internal/stats"
	"repro/internal/swoosh"
)

// Integration tests exercise full cross-module paths: dataset generation →
// feature extraction → similarity → training → combination → clustering →
// evaluation, plus the serialization and baseline paths.

func TestEndToEndWWW05Collection(t *testing.T) {
	d, err := corpus.WWW05Profile().Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	col := d.Collections[1] // "cohen", 3 personas
	r, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ResolveCtx(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	score, err := eval.Evaluate(res.Labels, col.GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if score.Fp < 0.5 {
		t.Errorf("end-to-end Fp = %v on an easy collection", score.Fp)
	}
	if res.NumEntities() < 1 || res.NumEntities() > len(col.Docs) {
		t.Errorf("entities = %d", res.NumEntities())
	}
}

func TestFrameworkBeatsEveryFunctionOnAverage(t *testing.T) {
	// A compact version of Figure 2's headline on three collections.
	d, err := corpus.WWW05Profile().Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perFunc := make(map[string][]eval.Result)
	var combined []eval.Result
	for i, col := range d.Collections[:3] {
		prep, err := r.PrepareCtx(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		a, err := prep.Run(stats.SplitSeedN(5, i))
		if err != nil {
			t.Fatal(err)
		}
		truth := col.GroundTruth()
		for _, id := range simfn.SubsetI10 {
			res, err := a.BestOver([]string{id}, core.ThresholdCriterion)
			if err != nil {
				t.Fatal(err)
			}
			s, err := eval.Evaluate(res.Labels, truth)
			if err != nil {
				t.Fatal(err)
			}
			perFunc[id] = append(perFunc[id], s)
		}
		res, err := a.BestAnyCriterion()
		if err != nil {
			t.Fatal(err)
		}
		s, err := eval.Evaluate(res.Labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		combined = append(combined, s)
	}
	cAvg := eval.Aggregate(combined)
	beaten := 0
	for _, id := range simfn.SubsetI10 {
		if cAvg.Fp >= eval.Aggregate(perFunc[id]).Fp {
			beaten++
		}
	}
	if beaten < 9 {
		t.Errorf("combined beats only %d/10 functions on Fp", beaten)
	}
}

func TestDatasetJSONRoundTripThroughResolver(t *testing.T) {
	p := corpus.DatasetProfile{
		Label: "roundtrip", Names: []string{"lee"}, DocsPerName: 30,
		ClusterCounts: []int{3}, Noise: 0.5, MissingInfo: 0.2,
		Spurious: 0.2, Template: 0.2,
	}
	d, err := p.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := corpus.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := r.ResolveCtx(context.Background(), d.Collections[0])
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := r.ResolveCtx(context.Background(), back.Collections[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Labels {
		if orig.Labels[i] != loaded.Labels[i] {
			t.Fatal("resolution differs after JSON round trip")
		}
	}
}

func TestBlockingFeedsResolver(t *testing.T) {
	// Exact-key blocking over a multi-name record set must reproduce the
	// per-collection blocks the resolver assumes.
	d, err := corpus.WWW05Profile().Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	var records []blocking.Record
	id := 0
	blockOf := make(map[int]string)
	for _, col := range d.Collections[:3] {
		for range col.Docs {
			records = append(records, blocking.Record{ID: id, Keys: []string{col.Name}})
			blockOf[id] = col.Name
			id++
		}
	}
	pairs := blocking.ExactKey{}.Candidates(records)
	for _, p := range pairs {
		if blockOf[p.A] != blockOf[p.B] {
			t.Fatalf("cross-name candidate pair %v", p)
		}
	}
	// Each of the three 100-doc blocks contributes C(100,2) pairs.
	want := 3 * 100 * 99 / 2
	if len(pairs) != want {
		t.Errorf("pairs = %d, want %d", len(pairs), want)
	}
}

func TestSwooshBaselineAgainstFramework(t *testing.T) {
	res, err := experiments.BaselineComparison(t.Context(), experiments.Config{
		Seed: 2010, Runs: 1, TrainFraction: 0.10, RegionK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Name != "framework-C10" || res[1].Name != "rswoosh-baseline" {
		t.Errorf("labels = %v / %v", res[0].Name, res[1].Name)
	}
	// The paper's framework must beat the generic baseline.
	if res[0].Score.Fp <= res[1].Score.Fp {
		t.Errorf("framework Fp %v <= baseline Fp %v", res[0].Score.Fp, res[1].Score.Fp)
	}
	// Both rows as recorded for this config before R-Swoosh read its
	// vectors through Unpack. The baseline degrades quietly: fed empty
	// vectors it still clusters and still loses, so only the values tell.
	// The tolerance covers the order its map measures add floats in.
	for i, want := range []eval.Result{
		{Fp: 0.83299, F: 0.66624, Rand: 0.92256},
		{Fp: 0.58746, F: 0.32149, Rand: 0.42204},
	} {
		got := res[i].Score
		if math.Abs(got.Fp-want.Fp) > 5e-4 || math.Abs(got.F-want.F) > 5e-4 || math.Abs(got.Rand-want.Rand) > 5e-4 {
			t.Errorf("%s Fp / F / Rand = %.5f / %.5f / %.5f, want %.5f / %.5f / %.5f",
				res[i].Name, got.Fp, got.F, got.Rand, want.Fp, want.F, want.Rand)
		}
	}
}

func TestCorrelationClusteringAgreesOnCleanBlocks(t *testing.T) {
	// On a very clean block both clustering methods should land close.
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "nelson", NumDocs: 40, NumPersonas: 3,
		Noise: 0.2, MissingInfo: 0.1, Spurious: 0.1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := col.GroundTruth()

	run := func(m core.ClusteringMethod) eval.Result {
		opts := core.DefaultOptions()
		opts.Clustering = m
		r, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.ResolveCtx(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eval.Evaluate(res.Labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tc := run(core.TransitiveClosure)
	cc := run(core.CorrelationClustering)
	if tc.Fp < 0.6 || cc.Fp < 0.6 {
		t.Errorf("clean block scores too low: closure %v, correlation %v", tc.Fp, cc.Fp)
	}
	diff := tc.Fp - cc.Fp
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.3 {
		t.Errorf("methods diverge wildly on a clean block: %v vs %v", tc.Fp, cc.Fp)
	}
}

func TestSwooshMatchesClosureWithPairwiseOnlyMatch(t *testing.T) {
	// With a match function that only looks at immutable singleton features
	// of the ORIGINAL documents, R-Swoosh over singletons reaches at least
	// the transitive closure of the pairwise match graph.
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "baker", NumDocs: 25, NumPersonas: 3,
		Noise: 0.4, MissingInfo: 0.2, Spurious: 0.2, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	block, err := simfn.PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := swoosh.FromBlock(block)
	// The domination property requires a match function monotone under
	// union merges: entity overlap only (cosine thresholds above 1 disable
	// the vector paths — a merged record's summed vector can be LESS
	// similar to a third record than either constituent was).
	match := swoosh.ThresholdMatch(1.5, 1.5, 3)
	resolved, err := swoosh.RSwoosh(records, match)
	if err != nil {
		t.Fatal(err)
	}
	labels := swoosh.Labels(resolved, len(records))

	g := ergraph.NewGraph(len(records))
	for i := range records {
		for j := i + 1; j < len(records); j++ {
			if match(records[i], records[j]) {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	closure := g.ConnectedComponents()
	for i := range records {
		for j := i + 1; j < len(records); j++ {
			if closure[i] == closure[j] && labels[i] != labels[j] {
				t.Fatalf("swoosh split a closure-connected pair (%d,%d)", i, j)
			}
		}
	}
}
