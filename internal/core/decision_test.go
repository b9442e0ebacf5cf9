package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/simfn"
)

// TestDecisionStageMatchesReference pins the row-scan decision stage to the
// per-pair loop it replaced (referenceRunWith): on random matrices whose
// cells outside the training sample sit on the region edges — every fitted
// k-means bound, every equal-width edge r/k, 0 and 1, each also one ulp to
// either side — every graph of Prepared.RunWith has the reference's edges
// and the bits of its Threshold, TrainAccuracy, Calibration and estimated
// Accuracy, for all three criteria. NaN and ±Inf cells then go through all
// three criteria too; both region schemes put NaN in their last region.
func TestDecisionStageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(70)
		opts := DefaultOptions()
		opts.RegionK = 2 + rng.Intn(11)
		opts.TrainFraction = 0.05 + 0.6*rng.Float64()
		p := randomPrepared(rng, n, "FA", "FB", "FC")
		seed := rng.Int63()
		label := fmt.Sprintf("trial %d (n=%d, k=%d)", trial, n, opts.RegionK)

		// The first run fits the bounds; planting values on them outside
		// the training sample leaves every fit as it is.
		first, err := p.RunWith(context.Background(), seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		edges := []float64{0, 1}
		for r := 0; r <= opts.RegionK; r++ {
			edges = append(edges, float64(r)/float64(opts.RegionK))
		}
		for _, g := range first.Graphs {
			if g.Criterion == KMeansCriterion {
				edges = append(edges, g.Estimate.Part.Boundaries()...)
			}
		}
		for _, m := range p.Matrices {
			plantOutsideTraining(rng, m, first.Train, edges)
		}

		got, err := p.RunWith(context.Background(), seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRunWith(p, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Graphs) != len(want) {
			t.Fatalf("%s: %d graphs, reference %d", label, len(got.Graphs), len(want))
		}
		for i := range want {
			requireSameDecisionGraph(t, label, got.Graphs[i], want[i])
		}

		m := p.Matrices["FA"]
		plantOutsideTraining(rng, m, got.Train, []float64{math.NaN(), math.Inf(1), math.Inf(-1)})
		for _, crit := range AllCriteria {
			dg, err := buildDecisionGraph("FA", crit, m, got.Train, newSample(new(Workspace), got.Train, m), opts.RegionK)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceDecisionGraph("FA", crit, m, got.Train, opts.RegionK)
			if err != nil {
				t.Fatal(err)
			}
			requireSameDecisionGraph(t, label+" NaN/Inf", dg, ref)
		}
	}
}

// TestCountedFpMatchesFpMeasure pins the training Fp the decision stage
// counts to its definition: on random label slices — arbitrary and negative
// labels, one cluster, all singletons, mismatched and empty slices —
// countedFp has the bits of eval.FpMeasure, and is 0 where that errs.
func TestCountedFpMatchesFpMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var ws Workspace // one for every trial: its tables must not carry counts over
	labels := func(n, distinct int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(distinct)*7 - 20
		}
		return out
	}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(50)
		pred, truth := labels(n, 1+rng.Intn(n+1)), labels(n, 1+rng.Intn(1+n/3))
		switch trial % 10 {
		case 0:
			truth = truth[:rng.Intn(n+1)]
		case 1:
			for i := range pred {
				pred[i] = i
			}
		}
		want, err := eval.FpMeasure(pred, truth)
		if err != nil {
			want = 0
		}
		if got := ws.countedFp(pred, truth); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("countedFp(%v, %v) = %v, FpMeasure %v (err %v)", pred, truth, got, want, err)
		}
	}
}

// randomPrepared is a Prepared of n documents with random ground truth and
// one random matrix per function ID; half the cells sit on a grid, so
// training values tie.
func randomPrepared(rng *rand.Rand, n int, ids ...string) *Prepared {
	b := &simfn.Block{Name: "random", Docs: make([]simfn.Doc, n), Truth: make([]int, n)}
	personas := 1 + rng.Intn(1+n/4)
	for d := range b.Truth {
		b.Truth[d] = rng.Intn(personas)
	}
	r := &Resolver{opts: DefaultOptions()}
	ms := make(map[string]*simfn.Matrix, len(ids))
	grid := float64(1 + rng.Intn(20))
	for _, id := range ids {
		r.funcs = append(r.funcs, simfn.Func{ID: id})
		m := simfn.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				if rng.Intn(2) == 0 {
					v = math.Round(v*grid) / grid
				}
				m.Set(i, j, v)
			}
		}
		ms[id] = m
	}
	return &Prepared{Block: b, Matrices: ms, resolver: r}
}

// plantOutsideTraining sets about half of the cells no training pair reads
// to one of values, or, for a finite value, to the next float on either
// side of it.
func plantOutsideTraining(rng *rand.Rand, m *simfn.Matrix, train *Training, values []float64) {
	inTrain := make([]bool, m.Len())
	for _, d := range train.Docs {
		inTrain[d] = true
	}
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			if (inTrain[i] && inTrain[j]) || rng.Intn(2) == 0 {
				continue
			}
			v := values[rng.Intn(len(values))]
			switch rng.Intn(4) {
			case 0:
				v = math.Nextafter(v, math.Inf(-1))
			case 1:
				v = math.Nextafter(v, math.Inf(1))
			}
			m.Set(i, j, v)
		}
	}
}

func requireSameDecisionGraph(t *testing.T, label string, got, want *DecisionGraph) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	label += " " + want.Label()
	if got.Label() != want.Label() {
		t.Fatalf("%s: graph %s", label, got.Label())
	}
	if !same(got.Threshold, want.Threshold) || !same(got.TrainAccuracy, want.TrainAccuracy) || !same(got.Calibration, want.Calibration) {
		t.Fatalf("%s: threshold / accuracy / calibration %v / %v / %v, reference %v / %v / %v", label,
			got.Threshold, got.TrainAccuracy, got.Calibration, want.Threshold, want.TrainAccuracy, want.Calibration)
	}
	if (got.Estimate == nil) != (want.Estimate == nil) {
		t.Fatalf("%s: estimate %v, reference %v", label, got.Estimate != nil, want.Estimate != nil)
	}
	if want.Estimate != nil &&
		(!slices.EqualFunc(got.Estimate.Accuracy, want.Estimate.Accuracy, same) ||
			!slices.EqualFunc(got.Estimate.Part.Boundaries(), want.Estimate.Part.Boundaries(), same)) {
		t.Fatalf("%s: region accuracy %v over %v, reference %v over %v", label, got.Estimate.Accuracy,
			got.Estimate.Part.Boundaries(), want.Estimate.Accuracy, want.Estimate.Part.Boundaries())
	}
	for i := 0; i < want.Graph.Len(); i++ {
		for j := i + 1; j < want.Graph.Len(); j++ {
			if got.Graph.HasEdge(i, j) != want.Graph.HasEdge(i, j) {
				t.Fatalf("%s: edge (%d, %d) = %v, reference %v", label, i, j, got.Graph.HasEdge(i, j), want.Graph.HasEdge(i, j))
			}
		}
	}
}
