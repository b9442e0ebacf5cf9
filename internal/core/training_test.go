package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/simfn"
	"repro/internal/stats"
)

func testBlock(t *testing.T, seed int64, docs, personas int) *simfn.Block {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: docs, NumPersonas: personas,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := simfn.PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func TestNewTraining(t *testing.T) {
	b := testBlock(t, 1, 50, 5)
	train, err := NewTraining(b, 0.10, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// ceil(sqrt(0.1)·50) = 16 docs → 120 pairs ≈ 10% of the 1225 pairs.
	if len(train.Docs) != 16 {
		t.Errorf("training docs = %d, want 16", len(train.Docs))
	}
	if len(train.Pairs) != 120 || len(train.Links) != 120 {
		t.Errorf("pairs = %d, links = %d, want 120 each", len(train.Pairs), len(train.Links))
	}
	if len(train.DocTruth) != 16 {
		t.Errorf("doc truth = %d, want 16", len(train.DocTruth))
	}
	// Labels must match ground truth.
	for i, p := range train.Pairs {
		want := b.Truth[p[0]] == b.Truth[p[1]]
		if train.Links[i] != want {
			t.Fatalf("pair %v labeled %v, truth %v", p, train.Links[i], want)
		}
	}
}

func TestNewTrainingMinimumDocs(t *testing.T) {
	b := testBlock(t, 2, 20, 3)
	// 1% of 20 would be 1 doc; the floor of 4 applies.
	train, err := NewTraining(b, 0.01, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Docs) != 4 {
		t.Errorf("training docs = %d, want 4 (floor)", len(train.Docs))
	}
}

func TestNewTrainingErrors(t *testing.T) {
	b := &simfn.Block{Name: "tiny", Docs: make([]simfn.Doc, 1), Truth: []int{0}}
	if _, err := NewTraining(b, 0.5, stats.NewRNG(1)); err == nil {
		t.Error("single-doc block accepted")
	}
}

func TestTrainingValuesAndPositives(t *testing.T) {
	b := testBlock(t, 3, 30, 3)
	train, err := NewTraining(b, 0.2, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := simfn.ByID("F8")
	m := simfn.ComputeMatrix(b, f)
	values := train.Values(m)
	if len(values) != len(train.Pairs) {
		t.Fatal("values not parallel to pairs")
	}
	for i, p := range train.Pairs {
		if values[i] != m.At(p[0], p[1]) {
			t.Fatal("value mismatch")
		}
	}
}

func TestLearnThresholdSeparable(t *testing.T) {
	// Perfectly separable: negatives below 0.4, positives above 0.6.
	values := []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9}
	links := []bool{false, false, false, false, true, true, true, true}
	th := LearnThreshold(values, links)
	if th <= 0.4 || th > 0.6 {
		t.Errorf("threshold = %v, want in (0.4, 0.6]", th)
	}
	// All decisions correct at the learned threshold.
	for i, v := range values {
		if (v >= th) != links[i] {
			t.Errorf("value %v misclassified at threshold %v", v, th)
		}
	}
}

func TestLearnThresholdAllPositive(t *testing.T) {
	values := []float64{0.2, 0.5, 0.8}
	links := []bool{true, true, true}
	th := LearnThreshold(values, links)
	// Everything should be classified as link.
	for _, v := range values {
		if v < th {
			t.Errorf("threshold %v excludes positive value %v", th, v)
		}
	}
}

func TestLearnThresholdAllNegative(t *testing.T) {
	values := []float64{0.2, 0.5, 0.8}
	links := []bool{false, false, false}
	th := LearnThreshold(values, links)
	for _, v := range values {
		if v >= th {
			t.Errorf("threshold %v includes negative value %v", th, v)
		}
	}
}

func TestLearnThresholdDegenerate(t *testing.T) {
	if th := LearnThreshold(nil, nil); th != 0.5 {
		t.Errorf("empty input threshold = %v, want 0.5", th)
	}
	if th := LearnThreshold([]float64{0.5}, []bool{true, false}); th != 0.5 {
		t.Errorf("mismatched input threshold = %v, want 0.5", th)
	}
}

func TestLearnThresholdOptimalProperty(t *testing.T) {
	// The learned threshold must achieve at least as many correct
	// decisions as any value-midpoint candidate.
	f := func(raw []byte) bool {
		if len(raw) < 2 {
			return true
		}
		values := make([]float64, len(raw))
		links := make([]bool, len(raw))
		for i, b := range raw {
			values[i] = float64(b%100) / 100
			links[i] = b%3 == 0
		}
		th := LearnThreshold(values, links)
		correct := func(t float64) int {
			c := 0
			for i, v := range values {
				if (v >= t) == links[i] {
					c++
				}
			}
			return c
		}
		best := correct(th)
		for _, cand := range values {
			if correct(cand) > best || correct(cand+0.005) > best {
				return false
			}
		}
		return correct(0) <= best && correct(1.01) <= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLearnThresholdInUnitInterval(t *testing.T) {
	f := func(raw []byte) bool {
		values := make([]float64, len(raw))
		links := make([]bool, len(raw))
		for i, b := range raw {
			values[i] = float64(b) / 255
			links[i] = b%2 == 0
		}
		th := LearnThreshold(values, links)
		return th >= 0 && th <= 1 && !math.IsNaN(th)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
