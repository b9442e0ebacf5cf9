package stats

import (
	"math"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestSplitSeedDistinctLabels(t *testing.T) {
	s1 := SplitSeed(7, "alpha")
	s2 := SplitSeed(7, "beta")
	if s1 == s2 {
		t.Error("distinct labels should give distinct seeds")
	}
	if SplitSeed(7, "alpha") != s1 {
		t.Error("SplitSeed must be deterministic")
	}
	if SplitSeed(8, "alpha") == s1 {
		t.Error("distinct parents should give distinct seeds")
	}
}

func TestSplitSeedNDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := SplitSeedN(99, i)
		if seen[s] {
			t.Fatalf("collision at index %d", i)
		}
		seen[s] = true
	}
	if SplitSeedN(99, 5) != SplitSeedN(99, 5) {
		t.Error("SplitSeedN must be deterministic")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := NewRNG(1)
	got := SampleWithoutReplacement(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Errorf("value %d out of range", v)
		}
		if seen[v] {
			t.Errorf("duplicate value %d", v)
		}
		seen[v] = true
	}
	// k > n returns the whole range.
	all := SampleWithoutReplacement(rng, 3, 10)
	if len(all) != 3 {
		t.Errorf("k>n: len = %d, want 3", len(all))
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := NewRNG(2)
	if got := WeightedChoice(rng, nil); got != -1 {
		t.Errorf("empty weights = %d, want -1", got)
	}
	if got := WeightedChoice(rng, []float64{0, 0}); got != -1 {
		t.Errorf("zero weights = %d, want -1", got)
	}
	// A dominant weight must be chosen overwhelmingly often.
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		idx := WeightedChoice(rng, []float64{0.01, 10, 0.01})
		counts[idx]++
	}
	if counts[1] < 9900 {
		t.Errorf("dominant weight chosen only %d/10000 times", counts[1])
	}
	// Zero-weight entries must never be selected.
	for i := 0; i < 1000; i++ {
		if idx := WeightedChoice(rng, []float64{0, 1, 0}); idx != 1 {
			t.Fatalf("selected zero-weight index %d", idx)
		}
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	rng := NewRNG(3)
	weights := []float64{1, 2, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(rng, weights)]++
	}
	for i, w := range weights {
		expected := w / 6 * n
		if math.Abs(float64(counts[i])-expected) > 0.05*n {
			t.Errorf("weight %d: count %d, expected ~%.0f", i, counts[i], expected)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewRNG(5)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(rng, idx)
	seen := make(map[int]bool)
	for _, v := range idx {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", idx)
	}
}
