package stats

import "math/rand"

// NewRNG returns a deterministic pseudo-random generator for the given seed.
// Every stochastic component of the reproduction (corpus generation,
// training-sample selection, the correlation-clustering pivot order) draws
// from an RNG created here so experiments are exactly repeatable.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitSeed derives a child seed from a parent seed and a stream label.
// Distinct labels yield decorrelated streams, letting independent components
// (one per person name, one per experiment run, ...) use independent RNGs
// that are still fully determined by the root seed.
func SplitSeed(seed int64, label string) int64 {
	// FNV-1a over the label, folded into the seed with an odd multiplier.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	mixed := uint64(seed)*0x9E3779B97F4A7C15 ^ h
	// Avoid the all-zero seed which some generators treat specially.
	if mixed == 0 {
		mixed = prime64
	}
	return int64(mixed)
}

// SplitSeedN derives a child seed from a parent seed and an integer stream
// index, for loops over runs or blocks.
func SplitSeedN(seed int64, n int) int64 {
	mixed := uint64(seed) ^ (uint64(n)+1)*0xBF58476D1CE4E5B9
	mixed ^= mixed >> 31
	mixed *= 0x94D049BB133111EB
	mixed ^= mixed >> 29
	if mixed == 0 {
		mixed = 1
	}
	return int64(mixed)
}

// Shuffle permutes idx in place using rng.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). If k >= n it returns the full range in random order.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	Shuffle(rng, idx)
	if k > n {
		k = n
	}
	return idx[:k]
}

// WeightedChoice returns an index into weights drawn proportionally to the
// weights, which must be non-negative. It returns -1 when all weights are
// zero or the slice is empty.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return -1
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
