package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/regions"
	"repro/internal/simfn"
	"repro/internal/stats"
)

// Training is the labeled sample the framework learns from: a fraction of
// the block's documents is revealed, and every pair among them becomes a
// labeled training pair ("a small training sample, where we know the
// equivalence relations").
type Training struct {
	// Docs are the revealed document indices.
	Docs []int
	// Pairs are the training pairs (indices into the block).
	Pairs [][2]int
	// Links are the ground-truth labels, parallel to Pairs.
	Links []bool
	// DocTruth is the ground-truth persona label per revealed document,
	// parallel to Docs.
	DocTruth []int

	// ws is the memory the run that drew the sample fits its criteria and
	// builds its graphs in; nil for a Training from NewTraining alone,
	// whose fits take fresh memory.
	ws *Workspace
}

// NewTraining samples a training set from the block. The paper trains on
// "10% of the complete dataset"; we read the dataset as the pair space the
// similarity functions operate on, so a fraction f reveals ceil(sqrt(f)·n)
// documents — all pairs among them (≈ f of all pairs) become labeled
// training pairs. At least 4 documents are always revealed so some pairs
// exist.
func NewTraining(b *simfn.Block, fraction float64, rng *rand.Rand) (*Training, error) {
	n := len(b.Docs)
	if n < 2 {
		return nil, fmt.Errorf("core: block %q has %d documents", b.Name, n)
	}
	k := int(math.Ceil(math.Sqrt(fraction) * float64(n)))
	if k < 4 {
		k = 4
	}
	if k > n {
		k = n
	}
	docs := stats.SampleWithoutReplacement(rng, n, k)
	sort.Ints(docs)
	t := &Training{Docs: docs}
	for _, d := range docs {
		t.DocTruth = append(t.DocTruth, b.Truth[d])
	}
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			a, b2 := docs[i], docs[j]
			t.Pairs = append(t.Pairs, [2]int{a, b2})
			t.Links = append(t.Links, b.Truth[a] == b.Truth[b2])
		}
	}
	return t, nil
}

// Values extracts the similarity values of the training pairs from a
// similarity matrix, parallel to Pairs.
func (t *Training) Values(m *simfn.Matrix) []float64 {
	return t.appendValues(make([]float64, 0, len(t.Pairs)), m)
}

// appendValues appends the training pairs' values to dst.
func (t *Training) appendValues(dst []float64, m *simfn.Matrix) []float64 {
	for _, p := range t.Pairs {
		dst = append(dst, m.At(p[0], p[1]))
	}
	return dst
}

// LearnThreshold picks the threshold maximizing the number of correct
// decisions on the training sample ("we have chosen a threshold, which –
// based on the training set – maximizes the number of correct decisions").
// Candidates are midpoints between adjacent distinct values plus the
// extremes 0 and 1+ε; ties prefer the higher threshold (fewer links, safer
// precision). With no data it returns 0.5.
func LearnThreshold(values []float64, links []bool) float64 {
	return learnThreshold(values, links, regions.Ascending(values))
}

// learnThreshold is LearnThreshold given order = regions.Ascending(values).
// The sweep takes equal values as one group, so how a sort orders them
// among themselves cannot matter.
func learnThreshold(values []float64, links []bool, order []int32) float64 {
	if len(values) == 0 || len(values) != len(links) {
		return 0.5
	}
	v := func(p int) float64 { return values[order[p]] }

	totalPos := 0
	for _, link := range links {
		if link {
			totalPos++
		}
	}
	// Threshold t classifies v >= t as link. Sweep thresholds from above
	// the max (everything non-link) down; correct(t) = negBelow + posAtOrAbove.
	// Start: t = max+ε → correct = totalNeg.
	bestCorrect := len(values) - totalPos
	bestThreshold := v(len(order)-1) + 1e-9
	if bestThreshold > 1 {
		bestThreshold = 1
	}

	// Walk cut positions: threshold just below v(i) for descending i
	// groups of equal value.
	posAbove, negAbove := 0, 0
	i := len(order) - 1
	for i >= 0 {
		j := i
		for j >= 0 && v(j) == v(i) {
			if links[order[j]] {
				posAbove++
			} else {
				negAbove++
			}
			j--
		}
		// Threshold between v(j) and v(i) (or at 0).
		var t float64
		if j >= 0 {
			t = (v(j) + v(i)) / 2
		} else {
			t = v(i) - 1e-9
			if t < 0 {
				t = 0
			}
		}
		correct := (len(values) - totalPos - negAbove) + posAbove
		if correct > bestCorrect {
			bestCorrect = correct
			bestThreshold = t
		}
		i = j
	}
	return stats.Clamp(bestThreshold, 0, 1)
}
