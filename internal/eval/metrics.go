// Package eval implements the clustering-quality measures of the paper's
// evaluation (Section V-A.3) — the Fp-measure (harmonic mean of purity and
// inverse purity), the pairwise F-measure and the Rand index, each
// comparing a predicted clustering against a reference clustering given as
// parallel label slices — plus candidate recall, the pair-level recall of
// a blocking.
package eval

import (
	"fmt"

	"repro/internal/stats"
)

// Result bundles the three headline metrics the paper reports.
type Result struct {
	// Fp is the harmonic mean of purity and inverse purity.
	Fp float64 `json:"fp"`
	// F is the pairwise F-measure.
	F float64 `json:"f"`
	// Rand is the Rand index.
	Rand float64 `json:"rand"`
}

// Evaluate computes the paper's three metrics at once.
func Evaluate(pred, truth []int) (Result, error) {
	if len(pred) != len(truth) {
		return Result{}, fmt.Errorf("eval: %d predictions but %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return Result{}, fmt.Errorf("eval: empty clustering")
	}
	fp, err := FpMeasure(pred, truth)
	if err != nil {
		return Result{}, err
	}
	pr, err := PairwiseScores(pred, truth)
	if err != nil {
		return Result{}, err
	}
	rand, err := RandIndex(pred, truth)
	if err != nil {
		return Result{}, err
	}
	return Result{Fp: fp, F: pr.F, Rand: rand}, nil
}

// PairScores are pairwise precision, recall and F-measure: over all
// document pairs, a true positive is a pair clustered together that is
// together in the truth.
type PairScores struct {
	Precision, Recall, F float64
}

// PairwiseScores computes pairwise precision/recall/F.
func PairwiseScores(pred, truth []int) (PairScores, error) {
	if err := checkLabels(pred, truth); err != nil {
		return PairScores{}, err
	}
	var tp, fp, fn float64
	n := len(pred)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			samePred := pred[i] == pred[j]
			sameTruth := truth[i] == truth[j]
			switch {
			case samePred && sameTruth:
				tp++
			case samePred && !sameTruth:
				fp++
			case !samePred && sameTruth:
				fn++
			}
		}
	}
	p := 1.0 // no predicted pairs: vacuous precision
	if tp+fp > 0 {
		p = tp / (tp + fp)
	}
	r := 1.0 // no true pairs: vacuous recall
	if tp+fn > 0 {
		r = tp / (tp + fn)
	}
	return PairScores{Precision: p, Recall: r, F: stats.Harmonic(p, r)}, nil
}

// FpMeasure is the harmonic mean of purity and inverse purity, the
// "Fp-measure" of the paper (after Hu et al.). Purity is the weighted
// fraction of each predicted cluster belonging to its majority truth class
// (over-splitting is not punished); inverse purity swaps the roles
// (over-merging is not punished).
func FpMeasure(pred, truth []int) (float64, error) {
	if err := checkLabels(pred, truth); err != nil {
		return 0, err
	}
	return stats.Harmonic(directedPurity(pred, truth), directedPurity(truth, pred)), nil
}

// directedPurity computes sum over clusters of from of max overlap with a
// cluster of to, divided by n.
func directedPurity(from, to []int) float64 {
	n := len(from)
	overlap := make(map[[2]int]int)
	sizes := make(map[int]int)
	for i := 0; i < n; i++ {
		overlap[[2]int{from[i], to[i]}]++
		sizes[from[i]]++
	}
	best := make(map[int]int)
	for key, c := range overlap {
		if c > best[key[0]] {
			best[key[0]] = c
		}
	}
	total := 0
	for _, b := range best {
		total += b
	}
	return float64(total) / float64(n)
}

// RandIndex is the fraction of document pairs on which the two clusterings
// agree (both together or both apart).
func RandIndex(pred, truth []int) (float64, error) {
	if err := checkLabels(pred, truth); err != nil {
		return 0, err
	}
	n := len(pred)
	if n == 1 {
		return 1, nil
	}
	var agree, total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (pred[i] == pred[j]) == (truth[i] == truth[j]) {
				agree++
			}
			total++
		}
	}
	return agree / total, nil
}

func checkLabels(pred, truth []int) error {
	if len(pred) != len(truth) {
		return fmt.Errorf("eval: %d predictions but %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return fmt.Errorf("eval: empty clustering")
	}
	return nil
}
