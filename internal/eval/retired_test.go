package eval

import "math"

// Retired library surface: the entropy-based measures. The paper scores
// with Fp, pairwise F and Rand (Evaluate) and nothing outside this
// package's tests has called these; PR 19 took them out of the production
// package. They live here only so that entropy_test.go keeps running.
// Delete a declaration together with its tests; never call one from
// non-test code.

// Entropy-based clustering measures. The paper's future work proposes
// "considering entropy based metrics" for judging resolution under
// incomplete information; this file provides the standard information-
// theoretic comparison measures: cluster entropy, mutual information,
// normalized mutual information (NMI) and variation of information (VI).

// ClusterEntropy returns the Shannon entropy (in nats) of the cluster-size
// distribution of labels.
func ClusterEntropy(labels []int) float64 {
	n := len(labels)
	if n == 0 {
		return 0
	}
	counts := make(map[int]int)
	for _, l := range labels {
		counts[l]++
	}
	var h float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// MutualInformation returns the mutual information (in nats) between two
// clusterings of the same documents.
func MutualInformation(pred, truth []int) (float64, error) {
	if err := checkLabels(pred, truth); err != nil {
		return 0, err
	}
	n := float64(len(pred))
	joint := make(map[[2]int]int)
	pc := make(map[int]int)
	tc := make(map[int]int)
	for i := range pred {
		joint[[2]int{pred[i], truth[i]}]++
		pc[pred[i]]++
		tc[truth[i]]++
	}
	var mi float64
	for key, c := range joint {
		pxy := float64(c) / n
		px := float64(pc[key[0]]) / n
		py := float64(tc[key[1]]) / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0 {
		mi = 0 // guard tiny negative rounding
	}
	return mi, nil
}

// NMI returns the normalized mutual information in [0, 1], normalized by
// the arithmetic mean of the two entropies. Two identical partitions score
// 1; independent partitions score ~0. When both partitions are trivial
// (single cluster or all singletons on both sides identically), NMI is
// defined as 1 if they are equal partitions and 0 otherwise.
func NMI(pred, truth []int) (float64, error) {
	mi, err := MutualInformation(pred, truth)
	if err != nil {
		return 0, err
	}
	hp := ClusterEntropy(pred)
	ht := ClusterEntropy(truth)
	if hp == 0 && ht == 0 {
		if samePartition(pred, truth) {
			return 1, nil
		}
		return 0, nil
	}
	den := (hp + ht) / 2
	if den == 0 {
		return 0, nil
	}
	v := mi / den
	if v > 1 {
		v = 1
	}
	return v, nil
}

// VI returns the variation of information VI = H(pred) + H(truth) − 2·MI,
// a true metric on partitions (0 means identical; larger means more
// different).
func VI(pred, truth []int) (float64, error) {
	mi, err := MutualInformation(pred, truth)
	if err != nil {
		return 0, err
	}
	v := ClusterEntropy(pred) + ClusterEntropy(truth) - 2*mi
	if v < 0 {
		v = 0
	}
	return v, nil
}

func samePartition(a, b []int) bool {
	mapping := make(map[int]int)
	reverse := make(map[int]int)
	for i := range a {
		if m, ok := mapping[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			if _, ok := reverse[b[i]]; ok {
				return false
			}
			mapping[a[i]] = b[i]
			reverse[b[i]] = a[i]
		}
	}
	return true
}
