package ergraph

import (
	"math/rand"
	"sort"
)

// Correlation clustering (Bansal, Blum, Chawla 2004) treats each decision-
// graph edge as a "+" pair and each non-edge as a "−" pair, and seeks the
// partition minimizing disagreements: "+" pairs split across clusters plus
// "−" pairs placed together. The paper lists it as the alternative to
// transitive closure in Algorithm 1's final clustering step.

// PivotCluster runs the CC-Pivot 3-approximation (Ailon, Charikar, Newman):
// pick a random unclustered pivot, form a cluster from the pivot and its
// unclustered neighbors, repeat. Labels are dense in pivot order.
func PivotCluster(g *Graph, rng *rand.Rand) []int {
	n := g.Len()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	order := rng.Perm(n)
	next := 0
	for _, pivot := range order {
		if labels[pivot] != -1 {
			continue
		}
		labels[pivot] = next
		for nbr := range g.neighbors(pivot) {
			if labels[nbr] == -1 {
				labels[nbr] = next
			}
		}
		next++
	}
	return labels
}

// LocalSearch greedily improves a clustering: repeatedly move single
// vertices to the neighboring cluster (or a fresh singleton) that most
// reduces disagreements, until no move helps or maxPasses passes complete.
// It returns the improved labels (the input slice is not modified).
func LocalSearch(g *Graph, start []int, maxPasses int) []int {
	n := g.Len()
	labels := make([]int, n)
	copy(labels, start)
	if n == 0 {
		return labels
	}

	// freshLabel is guaranteed unused, for "move to own singleton" moves.
	freshLabel := 0
	for _, l := range labels {
		if l >= freshLabel {
			freshLabel = l + 1
		}
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for v := 0; v < n; v++ {
			best := labels[v]
			bestDelta := 0
			// Candidate targets: clusters of v's neighbors plus a fresh
			// singleton. Candidates are visited in sorted order so that
			// ties between equally good moves resolve the same way on
			// every run — map iteration order must not leak into the
			// clustering.
			candSet := map[int]struct{}{freshLabel: {}}
			for nbr := range g.neighbors(v) {
				candSet[labels[nbr]] = struct{}{}
			}
			cands := make([]int, 0, len(candSet))
			for cand := range candSet {
				cands = append(cands, cand)
			}
			sort.Ints(cands)
			for _, cand := range cands {
				if cand == labels[v] {
					continue
				}
				if d := moveDelta(g, labels, v, cand); d < bestDelta {
					bestDelta = d
					best = cand
				}
			}
			if best != labels[v] {
				labels[v] = best
				if best == freshLabel {
					freshLabel++
				}
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return canonicalize(labels)
}

// moveDelta computes the change in disagreements if v moves to cluster c.
func moveDelta(g *Graph, labels []int, v, c int) int {
	delta := 0
	for u := 0; u < len(labels); u++ {
		if u == v {
			continue
		}
		edge := g.HasEdge(u, v)
		sameNow := labels[u] == labels[v]
		sameAfter := labels[u] == c
		if sameNow == sameAfter {
			continue
		}
		// Disagreement before: edge != sameNow; after: edge != sameAfter.
		before := 0
		if edge != sameNow {
			before = 1
		}
		after := 0
		if edge != sameAfter {
			after = 1
		}
		delta += after - before
	}
	return delta
}

// CorrelationCluster runs pivot seeding followed by local-search refinement
// — the full correlation-clustering alternative for Algorithm 1.
func CorrelationCluster(g *Graph, rng *rand.Rand) []int {
	return LocalSearch(g, PivotCluster(g, rng), 10)
}

// canonicalize renumbers labels densely in order of first appearance.
func canonicalize(labels []int) []int {
	mapping := make(map[int]int)
	out := make([]int, len(labels))
	next := 0
	for i, l := range labels {
		m, ok := mapping[l]
		if !ok {
			m = next
			mapping[l] = m
			next++
		}
		out[i] = m
	}
	return out
}
