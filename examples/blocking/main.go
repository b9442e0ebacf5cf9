// Blocking: compare candidate-pair generation schemes.
//
// The paper blocks pages by exact person name and notes that "in general,
// one needs to consider the applicable blocking schemes more carefully."
// This example builds a mixed record set where names appear in several
// written variants ("John Smith", "Smith, John", "J. Smith"), blocks it as
// the resolution pipeline does — each connected component of a scheme's
// candidate pairs is one block, compared pair by pair — and measures each
// scheme's candidate recall (the share of true pairs that land in one
// block, eval.CandidateRecall) against the pairs the blocks leave to
// compare.
//
// Run with:
//
//	go run ./examples/blocking
package main

import (
	"fmt"

	"repro/internal/blocking"
	"repro/internal/ergraph"
	"repro/internal/eval"
)

func main() {
	// Twelve records about four real persons, with name-variant noise.
	// labels[i] is the ground-truth person of record i.
	records := []blocking.Record{
		{ID: 0, Keys: []string{"John Smith"}},
		{ID: 1, Keys: []string{"Smith, John"}},
		{ID: 2, Keys: []string{"J. Smith"}},
		{ID: 3, Keys: []string{"Mary Cohen"}},
		{ID: 4, Keys: []string{"Mary R. Cohen"}},
		{ID: 5, Keys: []string{"M. Cohen"}},
		{ID: 6, Keys: []string{"Andrew McCallum"}},
		{ID: 7, Keys: []string{"A. McCallum"}},
		{ID: 8, Keys: []string{"Andrew MacCallum"}}, // misspelled variant
		{ID: 9, Keys: []string{"Fernando Pereira"}},
		{ID: 10, Keys: []string{"F. Pereira", "Fernando C. Pereira"}},
		{ID: 11, Keys: []string{"Pereira, Fernando"}},
	}
	// truth groups the records by real person: the blocking in which
	// every true pair shares a block.
	truth := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}

	schemes := []struct {
		name   string
		scheme blocking.Scheme
	}{
		{"exact-key (the paper's)", blocking.ExactKey{}},
		{"token blocking", blocking.TokenBlocking{}},
		{"canopy (0.3 / 0.8)", blocking.Canopy{Loose: 0.3, Tight: 0.8}},
	}

	all := len(records) * (len(records) - 1) / 2
	fmt.Println("scheme                      pairs  blocks  recall  compared")
	for _, s := range schemes {
		pairs := s.scheme.Candidates(records)
		blocks := components(len(records), pairs)
		compared := 0
		for _, b := range blocks {
			compared += len(b) * (len(b) - 1) / 2
		}
		fmt.Printf("%-26s %6d  %6d   %.3f  %3d of %d\n",
			s.name, len(pairs), len(blocks), eval.CandidateRecall(truth, blocks), compared, all)
	}

	fmt.Println("\nExact-key blocking misses every name-variant pair; token blocking")
	fmt.Println("and canopy clustering keep them all while leaving a fraction of")
	fmt.Println("the pairs to compare. Within a block the similarity stage prunes")
	fmt.Println("false candidates, so blocking recall is what counts.")
}

// components blocks the records as the pipeline does: the connected
// components of the candidate pairs, in order of their smallest member.
func components(n int, pairs []blocking.Pair) [][]int {
	uf := ergraph.NewUnionFind(n)
	for _, p := range pairs {
		uf.Union(p.A, p.B)
	}
	slot := map[int]int{}
	var blocks [][]int
	for i := 0; i < n; i++ {
		root := uf.Find(i)
		k, ok := slot[root]
		if !ok {
			k = len(blocks)
			slot[root] = k
			blocks = append(blocks, nil)
		}
		blocks[k] = append(blocks[k], i)
	}
	return blocks
}
