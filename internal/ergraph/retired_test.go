package ergraph

import "math/bits"

// Retired library surface: no non-test code removes an edge, counts edges,
// lists a vertex's neighbors as a slice or counts them, or asks a
// union-find for its size (the pipeline reads ConnectedComponents and the
// blockindex tracker keeps its own labels).
// The methods live here only so that the graph, model and union-find tests
// that observe state through them keep running. Delete one together with
// its tests; never call one from non-test code.

// RemoveEdge deletes the undirected edge (i, j) if present.
func (g *Graph) RemoveEdge(i, j int) {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return
	}
	g.row(i)[j/64] &^= 1 << (j % 64)
	g.row(j)[i/64] &^= 1 << (i % 64)
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return popcount(g.adj) / 2 }

// Neighbors returns the neighbors of i in ascending order.
func (g *Graph) Neighbors(i int) []int {
	if i < 0 || i >= g.n {
		return nil
	}
	out := make([]int, 0, g.Degree(i))
	for j := range g.neighbors(i) {
		out = append(out, j)
	}
	return out
}

// Len returns the number of elements.
func (uf *UnionFind) Len() int { return len(uf.parent) }

// Degree returns the degree of vertex i.
func (g *Graph) Degree(i int) int {
	if i < 0 || i >= g.n {
		return 0
	}
	return popcount(g.row(i))
}

func popcount(words []uint64) int {
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	return total
}
