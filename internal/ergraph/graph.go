// Package ergraph provides the graph machinery of the entity-resolution
// framework (Section II and IV-C of the paper): undirected decision graphs
// whose edges assert "these two pages refer to the same person", transitive
// closure via connected components (the paper's clustering of choice), and
// correlation clustering as the alternative the paper experimented with.
//
// The true entity graph is a union of disjoint cliques (equivalence
// classes); the decision graphs produced by similarity functions are not
// transitive, so a clustering step reconciles them.
package ergraph

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
)

// Graph is an undirected simple graph over n vertices (documents of one
// block), stored as one adjacency bit row per vertex: a block's thirty-odd
// decision graphs cost n²/8 bytes each and no allocation per edge.
type Graph struct {
	n int
	// words is the length of one row, ⌈n/64⌉.
	words int
	// adj holds the rows back to back; bit j of row i is the edge (i, j).
	adj []uint64
}

// NewGraph returns an edgeless graph on n vertices.
func NewGraph(n int) *Graph {
	return new(Arena).NewGraph(n)
}

// Arena carves edgeless graphs out of one array of adjacency rows, which
// its owner keeps from block to block: the decision stage builds thirty-odd
// graphs per block, all on the block's n vertices. The zero value is ready
// to use; an Arena is not safe for concurrent use.
type Arena struct {
	adj  []uint64
	used int // words of adj carved since the last Reset
}

// Reset empties the arena for the next block, whose decision graphs —
// graphs of them, on n vertices each — it makes room for in one array,
// allocating only when the array it has is smaller. Every graph carved from
// it so far becomes invalid.
func (a *Arena) Reset(graphs, n int) {
	a.used = 0
	if size := graphs * n * ((n + 63) / 64); size > len(a.adj) {
		a.adj = make([]uint64, size)
	}
}

// NewGraph is the package's NewGraph on the arena's memory, valid until the
// arena's next Reset. It allocates only when the array is used up, and
// then an array at least twice as large, which later blocks carve from.
func (a *Arena) NewGraph(n int) *Graph {
	if n < 0 {
		n = 0
	}
	words := (n + 63) / 64
	size := n * words
	if a.used+size > len(a.adj) {
		a.adj, a.used = make([]uint64, max(2*len(a.adj), size)), 0
	}
	adj := a.adj[a.used : a.used+size : a.used+size]
	a.used += size
	clear(adj)
	return &Graph{n: n, words: words, adj: adj}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.n }

// row returns the adjacency bit row of vertex i.
func (g *Graph) row(i int) []uint64 { return g.adj[i*g.words : (i+1)*g.words] }

// neighbors iterates over the neighbors of i in ascending order.
func (g *Graph) neighbors(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, word := range g.row(i) {
			for ; word != 0; word &= word - 1 {
				if !yield(w*64 + bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}

// AddEdge inserts the undirected edge (i, j). Self-loops and out-of-range
// vertices are rejected with an error.
func (g *Graph) AddEdge(i, j int) error {
	if i == j {
		return fmt.Errorf("ergraph: self-loop at %d", i)
	}
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return fmt.Errorf("ergraph: edge (%d,%d) out of range [0,%d)", i, j, g.n)
	}
	g.Link(i, j)
	return nil
}

// Link inserts the undirected edge (i, j) without AddEdge's checks, for a
// caller that already knows i and j are distinct vertices in range.
func (g *Graph) Link(i, j int) {
	g.row(i)[j/64] |= 1 << (j % 64)
	g.row(j)[i/64] |= 1 << (i % 64)
}

// HasEdge reports whether (i, j) is an edge.
func (g *Graph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	return g.row(i)[j/64]&(1<<(j%64)) != 0
}

// ConnectedComponents labels each vertex with its component index; labels
// are dense, assigned in order of the smallest vertex of each component.
// This is the transitive-closure clustering of Algorithm 1.
func (g *Graph) ConnectedComponents() []int {
	return new(Closure).Components(g)
}

// Closure is the memory of ConnectedComponents — the labels and the search
// stack — kept by a caller that labels many graphs one after another. The
// zero value is ready to use; a Closure is not safe for concurrent use.
type Closure struct {
	labels, stack []int
}

// Components is ConnectedComponents on the closure's memory: the labels it
// returns are valid until the closure's next Components.
func (c *Closure) Components(g *Graph) []int {
	labels := c.labels
	if labels == nil || cap(labels) < g.n {
		labels = make([]int, g.n) // never nil: an empty graph has empty labels
	}
	labels = labels[:g.n]
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	stack := slices.Grow(c.stack[:0], g.n)
	for start := 0; start < g.n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := range g.neighbors(v) {
				if labels[w] == -1 {
					labels[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	c.labels, c.stack = labels, stack
	return labels
}
