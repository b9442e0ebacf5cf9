package ergraph

// UnionFind is a disjoint-set forest with union by rank and path
// compression, the standard structure behind transitive-closure clustering
// at scale.
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	if n < 0 {
		n = 0
	}
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y; it reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	_, _, merged := uf.Merge(x, y)
	return merged
}

// Add appends one new singleton element and returns its index. It is the
// growth primitive behind incremental structures (the blocking
// index) that extend a union-find as documents arrive instead of
// rebuilding it per run.
func (uf *UnionFind) Add() int {
	id := len(uf.parent)
	uf.parent = append(uf.parent, id)
	uf.rank = append(uf.rank, 0)
	uf.sets++
	return id
}

// Merge unions the sets of x and y like Union, but additionally reports
// which representative survived and which was absorbed — what incremental
// callers that maintain per-set state (member lists, cached fingerprints)
// need to move that state to the surviving root. When x and y are already
// in one set, merged is false and root is that set's representative.
func (uf *UnionFind) Merge(x, y int) (root, absorbed int, merged bool) {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return rx, rx, false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return rx, ry, true
}

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }
