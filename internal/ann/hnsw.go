package ann

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/textsim"
)

// distNode is one graph node paired with its exact distance (1 - cosine)
// to the current query.
type distNode struct {
	dist float64
	id   int32
}

// nodeLess is the total order every queue and selection uses: nearer
// first, insertion id breaking exact ties — the id tiebreak is what keeps
// truncated result sets deterministic when distances collide.
func nodeLess(a, b distNode) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// minQueue pops the nearest node first (the expansion frontier).
type minQueue []distNode

func (q minQueue) Len() int           { return len(q) }
func (q minQueue) Less(i, j int) bool { return nodeLess(q[i], q[j]) }
func (q minQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *minQueue) Push(v any)        { *q = append(*q, v.(distNode)) }
func (q *minQueue) Pop() any          { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }

// maxQueue pops the farthest node first (the bounded result set).
type maxQueue []distNode

func (q maxQueue) Len() int           { return len(q) }
func (q maxQueue) Less(i, j int) bool { return nodeLess(q[j], q[i]) }
func (q maxQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *maxQueue) Push(v any)        { *q = append(*q, v.(distNode)) }
func (q *maxQueue) Pop() any          { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }

// levelFor draws a node's top layer from its content hash: the standard
// geometric level distribution, but seeded by blocking.DocHash instead of
// a PRNG so the same document lands on the same layer in every build.
func levelFor(hash uint64, mL float64) int32 {
	// 53 high bits → uniform in (0, 1); the +0.5 keeps u strictly
	// positive so the log is finite.
	u := (float64(hash>>11) + 0.5) / (1 << 53)
	l := int32(-math.Log(u) * mL)
	if l < 0 {
		l = 0
	}
	if l > maxGraphLevel {
		l = maxGraphLevel
	}
	return l
}

// distTo is the graph metric: one minus the exact cosine over the packed
// key-token vectors. Cosine of non-negative vectors lives in [0, 1], so
// the distance does too.
func (x *CandidateIndex) distTo(q *textsim.PackedVector, id int32) float64 {
	return 1 - textsim.PackedCosine(q, x.vecs[id])
}

// searchLayer is the HNSW best-first beam search over one layer: expand
// the nearest unexpanded candidate until the frontier cannot improve the
// ef nearest found so far. Returns the results nearest-first. Callers
// hold x.mu.
func (x *CandidateIndex) searchLayer(q *textsim.PackedVector, eps []distNode, ef int, layer int32) []distNode {
	visited := make([]bool, len(x.vecs))
	cand := make(minQueue, len(eps))
	res := make(maxQueue, 0, ef+1)
	for i, e := range eps {
		cand[i] = e
		visited[e.id] = true
	}
	heap.Init(&cand)
	for _, e := range eps {
		heap.Push(&res, e)
		if len(res) > ef {
			heap.Pop(&res)
		}
	}

	for len(cand) > 0 {
		c := heap.Pop(&cand).(distNode)
		if len(res) >= ef && nodeLess(res[0], c) {
			break // the frontier is farther than the worst result
		}
		links := x.neighbors[c.id]
		if int(layer) >= len(links) {
			continue
		}
		for _, nb := range links[layer] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := distNode{dist: x.distTo(q, nb), id: nb}
			if len(res) < ef || nodeLess(d, res[0]) {
				heap.Push(&cand, d)
				heap.Push(&res, d)
				if len(res) > ef {
					heap.Pop(&res)
				}
			}
		}
	}

	out := []distNode(res)
	sort.Slice(out, func(i, j int) bool { return nodeLess(out[i], out[j]) })
	return out
}

// insert links node id (whose vector, level and empty adjacency are
// already appended) into the graph and returns the layer-0 beam — the
// node's nearest neighbors, which applyPolicy turns into candidate
// edges. Callers hold x.mu.
func (x *CandidateIndex) insert(id int32) []distNode {
	level := x.levels[id]
	if x.entry < 0 {
		x.entry, x.maxLevel = id, level
		return nil
	}
	q := x.vecs[id]
	eps := []distNode{{dist: x.distTo(q, x.entry), id: x.entry}}

	// Greedy descent through the layers above the node's level.
	for l := x.maxLevel; l > level; l-- {
		eps = x.searchLayer(q, eps, 1, l)
	}

	// Link downward. The beam is sized for both jobs it feeds:
	// DefaultEfConstruction for link selection, efSrch for the candidate
	// query at layer 0.
	ef := max(DefaultEfConstruction, x.efSrch)
	var beam []distNode
	top := level
	if x.maxLevel < top {
		top = x.maxLevel
	}
	for l := top; l >= 0; l-- {
		w := x.searchLayer(q, eps, ef, l)
		sel := w
		if len(sel) > x.m {
			sel = sel[:x.m]
		}
		for _, n := range sel {
			x.link(id, n.id, l)
			x.link(n.id, id, l)
		}
		if l == 0 {
			beam = w
		}
		eps = w
	}
	if level > x.maxLevel {
		x.entry, x.maxLevel = id, level
	}
	return beam
}

// link appends `to` to `from`'s layer adjacency, pruning back to the
// degree bound (M, or 2M on layer 0) by exact distance when it overflows
// — the simple nearest-keep heuristic, deterministic via nodeLess.
func (x *CandidateIndex) link(from, to int32, layer int32) {
	lst := append(x.neighbors[from][layer], to)
	bound := x.m
	if layer == 0 {
		bound = 2 * x.m
	}
	if len(lst) > bound {
		v := x.vecs[from]
		nds := make([]distNode, len(lst))
		for i, nb := range lst {
			nds[i] = distNode{dist: x.distTo(v, nb), id: nb}
		}
		sort.Slice(nds, func(i, j int) bool { return nodeLess(nds[i], nds[j]) })
		lst = lst[:0]
		for i := 0; i < bound; i++ {
			lst = append(lst, nds[i].id)
		}
	}
	x.neighbors[from][layer] = lst
}
