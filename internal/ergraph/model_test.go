package ergraph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapGraph is the adjacency-set Graph the bit-row Graph replaced, kept as
// the model the bit rows are tested against.
type mapGraph struct {
	n   int
	adj []map[int]struct{}
}

func newMapGraph(n int) *mapGraph {
	m := &mapGraph{n: n, adj: make([]map[int]struct{}, n)}
	for i := range m.adj {
		m.adj[i] = make(map[int]struct{})
	}
	return m
}

func (m *mapGraph) addEdge(i, j int)    { m.adj[i][j], m.adj[j][i] = struct{}{}, struct{}{} }
func (m *mapGraph) removeEdge(i, j int) { delete(m.adj[i], j); delete(m.adj[j], i) }
func (m *mapGraph) hasEdge(i, j int) bool {
	_, ok := m.adj[i][j]
	return ok
}

func (m *mapGraph) numEdges() int {
	total := 0
	for _, nbrs := range m.adj {
		total += len(nbrs)
	}
	return total / 2
}

func (m *mapGraph) neighbors(i int) []int {
	out := make([]int, 0, len(m.adj[i]))
	for j := range m.adj[i] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

func (m *mapGraph) connectedComponents() []int {
	labels := make([]int, m.n)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for start := 0; start < m.n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = next
		stack := []int{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := range m.adj[v] {
				if labels[w] == -1 {
					labels[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return labels
}

// correlationCluster is the map-based CC-Pivot + LocalSearch(10 passes).
func (m *mapGraph) correlationCluster(rng *rand.Rand) []int {
	labels := make([]int, m.n)
	for i := range labels {
		labels[i] = -1
	}
	freshLabel := 0
	for _, pivot := range rng.Perm(m.n) {
		if labels[pivot] != -1 {
			continue
		}
		labels[pivot] = freshLabel
		for nbr := range m.adj[pivot] {
			if labels[nbr] == -1 {
				labels[nbr] = freshLabel
			}
		}
		freshLabel++
	}
	moveDelta := func(v, c int) int {
		delta := 0
		for u := 0; u < m.n; u++ {
			sameNow, sameAfter := labels[u] == labels[v], labels[u] == c
			if u == v || sameNow == sameAfter {
				continue
			}
			// The pair agrees with the graph after the move iff the edge
			// is present exactly when u ends up with v.
			if m.hasEdge(u, v) == sameAfter {
				delta--
			} else {
				delta++
			}
		}
		return delta
	}
	for pass := 0; pass < 10; pass++ {
		improved := false
		for v := 0; v < m.n; v++ {
			candSet := map[int]struct{}{freshLabel: {}}
			for nbr := range m.adj[v] {
				candSet[labels[nbr]] = struct{}{}
			}
			cands := make([]int, 0, len(candSet))
			for cand := range candSet {
				cands = append(cands, cand)
			}
			sort.Ints(cands)
			best, bestDelta := labels[v], 0
			for _, cand := range cands {
				if cand == labels[v] {
					continue
				}
				if d := moveDelta(v, cand); d < bestDelta {
					best, bestDelta = cand, d
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

// TestGraphMatchesMapModel drives the bit-row Graph and the map model with
// the same random edge insertions and removals and requires every query,
// the components and the seeded correlation clustering to agree. The sizes
// straddle the 64-bit word boundary of a row.
func TestGraphMatchesMapModel(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		g, m := NewGraph(n), newMapGraph(n)
		check := func(g *Graph, stage string) {
			t.Helper()
			if g.NumEdges() != m.numEdges() {
				t.Fatalf("n=%d %s: NumEdges = %d, model %d", n, stage, g.NumEdges(), m.numEdges())
			}
			for i := 0; i < n; i++ {
				nbrs := m.neighbors(i)
				if got := g.Neighbors(i); !reflect.DeepEqual(got, nbrs) {
					t.Fatalf("n=%d %s: Neighbors(%d) = %v, model %v", n, stage, i, got, nbrs)
				}
				if g.Degree(i) != len(nbrs) {
					t.Fatalf("n=%d %s: Degree(%d) = %d, model %d", n, stage, i, g.Degree(i), len(nbrs))
				}
				for j := 0; j < n; j++ {
					if g.HasEdge(i, j) != m.hasEdge(i, j) {
						t.Fatalf("n=%d %s: HasEdge(%d,%d) = %v, model %v", n, stage, i, j, g.HasEdge(i, j), m.hasEdge(i, j))
					}
				}
			}
			if got, want := g.ConnectedComponents(), m.connectedComponents(); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: components = %v, model %v", n, stage, got, want)
			}
			got := CorrelationCluster(g, rand.New(rand.NewSource(42)))
			if want := m.correlationCluster(rand.New(rand.NewSource(42))); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: correlation labels = %v, model %v", n, stage, got, want)
			}
		}
		// Sparse clusters of ~8 vertices plus a little cross noise, so both
		// clusterings have real structure to find.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if p := rng.Float64(); (i/8 == j/8 && p < 0.7) || p < 0.01 {
					if err := g.AddEdge(i, j); err != nil {
						t.Fatal(err)
					}
					m.addEdge(i, j)
				}
			}
		}
		check(g, "built")
		built := g.NumEdges()
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			g.RemoveEdge(i, j)
			if i != j {
				m.removeEdge(i, j)
			}
		}
		check(g, "after removals")
		if n > 1 && built <= g.NumEdges() {
			t.Fatalf("n=%d: %d random removals removed no edge", n, 3*n)
		}
	}
}

// TestGraphAllocations pins the storage claim: a graph is two allocations
// (the struct and its bit rows) however many edges it gains.
func TestGraphAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var edges [2000][2]int
	for k := range edges {
		i := rng.Intn(150)
		edges[k] = [2]int{i, (i + 1 + rng.Intn(149)) % 150}
	}
	allocs := testing.AllocsPerRun(20, func() {
		g := NewGraph(150)
		for _, e := range edges {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 2 {
		t.Errorf("NewGraph(150) + 2000 AddEdge = %v allocs, want <= 2", allocs)
	}
}
