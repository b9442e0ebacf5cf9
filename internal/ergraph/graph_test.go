package ergraph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(5)
	if g.Len() != 5 {
		t.Fatal("fresh graph wrong shape")
	}
	for i := range 5 {
		if nbrs := slices.Collect(g.neighbors(i)); nbrs != nil {
			t.Fatalf("fresh graph: vertex %d has neighbors %v", i, nbrs)
		}
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err) // duplicate insert is fine
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	for i, want := range [][]int{{1}, {0}, nil, nil, nil} {
		if got := slices.Collect(g.neighbors(i)); !slices.Equal(got, want) {
			t.Errorf("neighbors(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestGraphErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	// Out-of-range queries are safe.
	if g.HasEdge(-1, 5) || g.HasEdge(0, 9) {
		t.Error("out-of-range queries should be inert")
	}
	if NewGraph(-2).Len() != 0 {
		t.Error("negative size should clamp")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(6)
	for _, j := range []int{5, 2, 4, 1} {
		if err := g.AddEdge(0, j); err != nil {
			t.Fatal(err)
		}
	}
	if nbrs, want := slices.Collect(g.neighbors(0)), []int{1, 2, 4, 5}; !slices.Equal(nbrs, want) {
		t.Errorf("neighbors = %v, want %v", nbrs, want)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(7)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 3, 4)
	labels := g.ConnectedComponents()
	// {0,1,2} = 0, {3,4} = 1, {5} = 2, {6} = 3 (dense, by smallest member).
	want := []int{0, 0, 0, 1, 1, 2, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func mustEdge(t *testing.T, g *Graph, i, j int) {
	t.Helper()
	if err := g.AddEdge(i, j); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponentsTransitivity(t *testing.T) {
	// A chain must collapse into one component even though the similarity
	// relation that produced it is not transitive.
	g := NewGraph(10)
	for i := 0; i+1 < 10; i++ {
		mustEdge(t, g, i, i+1)
	}
	labels := g.ConnectedComponents()
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("chain should be one component: %v", labels)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(0, 1) {
		t.Error("repeat union should not merge")
	}
	uf.Union(1, 2)
	if uf.Find(0) != uf.Find(2) {
		t.Error("transitivity broken")
	}
	if uf.Find(0) == uf.Find(3) {
		t.Error("phantom connection")
	}
	if uf.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", uf.Sets())
	}
	// The partition {0,1,2} {3} {4} {5}, each set named by its smallest
	// member.
	set := []int{0, 0, 0, 3, 4, 5}
	for i := range set {
		for j := range set {
			if (uf.Find(i) == uf.Find(j)) != (set[i] == set[j]) {
				t.Errorf("Find(%d) == Find(%d) is %v, want %v", i, j, uf.Find(i) == uf.Find(j), set[i] == set[j])
			}
		}
	}
}

func TestUnionFindMatchesComponentsProperty(t *testing.T) {
	f := func(rawEdges [][2]uint8, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := NewGraph(n)
		uf := NewUnionFind(n)
		for _, e := range rawEdges {
			i, j := int(e[0])%n, int(e[1])%n
			if i == j {
				continue
			}
			if err := g.AddEdge(i, j); err != nil {
				return false
			}
			uf.Union(i, j)
		}
		cc := g.ConnectedComponents()
		// Same partition: same component exactly when same root.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (cc[i] == cc[j]) != (uf.Find(i) == uf.Find(j)) {
					return false
				}
			}
		}
		return numClusters(cc) == uf.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDisagreements(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	// Perfect clustering: zero disagreements.
	if d := Disagreements(g, []int{0, 0, 1, 1}); d != 0 {
		t.Errorf("perfect clustering cost = %d", d)
	}
	// Everything together: the 4 non-edges inside the single cluster count.
	if d := Disagreements(g, []int{0, 0, 0, 0}); d != 4 {
		t.Errorf("one-cluster cost = %d, want 4", d)
	}
	// Everything apart: the 2 edges crossing clusters count.
	if d := Disagreements(g, []int{0, 1, 2, 3}); d != 2 {
		t.Errorf("singletons cost = %d, want 2", d)
	}
}

func TestPivotClusterRespectsCliques(t *testing.T) {
	// Two disjoint cliques must always be recovered exactly.
	g := NewGraph(6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			mustEdge(t, g, i, j)
			mustEdge(t, g, i+3, j+3)
		}
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		labels := PivotCluster(g, rng)
		if numClusters(labels) != 2 {
			t.Fatalf("clique graph clustered into %d parts: %v", numClusters(labels), labels)
		}
		if Disagreements(g, labels) != 0 {
			t.Fatalf("clique clustering has disagreements: %v", labels)
		}
	}
}

func TestLocalSearchImproves(t *testing.T) {
	// Near-clique structure with one noisy edge: local search must reach a
	// cost no worse than the pivot start, and fix bad starts.
	g := NewGraph(6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			mustEdge(t, g, i, j)
			mustEdge(t, g, i+3, j+3)
		}
	}
	mustEdge(t, g, 2, 3) // noise edge across the cliques

	badStart := []int{0, 1, 2, 3, 4, 5} // all singletons
	improved := LocalSearch(g, badStart, 20)
	if got, was := Disagreements(g, improved), Disagreements(g, badStart); got > was {
		t.Errorf("local search worsened cost: %d > %d", got, was)
	}
	// The optimal clustering {0,1,2} {3,4,5} has cost 1 (the noise edge).
	if got := Disagreements(g, improved); got > 1 {
		t.Errorf("local search cost = %d, want <= 1", got)
	}
}

func TestCorrelationClusterEndToEnd(t *testing.T) {
	g := NewGraph(8)
	// Clique A: 0-3, clique B: 4-7, with one edge missing in A and one
	// noise edge between them.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if i == 0 && j == 3 {
				continue // missing edge
			}
			mustEdge(t, g, i, j)
			mustEdge(t, g, i+4, j+4)
		}
	}
	mustEdge(t, g, 4, 7)
	mustEdge(t, g, 3, 4) // noise

	labels := CorrelationCluster(g, stats.NewRNG(11))
	// The two groups must separate: 0 and 1 together, 4 and 5 together,
	// and the groups apart.
	if labels[0] != labels[1] || labels[4] != labels[5] {
		t.Errorf("groups split: %v", labels)
	}
	if labels[0] == labels[4] {
		t.Errorf("groups merged: %v", labels)
	}
}

func TestLocalSearchEmptyGraph(t *testing.T) {
	g := NewGraph(0)
	if got := LocalSearch(g, nil, 5); len(got) != 0 {
		t.Errorf("empty graph labels = %v", got)
	}
}

func TestCanonicalize(t *testing.T) {
	got := canonicalize([]int{7, 7, 3, 7, 3, 9})
	want := []int{0, 0, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonicalize = %v, want %v", got, want)
		}
	}
}

// numClusters returns the number of distinct labels.
func numClusters(labels []int) int {
	seen := make(map[int]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}
