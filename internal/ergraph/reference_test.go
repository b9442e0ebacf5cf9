package ergraph

// Disagreements is the objective the tests judge PivotCluster and
// LocalSearch by; no non-test code evaluates it. It counts the
// correlation-clustering cost of labels against the decision graph g: edges
// between clusters plus non-edges within clusters.
func Disagreements(g *Graph, labels []int) int {
	n := g.Len()
	cost := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := labels[i] == labels[j]
			edge := g.HasEdge(i, j)
			if edge != same {
				cost++
			}
		}
	}
	return cost
}
