package blocking

// ApproxScheme is implemented by global schemes whose candidate generation
// can be served by an approximate nearest-neighbor index. The exact
// Candidates pass compares every record pair — O(N²) per run — while the
// approximate path inserts each new record into a proximity graph once and
// links it to a bounded set of nearest neighbors, with the policy below
// deciding which neighbors become candidate edges. Neighbor *search* is
// approximate; the similarity that accepts or rejects an edge is computed
// exactly, so recall — not precision — is the only quantity at stake.
type ApproxScheme interface {
	Scheme
	// ApproxPolicy describes how nearest-neighbor query results translate
	// into candidate edges for this scheme.
	ApproxPolicy() ApproxPolicy
}

// ApproxPolicy is a scheme's recall contract with a nearest-neighbor
// candidate index: of the neighbors a query returns (nearest first), which
// ones become candidate edges.
type ApproxPolicy struct {
	// MinSim accepts a neighbor only when its exact cosine similarity over
	// the record's key-token set is at least MinSim. Canopy uses its loose
	// threshold here: on binary token sets cosine bounds Jaccard from
	// above, so every pair the exact scheme links clears MinSim too — the
	// approximation can only miss a pair by not surfacing it among the
	// efSearch nearest, never by mis-scoring it. Zero disables the test.
	MinSim float64
}

// ApproxPolicy implements ApproxScheme: gather neighbors at least as
// similar as the loose threshold, exactly as a canopy gathers its members.
func (c Canopy) ApproxPolicy() ApproxPolicy {
	return ApproxPolicy{MinSim: c.Loose}
}
