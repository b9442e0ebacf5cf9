package index

import (
	"math"
	"sort"

	"repro/internal/textsim"
)

// Retired library surface: ranked retrieval (TF-IDF cosine Search, Okapi
// BM25), the per-document VectorCache and Vocabulary. The paper used Lucene
// only to build TF-IDF vectors, and nothing outside this package's tests
// has called these; PR 19 took them out of the production package. They
// live here only so that bm25_test.go, TestSearch,
// TestSearchScoresBoundedProperty, TestVectorCacheMatchesDirect,
// TestWarmUsesAllVectors,
// TestDocNormsMatchDocVector and TestVocabularySorted keep running. Delete
// a declaration together with its tests; never call one from non-test code.

// termFreqs counts analyzed terms.
func termFreqs(terms []string) map[string]int {
	freqs := make(map[string]int)
	for _, t := range terms {
		freqs[t]++
	}
	return freqs
}

// BM25Params are the Okapi BM25 free parameters: K1 controls term-frequency
// saturation, B controls document-length normalization.
type BM25Params struct {
	K1, B float64
}

// DefaultBM25 is the standard parameterization (k1 = 1.2, b = 0.75), the
// values Lucene ships with.
var DefaultBM25 = BM25Params{K1: 1.2, B: 0.75}

// SearchBM25 scores all documents against the analyzed query with Okapi
// BM25 and returns the top k hits in decreasing score order. Unlike the
// TF-IDF cosine Search, BM25 scores are not normalized to [0, 1].
func (ix *Index) SearchBM25(query string, k int, p BM25Params) []SearchHit {
	if ix.Len() == 0 || k <= 0 {
		return nil
	}
	if p.K1 <= 0 {
		p = DefaultBM25
	}
	n := float64(ix.Len())
	// Document lengths, recovered from the postings (the index no longer
	// stores them).
	docLens := make([]float64, ix.Len())
	var totalLen float64
	for _, plist := range ix.postings {
		for _, post := range plist {
			docLens[post.DocID] += float64(post.Freq)
			totalLen += float64(post.Freq)
		}
	}
	avgLen := totalLen / n
	if avgLen == 0 {
		return nil
	}

	scores := make(map[int]float64)
	for term, qf := range termFreqs(ix.analyzer.Terms(query)) {
		plist := ix.postings[term]
		if len(plist) == 0 {
			continue
		}
		df := float64(len(plist))
		// BM25+ style IDF floor: log(1 + (N - df + 0.5)/(df + 0.5)).
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, post := range plist {
			tf := float64(post.Freq)
			docLen := docLens[post.DocID]
			denom := tf + p.K1*(1-p.B+p.B*docLen/avgLen)
			scores[post.DocID] += float64(qf) * idf * tf * (p.K1 + 1) / denom
		}
	}

	hits := make([]SearchHit, 0, len(scores))
	for id, s := range scores {
		if s > 0 {
			hits = append(hits, SearchHit{DocID: id, Score: s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// Search scores all documents against the analyzed query using TF-IDF
// cosine and returns the top k (docID, score) pairs in decreasing score
// order. Documents with zero score are omitted.
func (ix *Index) Search(query string, k int) []SearchHit {
	if ix.Len() == 0 || k <= 0 {
		return nil
	}
	qv := ix.vectorFromFreqs(termFreqs(ix.analyzer.Terms(query)))
	scores := make(map[int]float64)
	for term, qw := range qv {
		for _, p := range ix.postings[term] {
			dv := ix.weight(term, p.Freq)
			scores[p.DocID] += qw * dv
		}
	}
	if len(scores) == 0 {
		return nil
	}
	norms := ix.docNorms()
	qn := qv.Norm()
	hits := make([]SearchHit, 0, len(scores))
	for id, s := range scores {
		norm := norms[id] * qn
		if norm > 0 && s > 0 {
			hits = append(hits, SearchHit{DocID: id, Score: s / norm})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// SearchHit is one ranked retrieval result.
type SearchHit struct {
	DocID int
	Score float64
}

// vectorFromFreqs converts raw term frequencies into a TF-IDF weighted
// sparse vector using the index's corpus statistics.
func (ix *Index) vectorFromFreqs(freqs map[string]int) textsim.SparseVector {
	v := textsim.NewSparseVector()
	for term, f := range freqs {
		if w := ix.weight(term, f); w > 0 {
			v[term] = w
		}
	}
	return v
}

// docNorms returns the L2 norm of every document vector in one postings
// pass, without materializing the vectors.
func (ix *Index) docNorms() []float64 {
	norms := make([]float64, ix.Len())
	for term, plist := range ix.postings {
		for _, p := range plist {
			w := ix.weight(term, p.Freq)
			norms[p.DocID] += w * w
		}
	}
	for i, s := range norms {
		norms[i] = math.Sqrt(s)
	}
	return norms
}

// VectorCache memoizes DocVector results for an index whose document set is
// frozen. It is safe for concurrent use after Warm or sequential filling.
type VectorCache struct {
	ix      *Index
	vectors []textsim.SparseVector
	warm    bool
}

// NewVectorCache creates a cache over ix. The index must not gain documents
// after the cache is created.
func NewVectorCache(ix *Index) *VectorCache {
	return &VectorCache{ix: ix, vectors: make([]textsim.SparseVector, ix.Len())}
}

// Warm eagerly builds every document vector from a single AllVectors pass.
func (c *VectorCache) Warm() {
	c.vectors = c.ix.AllVectors()
	c.warm = true
}

// Vector returns the (possibly cached) TF-IDF vector of document id.
func (c *VectorCache) Vector(id int) textsim.SparseVector {
	if id < 0 || id >= len(c.vectors) {
		return textsim.NewSparseVector()
	}
	if !c.warm && c.vectors[id] == nil {
		c.vectors[id] = c.ix.DocVector(id)
	}
	return c.vectors[id]
}

// Vocabulary returns all distinct terms in lexicographic order.
func (ix *Index) Vocabulary() []string {
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}
