// Package index implements an in-memory inverted index with TF-IDF document
// vectors and basic ranked retrieval. It is the stand-in for the Lucene
// services the paper used to represent web pages as weighted term vectors
// (similarity functions F8, F9, F10).
package index

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/textsim"
)

// Posting records the occurrences of a term in one document.
type Posting struct {
	DocID int
	Freq  int
}

// Index is an in-memory inverted index. Documents are identified by the
// dense integer IDs returned from Add. An Index is not safe for concurrent
// mutation; concurrent reads after the last Add are safe.
type Index struct {
	analyzer  *analysis.Analyzer
	postings  map[string][]Posting
	docLens   []int    // number of term occurrences per document
	docNames  []string // external names, parallel to docLens
	weighting WeightingScheme
}

// New returns an empty index using the given analyzer; a nil analyzer means
// the standard analysis chain.
func New(analyzer *analysis.Analyzer) *Index {
	if analyzer == nil {
		analyzer = analysis.Standard
	}
	return &Index{
		analyzer: analyzer,
		postings: make(map[string][]Posting),
	}
}

// Add analyzes text and adds it as a new document, returning its ID. The
// name is an external identifier kept for presentation only.
func (ix *Index) Add(name, text string) int {
	return ix.AddTerms(name, ix.analyzer.Terms(text))
}

// AddTerms adds a document from its already-analyzed terms (duplicates
// carry term frequency), for callers that share one analysis pass between
// the index and other consumers. The terms must come from the index's
// analyzer.
func (ix *Index) AddTerms(name string, terms []string) int {
	id := len(ix.docLens)
	for _, term := range terms {
		// Documents arrive in ID order, so this document's posting, if
		// the term already has one, is the list's last.
		plist := ix.postings[term]
		if n := len(plist); n > 0 && plist[n-1].DocID == id {
			plist[n-1].Freq++
			continue
		}
		ix.postings[term] = append(plist, Posting{DocID: id, Freq: 1})
	}
	ix.docLens = append(ix.docLens, len(terms))
	ix.docNames = append(ix.docNames, name)
	return id
}

// Len returns the number of documents in the index.
func (ix *Index) Len() int { return len(ix.docLens) }

// Terms returns the number of distinct terms in the index.
func (ix *Index) Terms() int { return len(ix.postings) }

// Name returns the external name of document id.
func (ix *Index) Name(id int) (string, error) {
	if id < 0 || id >= len(ix.docNames) {
		return "", fmt.Errorf("index: document %d out of range [0,%d)", id, len(ix.docNames))
	}
	return ix.docNames[id], nil
}

// DocFreq returns the number of documents containing term (after analysis
// normalization is the caller's responsibility; pass an already-analyzed
// term).
func (ix *Index) DocFreq(term string) int {
	return len(ix.postings[term])
}

// TermFreq returns the frequency of term in document id, 0 when absent.
func (ix *Index) TermFreq(term string, id int) int {
	for _, p := range ix.postings[term] {
		if p.DocID == id {
			return p.Freq
		}
	}
	return 0
}

// ErrEmptyIndex is returned by vector and search operations on an index
// with no documents.
var ErrEmptyIndex = errors.New("index: no documents")

// Postings returns the postings list for term, in insertion (docID) order.
// The returned slice is shared with the index and must not be modified.
func (ix *Index) Postings(term string) []Posting {
	return ix.postings[term]
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

// Search scores all documents against the analyzed query using TF-IDF
// cosine and returns the top k (docID, score) pairs in decreasing score
// order. Documents with zero score are omitted.
func (ix *Index) Search(query string, k int) []SearchHit {
	if ix.Len() == 0 || k <= 0 {
		return nil
	}
	qv := ix.vectorFromFreqs(ix.analyzer.TermFreqs(query))
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
