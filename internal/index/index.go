// Package index builds the TF-IDF term vectors of a block's pages from an
// in-memory inverted index. It is the stand-in for the Lucene services the
// paper used to represent web pages as weighted term vectors (similarity
// functions F8, F9, F10).
package index

import (
	"math"

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
	analyzer *analysis.Analyzer
	postings map[string][]Posting
	docs     int
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
// name labels the document at the call site and is not stored.
func (ix *Index) Add(_, text string) int {
	return ix.AddTerms(ix.analyzer.Terms(text))
}

// AddTerms adds a document from its already-analyzed terms (duplicates
// carry term frequency), for callers that share one analysis pass between
// the index and other consumers. The terms must come from the index's
// analyzer.
func (ix *Index) AddTerms(terms []string) int {
	id := ix.docs
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
	ix.docs++
	return id
}

// Len returns the number of documents in the index.
func (ix *Index) Len() int { return ix.docs }

// weight is the weight of a term occurring f times in a document, under the
// index's corpus statistics: (1 + ln tf) · ln(1 + N/df), Lucene's classic
// practical scoring combination.
func (ix *Index) weight(term string, f int) float64 {
	df := len(ix.postings[term])
	if f <= 0 || df == 0 {
		return 0
	}
	idf := math.Log(1 + float64(ix.docs)/float64(df))
	return (1 + math.Log(float64(f))) * idf
}

// AllVectors materializes the TF-IDF vector of every document in a single
// pass over the postings lists — O(total postings) for the whole index.
func (ix *Index) AllVectors() []textsim.SparseVector {
	out := make([]textsim.SparseVector, ix.Len())
	for i := range out {
		out[i] = textsim.NewSparseVector()
	}
	for term, plist := range ix.postings {
		for _, p := range plist {
			if w := ix.weight(term, p.Freq); w > 0 {
				out[p.DocID][term] = w
			}
		}
	}
	return out
}
