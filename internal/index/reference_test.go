package index

import "repro/internal/textsim"

// DocVector returns the TF-IDF weighted sparse term vector of document id.
// The vector is rebuilt on each call by scanning every postings list; it is
// the per-document reference AllVectors is tested against.
func (ix *Index) DocVector(id int) textsim.SparseVector {
	v := textsim.NewSparseVector()
	if id < 0 || id >= ix.Len() {
		return v
	}
	for term, plist := range ix.postings {
		for _, p := range plist {
			if p.DocID == id {
				if w := ix.weight(term, p.Freq); w > 0 {
					v[term] = w
				}
				break
			}
		}
	}
	return v
}
