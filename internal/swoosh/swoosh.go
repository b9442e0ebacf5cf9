// Package swoosh implements the R-Swoosh generic entity-resolution
// algorithm (Benjelloun, Garcia-Molina, Menestrina, Su, Whang, Widom: "a
// generic approach to entity resolution", reference [7] of the paper) as a
// baseline comparator for the paper's framework. R-Swoosh interleaves
// matching and merging: whenever two records match they are merged
// immediately, and the merged record — carrying the union of both records'
// features — can match records that neither constituent matched alone.
package swoosh

import (
	"fmt"
	"sort"

	"repro/internal/simfn"
	"repro/internal/textsim"
)

// Record is a mergeable entity profile: the union of features of one or
// more source documents.
type Record struct {
	// IDs are the source document indices merged into this record.
	IDs []int
	// Persons, Organizations and Locations are entity-mention sets.
	Persons, Organizations, Locations []string
	// Names collects the "most frequent name" values of the sources.
	Names []string
	// Concepts is the summed (re-normalized) concept vector.
	Concepts textsim.SparseVector
	// Terms is the summed TF-IDF term vector.
	Terms textsim.SparseVector
}

// FromBlock converts a prepared block into singleton records.
func FromBlock(b *simfn.Block) []*Record {
	out := make([]*Record, len(b.Docs))
	for i := range b.Docs {
		d := &b.Docs[i]
		r := &Record{
			IDs:           []int{i},
			Persons:       append([]string(nil), d.Features.OtherPersons...),
			Organizations: append([]string(nil), d.Features.Organizations...),
			Locations:     append([]string(nil), d.Features.Locations...),
			Concepts:      d.ConceptPacked.Unpack(b.Vocab),
			Terms:         d.Packed.Unpack(b.Vocab),
		}
		if d.Features.MostFrequentName != "" {
			r.Names = append(r.Names, d.Features.MostFrequentName)
		}
		out[i] = r
	}
	return out
}

// MatchFunc decides whether two records refer to the same entity.
type MatchFunc func(a, b *Record) bool

// Merge returns the union of two records: feature sets united, vectors
// summed, concept vector re-normalized. Neither input is modified.
func Merge(a, b *Record) *Record {
	m := &Record{
		IDs:           unionInts(a.IDs, b.IDs),
		Persons:       unionStrings(a.Persons, b.Persons),
		Organizations: unionStrings(a.Organizations, b.Organizations),
		Locations:     unionStrings(a.Locations, b.Locations),
		Names:         unionStrings(a.Names, b.Names),
		Concepts:      addVectors(a.Concepts, b.Concepts),
		Terms:         addVectors(a.Terms, b.Terms),
	}
	if n := m.Concepts.Norm(); n > 0 {
		m.Concepts.Scale(1 / n)
	}
	return m
}

// RSwoosh runs the R-Swoosh algorithm: records are taken in order; each is
// compared against the resolved set, and on the first match the pair is
// merged and re-enqueued. The result is the fixpoint set of merged records.
// The input slice is not modified.
func RSwoosh(records []*Record, match MatchFunc) ([]*Record, error) {
	if match == nil {
		return nil, fmt.Errorf("swoosh: nil match function")
	}
	queue := make([]*Record, len(records))
	copy(queue, records)
	var resolved []*Record
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		matched := -1
		for i, r2 := range resolved {
			if match(r, r2) {
				matched = i
				break
			}
		}
		if matched < 0 {
			resolved = append(resolved, r)
			continue
		}
		r2 := resolved[matched]
		resolved = append(resolved[:matched], resolved[matched+1:]...)
		queue = append(queue, Merge(r, r2))
	}
	return resolved, nil
}

// Labels converts a resolved record set back into per-document cluster
// labels for n source documents. Documents not covered by any record get
// fresh singleton labels (cannot happen for RSwoosh output over FromBlock
// input, but keeps the function total).
func Labels(resolved []*Record, n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for _, r := range resolved {
		for _, id := range r.IDs {
			if id >= 0 && id < n {
				labels[id] = next
			}
		}
		next++
	}
	for i, l := range labels {
		if l == -1 {
			labels[i] = next
			next++
		}
	}
	return labels
}

// ThresholdMatch builds the classic feature-disjunction match predicate
// used with Swoosh-style resolvers: two records match when their term
// vectors are sufficiently similar, their concept vectors are sufficiently
// similar, or they share enough entity mentions.
func ThresholdMatch(termThreshold, conceptThreshold float64, minSharedEntities int) MatchFunc {
	return func(a, b *Record) bool {
		if len(a.Terms) > 0 && len(b.Terms) > 0 &&
			textsim.Cosine(a.Terms, b.Terms) >= termThreshold {
			return true
		}
		if len(a.Concepts) > 0 && len(b.Concepts) > 0 &&
			textsim.Cosine(a.Concepts, b.Concepts) >= conceptThreshold {
			return true
		}
		shared := textsim.SetOverlapCount(a.Organizations, b.Organizations) +
			textsim.SetOverlapCount(a.Persons, b.Persons)
		return minSharedEntities > 0 && shared >= minSharedEntities
	}
}

func unionInts(a, b []int) []int {
	set := make(map[int]struct{}, len(a)+len(b))
	for _, x := range a {
		set[x] = struct{}{}
	}
	for _, x := range b {
		set[x] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func unionStrings(a, b []string) []string {
	set := make(map[string]struct{}, len(a)+len(b))
	for _, x := range a {
		set[x] = struct{}{}
	}
	for _, x := range b {
		set[x] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func addVectors(a, b textsim.SparseVector) textsim.SparseVector {
	out := a.Clone()
	for t, w := range b {
		out.Add(t, w)
	}
	return out
}
