// Package simfn implements the ten pairwise similarity functions of the
// paper's Table I. Each function compares two web pages on one extracted
// feature and reports a similarity in [0, 1]:
//
//	F1  weighted concept vector      cosine similarity
//	F2  URL of the page              string/host similarity
//	F3  most frequent name           string similarity
//	F4  concept set                  number of overlapping concepts
//	F5  organization entities        number of overlapping organizations
//	F6  other person names           number of overlapping persons
//	F7  name closest to the query    string similarity
//	F8  TF-IDF word vector           cosine similarity
//	F9  TF-IDF word vector           Pearson correlation similarity
//	F10 TF-IDF word vector           extended Jaccard similarity
//
// The functions operate on prepared Docs (extracted features plus TF-IDF
// term vectors); PrepareBlock builds them for a whole blocking unit (all
// pages sharing one ambiguous name, the paper's natural blocking scheme).
package simfn

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/index"
	"repro/internal/textsim"
)

// Doc bundles everything the similarity functions consume for one page.
//
// The packed fields (Packed, ConceptPacked and the three ID sets) are the
// allocation-lean forms the pairwise hot loop reads; they are built once by
// Pack (PrepareBlock does this for every document) and are nil on manually
// constructed Docs, in which case every similarity function falls back to
// the map/string representations. A packed Doc is immutable and safe for
// concurrent reads.
type Doc struct {
	// Features is the information-extraction output for the page.
	Features extract.DocumentFeatures
	// TermVector is the TF-IDF weighted word vector over the block corpus.
	TermVector textsim.SparseVector
	// Packed is the interned, sorted form of TermVector with precomputed
	// norm and Pearson statistics (F8-F10).
	Packed *textsim.PackedVector
	// ConceptPacked is the packed form of Features.ConceptVector (F1).
	ConceptPacked *textsim.PackedVector
	// ConceptSet, OrgSet and PersonSet are the deduplicated, sorted
	// interned-ID forms of the F4-F6 entity sets.
	ConceptSet, OrgSet, PersonSet []int32
	// FrequentName and ClosestName are the prepared (pre-normalized,
	// pre-tokenized) forms of the F3 and F7 name features.
	FrequentName, ClosestName textsim.Name
}

// Pack interns the document's term vectors and entity sets through the
// block vocabulary, precomputing everything the packed similarity paths
// read per pair. Documents of one block must be packed against the same
// Vocab, in a fixed order for run-to-run determinism.
func (d *Doc) Pack(vocab *textsim.Vocab) {
	d.Packed = d.TermVector.Pack(vocab)
	d.ConceptPacked = d.Features.ConceptVector.Pack(vocab)
	d.ConceptSet = textsim.InternSet(vocab, d.Features.Concepts)
	d.OrgSet = textsim.InternSet(vocab, d.Features.Organizations)
	d.PersonSet = textsim.InternSet(vocab, d.Features.OtherPersons)
	d.FrequentName = textsim.PrepareName(d.Features.MostFrequentName)
	d.ClosestName = textsim.PrepareName(d.Features.ClosestName)
}

// Block is a prepared blocking unit: the documents of one collection with
// extracted features and block-local TF-IDF statistics. The paper computes
// similarities only within blocks ("documents which are about a person with
// the same name").
type Block struct {
	// Name is the ambiguous query name of the block.
	Name string
	// Docs are the prepared documents, parallel to the collection's Docs.
	Docs []Doc
	// Truth is the ground-truth persona label per document, carried along
	// for training-sample selection and evaluation.
	Truth []int
	// NumPersonas is the ground-truth number of entities.
	NumPersonas int
	// Vocab is the block-local term/entity interning table the packed
	// document forms were built against; custom similarity functions can
	// use it to pack their own features.
	Vocab *textsim.Vocab
}

// PrepareBlock extracts features and builds TF-IDF vectors for every page
// of a collection. A nil extractor selects the shared default built on the
// wordlists. IDF statistics are block-local, mirroring a per-name Lucene
// index.
//
// erlint:ignore non-cancelable compatibility shim; new callers use PrepareBlockCtx
func PrepareBlock(col *corpus.Collection, fe *extract.FeatureExtractor) *Block {
	b, _ := PrepareBlockCtx(context.Background(), col, fe) // background ctx never cancels
	return b
}

// PrepareBlockCtx is PrepareBlock with cancellation: the context is checked
// between documents, so a canceled or timed-out context aborts block
// preparation promptly with ctx.Err(). The returned block is identical to
// PrepareBlock's when the context never fires. Each page is analyzed once;
// the TF index and the feature extractor share that pass.
func PrepareBlockCtx(ctx context.Context, col *corpus.Collection, fe *extract.FeatureExtractor) (*Block, error) {
	if fe == nil {
		fe = extract.DefaultFeatureExtractor()
	}
	ix := index.New(nil)
	b := &Block{
		Name:        col.Name,
		Docs:        make([]Doc, len(col.Docs)),
		Truth:       col.GroundTruth(),
		NumPersonas: col.NumPersonas,
		Vocab:       textsim.NewVocab(),
	}
	for i, d := range col.Docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lower, terms := analysis.Standard.Analyze(d.Text)
		ix.AddTerms(fmt.Sprintf("%s/%d", col.Name, d.ID), terms)
		b.Docs[i].Features = fe.ExtractTokens(lower, terms, d.URL, col.Name)
	}
	for i, v := range ix.AllVectors() {
		b.Docs[i].TermVector = v
		b.Docs[i].Pack(b.Vocab)
	}
	return b, nil
}

// Func is one pairwise similarity function with its Table I metadata.
type Func struct {
	// ID is the paper's function label ("F1" … "F10").
	ID string
	// Feature describes what the function compares.
	Feature string
	// Measure describes the similarity measure used.
	Measure string
	// Compare returns the similarity of two prepared documents in [0, 1].
	Compare func(a, b *Doc) float64
}

// overlapHalf is the saturation constant for the overlap-count functions
// F4-F6: an overlap of two shared entities maps to 0.5.
const overlapHalf = 2

// Registry returns the ten similarity functions in order F1..F10. The
// returned slice is freshly allocated; callers may subset it (the paper's
// I4/I7/I10 experiments use {F4,F5,F7,F9}, {F3,F4,F5,F7,F8,F9,F10} and all
// ten, respectively).
func Registry() []Func {
	return []Func{
		{
			ID: "F1", Feature: "Weighted Concept Vector", Measure: "Cosine Similarity",
			Compare: func(a, b *Doc) float64 {
				if a.ConceptPacked != nil && b.ConceptPacked != nil {
					if a.ConceptPacked.Len() == 0 || b.ConceptPacked.Len() == 0 {
						return 0
					}
					return clamp01(textsim.PackedCosine(a.ConceptPacked, b.ConceptPacked))
				}
				if len(a.Features.ConceptVector) == 0 || len(b.Features.ConceptVector) == 0 {
					return 0
				}
				return clamp01(textsim.Cosine(a.Features.ConceptVector, b.Features.ConceptVector))
			},
		},
		{
			ID: "F2", Feature: "URL of the page", Measure: "String Similarity",
			Compare: func(a, b *Doc) float64 {
				return clamp01(extract.URLSimilarity(a.Features.URL, b.Features.URL))
			},
		},
		{
			ID: "F3", Feature: "Most frequent name on the page", Measure: "String Similarity",
			Compare: func(a, b *Doc) float64 {
				if a.Features.MostFrequentName == "" || b.Features.MostFrequentName == "" {
					return 0
				}
				// Gate on the prepared names themselves: a partially
				// packed Doc (Packed set by hand, names never prepared)
				// must fall back to the string path, not compare two
				// zero-value Names as equal.
				if a.FrequentName.Norm != "" && b.FrequentName.Norm != "" {
					return clamp01(textsim.PreparedNameSimilarity(a.FrequentName, b.FrequentName))
				}
				return clamp01(textsim.NameSimilarity(a.Features.MostFrequentName, b.Features.MostFrequentName))
			},
		},
		{
			ID: "F4", Feature: "Concepts Vector", Measure: "Number of overlapping concepts",
			Compare: func(a, b *Doc) float64 {
				var n int
				if a.ConceptSet != nil && b.ConceptSet != nil {
					n = textsim.IntersectSortedCount(a.ConceptSet, b.ConceptSet)
				} else {
					n = textsim.SetOverlapCount(a.Features.Concepts, b.Features.Concepts)
				}
				return textsim.NormalizedOverlap(n, overlapHalf)
			},
		},
		{
			ID: "F5", Feature: "Organizations Entities on the page", Measure: "Number of overlapping organizations",
			Compare: func(a, b *Doc) float64 {
				var n int
				if a.OrgSet != nil && b.OrgSet != nil {
					n = textsim.IntersectSortedCount(a.OrgSet, b.OrgSet)
				} else {
					n = textsim.SetOverlapCount(a.Features.Organizations, b.Features.Organizations)
				}
				return textsim.NormalizedOverlap(n, overlapHalf)
			},
		},
		{
			ID: "F6", Feature: "Other Person-Names on the page", Measure: "Number of overlapping persons",
			Compare: func(a, b *Doc) float64 {
				var n int
				if a.PersonSet != nil && b.PersonSet != nil {
					n = textsim.IntersectSortedCount(a.PersonSet, b.PersonSet)
				} else {
					n = textsim.SetOverlapCount(a.Features.OtherPersons, b.Features.OtherPersons)
				}
				return textsim.NormalizedOverlap(n, overlapHalf)
			},
		},
		{
			ID: "F7", Feature: "The name closest to the search keyword", Measure: "String Similarity",
			Compare: func(a, b *Doc) float64 {
				if a.Features.ClosestName == "" || b.Features.ClosestName == "" {
					return 0
				}
				if a.ClosestName.Norm != "" && b.ClosestName.Norm != "" {
					return clamp01(textsim.PreparedNameSimilarity(a.ClosestName, b.ClosestName))
				}
				return clamp01(textsim.NameSimilarity(a.Features.ClosestName, b.Features.ClosestName))
			},
		},
		{
			ID: "F8", Feature: "TF-IDF words vector", Measure: "Cosine Similarity",
			Compare: func(a, b *Doc) float64 {
				if a.Packed != nil && b.Packed != nil {
					if a.Packed.Len() == 0 || b.Packed.Len() == 0 {
						return 0
					}
					return clamp01(textsim.PackedCosine(a.Packed, b.Packed))
				}
				if len(a.TermVector) == 0 || len(b.TermVector) == 0 {
					return 0
				}
				return clamp01(textsim.Cosine(a.TermVector, b.TermVector))
			},
		},
		{
			ID: "F9", Feature: "TF-IDF words vector", Measure: "Pearson Correlation similarity",
			Compare: func(a, b *Doc) float64 {
				if a.Packed != nil && b.Packed != nil {
					if a.Packed.Len() == 0 || b.Packed.Len() == 0 {
						return 0
					}
					return clamp01(textsim.PackedPearsonSim(a.Packed, b.Packed))
				}
				if len(a.TermVector) == 0 || len(b.TermVector) == 0 {
					return 0
				}
				return clamp01(textsim.PearsonSim(a.TermVector, b.TermVector))
			},
		},
		{
			ID: "F10", Feature: "TF-IDF words vector", Measure: "Extended Jaccard similarity",
			Compare: func(a, b *Doc) float64 {
				if a.Packed != nil && b.Packed != nil {
					if a.Packed.Len() == 0 || b.Packed.Len() == 0 {
						return 0
					}
					return clamp01(textsim.PackedExtendedJaccard(a.Packed, b.Packed))
				}
				if len(a.TermVector) == 0 || len(b.TermVector) == 0 {
					return 0
				}
				return clamp01(textsim.ExtendedJaccard(a.TermVector, b.TermVector))
			},
		},
	}
}

// ByID returns the registered function with the given ID.
func ByID(id string) (Func, error) {
	for _, f := range Registry() {
		if f.ID == id {
			return f, nil
		}
	}
	return Func{}, fmt.Errorf("simfn: unknown function %q", id)
}

// Subset returns the registered functions with the given IDs, in the given
// order.
func Subset(ids []string) ([]Func, error) {
	out := make([]Func, 0, len(ids))
	for _, id := range ids {
		f, err := ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Paper's function subsets for Table II.
var (
	// SubsetI4 is the paper's I4/C4 set {F4, F5, F7, F9}.
	SubsetI4 = []string{"F4", "F5", "F7", "F9"}
	// SubsetI7 is the paper's I7/C7 set {F3, F4, F5, F7, F8, F9, F10}.
	SubsetI7 = []string{"F3", "F4", "F5", "F7", "F8", "F9", "F10"}
	// SubsetI10 is all ten functions.
	SubsetI10 = []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10"}
)

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
