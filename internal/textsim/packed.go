package textsim

import (
	"math"
	"slices"
)

// Vocab interns strings (terms, entity names) into dense int32 IDs for one
// block. IDs are assigned in first-intern order, so building a vocabulary
// by walking documents in a fixed order yields the same IDs on every run —
// the foundation of the pipeline's run-to-run determinism. A Vocab is not
// safe for concurrent mutation; concurrent lookups after the last ID call
// are safe.
type Vocab struct {
	ids   map[string]int32
	terms []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int32)}
}

// Reset empties the vocabulary for the next block, keeping its memory: IDs
// start again from zero, and every ID handed out before is void.
func (v *Vocab) Reset() {
	clear(v.ids)
	v.terms = v.terms[:0]
}

// ID returns the ID of term, interning it if unseen.
func (v *Vocab) ID(term string) int32 {
	if id, ok := v.ids[term]; ok {
		return id
	}
	id := int32(len(v.terms))
	v.ids[term] = id
	v.terms = append(v.terms, term)
	return id
}

// Term returns the string interned as id.
func (v *Vocab) Term(id int32) string { return v.terms[id] }

// Len returns the number of interned strings.
func (v *Vocab) Len() int { return len(v.terms) }

// PackedVector is the allocation-lean form of a SparseVector: term IDs
// interned through a block Vocab, sorted ascending, with weights in a
// parallel slice. The L2 norm and the Pearson sufficient statistics
// (Σw, Σw²) are computed once at pack time, so the pairwise similarity
// loop touches only the two ID/weight arrays with a branch-predictable
// merge join — no hashing, no allocation. A PackedVector is immutable
// after Pack and safe for concurrent reads. A nil *PackedVector reads as the
// empty vector: Len, DotIntersect and Unpack accept one.
//
// erlint:immutable — packed vectors are shared across scorer goroutines;
// mutating one corrupts every similarity computed from it.
type PackedVector struct {
	// IDs are the interned term IDs in ascending order.
	IDs []int32
	// Weights are the term weights, parallel to IDs.
	Weights []float64

	norm  float64 // L2 norm
	sum   float64 // Σw
	sumSq float64 // Σw²
}

// Pack converts v into its packed form, interning every term through vocab.
// Terms are interned in lexicographic order so vocabularies built from the
// same documents in the same order are identical across runs, making the
// merge-join summation order (and therefore every downstream similarity
// value) deterministic — unlike map iteration, which reorders float
// additions on every run.
func (v SparseVector) Pack(vocab *Vocab) *PackedVector {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	slices.Sort(terms)

	p := &PackedVector{
		IDs:     make([]int32, len(terms)),
		Weights: make([]float64, len(terms)),
	}
	// Vocab ID<<32 | lexicographic position: sorted, the keys list the
	// terms in ID order.
	keys, ws := make([]uint64, len(terms)), make([]float64, len(terms))
	for i, t := range terms {
		w := v[t]
		keys[i], ws[i] = uint64(vocab.ID(t))<<32|uint64(i), w
		p.sum += w
		p.sumSq += w * w
	}
	slices.Sort(keys)
	for i, key := range keys {
		p.IDs[i], p.Weights[i] = int32(key>>32), ws[uint32(key)]
	}
	p.norm = math.Sqrt(p.sumSq)
	return p
}

// Unpack is the inverse of Pack: the map form of p, its terms read back
// from the vocab p was packed against.
func (p *PackedVector) Unpack(vocab *Vocab) SparseVector {
	v := make(SparseVector, p.Len())
	for i := 0; i < p.Len(); i++ {
		v[vocab.Term(p.IDs[i])] = p.Weights[i]
	}
	return v
}

// PackedWithSums assembles a PackedVector from interned term IDs (ascending,
// deduplicated) with parallel weights, and from Σw and Σw² as the caller
// accumulated them. Float addition is not associative, so the caller owns
// the order: a block preparation sums in lexicographic term order, the
// order Pack sums in, while its IDs ascend in another.
func PackedWithSums(ids []int32, weights []float64, sum, sumSq float64) *PackedVector {
	return &PackedVector{IDs: ids, Weights: weights, norm: math.Sqrt(sumSq), sum: sum, sumSq: sumSq}
}

// Len returns the support size (number of non-zero entries).
func (p *PackedVector) Len() int {
	if p == nil {
		return 0
	}
	return len(p.IDs)
}

// DotIntersect returns the inner product and the intersection size in one
// merge-join pass — everything the three similarity measures below need
// beyond the pack-time statistics, so a caller evaluating several measures
// on one pair of vectors joins once and feeds the result to the OfDot forms.
func (p *PackedVector) DotIntersect(o *PackedVector) (float64, int) {
	if p == nil || o == nil {
		return 0, 0
	}
	var dot float64
	inter := 0
	i, j := 0, 0
	for i < len(p.IDs) && j < len(o.IDs) {
		a, b := p.IDs[i], o.IDs[j]
		switch {
		case a == b:
			dot += p.Weights[i] * o.Weights[j]
			inter++
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return dot, inter
}

// PackedCosine is Cosine on packed vectors: the cosine similarity with the
// same edge-case conventions (two empty vectors are identical; a zero-norm
// vector against anything else scores 0).
func PackedCosine(a, b *PackedVector) float64 {
	dot, inter := a.DotIntersect(b)
	return PackedCosineOfDot(a, b, dot, inter)
}

// PackedCosineOfDot is PackedCosine given a.DotIntersect(b). The three
// OfDot forms share one signature so a caller can hold them as values;
// cosine ignores the intersection size.
func PackedCosineOfDot(a, b *PackedVector, dot float64, _ int) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	return dot / (a.norm * b.norm)
}

// PackedExtendedJaccardOfDot is ExtendedJaccard on packed vectors, given
// a.DotIntersect(b); it ignores the intersection size.
func PackedExtendedJaccardOfDot(a, b *PackedVector, dot float64, _ int) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	den := a.sumSq + b.sumSq - dot
	if den <= 0 {
		return 0
	}
	return dot / den
}

// PackedPearsonSimOfDot is PearsonSim on packed vectors, given
// a.DotIntersect(b). The per-vector sums and squared sums are read from the
// pack-time statistics instead of being recomputed per pair, turning the map
// version's O(|a|+|b|) tail work into O(1) on top of the shared merge join.
func PackedPearsonSimOfDot(a, b *PackedVector, dot float64, inter int) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	n := float64(a.Len() + b.Len() - inter)
	if n == 0 {
		return 1
	}
	// Over the union support U: Σ(x−mx)(y−my) = x·y − SxSy/|U|, etc.
	sxy := dot - a.sum*b.sum/n
	sxx := a.sumSq - a.sum*a.sum/n
	syy := b.sumSq - b.sum*b.sum/n
	if sxx <= 1e-15 || syy <= 1e-15 {
		return 0.5
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return (r + 1) / 2
}

// InternSet interns a string slice as a deduplicated, ascending-sorted ID
// set — the packed form of the entity sets the overlap-count functions
// (F4-F6) compare.
func InternSet(vocab *Vocab, items []string) []int32 {
	out := make([]int32, 0, len(items))
	for _, s := range items {
		out = append(out, vocab.ID(s))
	}
	slices.Sort(out)
	// Dedupe in place; SetOverlapCount semantics treat the slices as sets.
	return slices.Compact(out)
}

// IntersectSortedCount returns |A∩B| of two ascending, deduplicated ID
// sets via a merge join — the packed counterpart of SetOverlapCount. A nil
// set is the empty set.
func IntersectSortedCount(a, b []int32) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
