package textsim

import "math"

// SparseVector is a sparse real-valued feature vector keyed by term. Zero
// entries are simply absent; callers must not store explicit zeros if they
// want Dimensions to reflect the support size.
type SparseVector map[string]float64

// NewSparseVector returns an empty sparse vector.
func NewSparseVector() SparseVector { return make(SparseVector) }

// Add accumulates weight w onto term t, deleting the entry if the result
// becomes exactly zero.
func (v SparseVector) Add(t string, w float64) {
	nw := v[t] + w
	if nw == 0 {
		delete(v, t)
		return
	}
	v[t] = nw
}

// Norm returns the Euclidean (L2) norm of v.
func (v SparseVector) Norm() float64 {
	var s float64
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of v and o.
func (v SparseVector) Dot(o SparseVector) float64 {
	if len(o) < len(v) {
		v, o = o, v
	}
	var s float64
	for t, wv := range v {
		if wo, ok := o[t]; ok {
			s += wv * wo
		}
	}
	return s
}

// Scale multiplies every entry of v by c in place and returns v.
func (v SparseVector) Scale(c float64) SparseVector {
	if c == 0 {
		for t := range v {
			delete(v, t)
		}
		return v
	}
	for t := range v {
		v[t] *= c
	}
	return v
}

// Clone returns an independent copy of v.
func (v SparseVector) Clone() SparseVector {
	out := make(SparseVector, len(v))
	for t, w := range v {
		out[t] = w
	}
	return out
}

// Cosine returns the cosine similarity of a and b in [-1, 1]; for the
// non-negative weight vectors produced by TF-IDF and concept extraction the
// result is in [0, 1]. Two empty vectors are defined to have similarity 1,
// and an empty vector against a non-empty one has similarity 0.
func Cosine(a, b SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// ExtendedJaccard returns the extended Jaccard (Tanimoto) similarity
// a·b / (|a|² + |b|² − a·b), the continuous generalization of the Jaccard
// coefficient used by similarity function F10. Two empty vectors have
// similarity 1.
func ExtendedJaccard(a, b SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	dot := a.Dot(b)
	na, nb := a.Norm(), b.Norm()
	den := na*na + nb*nb - dot
	if den <= 0 {
		return 0
	}
	return dot / den
}

// PearsonSim returns the Pearson correlation of a and b over the union of
// their supports, linearly rescaled from [-1, 1] to [0, 1] so that it fits
// the framework's similarity value space (used by F9). Vectors with zero
// variance over the union support yield 0.5 (no evidence either way),
// except two identical empty vectors which yield 1.
//
// The correlation is computed from sufficient statistics (sums, squared
// sums, dot product and intersection size) rather than materializing the
// union support, since this runs on every document pair of a block.
func PearsonSim(a, b SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, big := a, b
	if len(big) < len(small) {
		small, big = big, small
	}
	var dot float64
	inter := 0
	for t, ws := range small {
		if wb, ok := big[t]; ok {
			dot += ws * wb
			inter++
		}
	}
	var sa, sqa, sb, sqb float64
	for _, w := range a {
		sa += w
		sqa += w * w
	}
	for _, w := range b {
		sb += w
		sqb += w * w
	}
	n := float64(len(a) + len(b) - inter)
	if n == 0 {
		return 1
	}
	// Over the union support U: Σ(x−mx)(y−my) = x·y − SxSy/|U|, etc.
	sxy := dot - sa*sb/n
	sxx := sqa - sa*sa/n
	syy := sqb - sb*sb/n
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
