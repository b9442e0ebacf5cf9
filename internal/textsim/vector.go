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
