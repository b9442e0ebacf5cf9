package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomVector builds a sparse vector over a shared synthetic vocabulary so
// random pairs have realistic partial overlap.
func randomVector(rng *rand.Rand, support, vocabSize int) SparseVector {
	v := NewSparseVector()
	for len(v) < support {
		t := fmt.Sprintf("term%04d", rng.Intn(vocabSize))
		v[t] = math.Round(rng.NormFloat64()*1000) / 1000
		if v[t] == 0 {
			delete(v, t)
		}
	}
	return v
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := NewVocab()
	v := randomVector(rng, 50, 200)
	p := v.Pack(vocab)

	if p.Len() != len(v) {
		t.Fatalf("packed support %d, map support %d", p.Len(), len(v))
	}
	for i, id := range p.IDs {
		if i > 0 && p.IDs[i-1] >= id {
			t.Fatalf("IDs not strictly ascending at %d: %v >= %v", i, p.IDs[i-1], id)
		}
		term := vocab.Term(id)
		if p.Weights[i] != v[term] {
			t.Errorf("weight of %q: packed %v, map %v", term, p.Weights[i], v[term])
		}
	}
	if math.Abs(p.norm-v.Norm()) > 1e-12 {
		t.Errorf("norm: packed %v, map %v", p.norm, v.Norm())
	}
	// Unpack inverts Pack, weight bits included, and Pack inverts Unpack.
	back := p.Unpack(vocab)
	if len(back) != len(v) {
		t.Fatalf("unpacked support %d, map support %d", len(back), len(v))
	}
	for term, w := range v {
		if got, ok := back[term]; !ok || math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("unpacked weight of %q: %v, map %v", term, got, w)
		}
	}
	if again := back.Pack(vocab); !reflect.DeepEqual(again, p) {
		t.Errorf("Pack(Unpack(p)) = %+v, want %+v", again, p)
	}
}

// TestPackedEquivalence is the satellite equivalence suite: on many random
// vector pairs, every packed measure must match its map-based counterpart
// within 1e-12.
func TestPackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		vocab := NewVocab()
		a := randomVector(rng, 1+rng.Intn(80), 150)
		b := randomVector(rng, 1+rng.Intn(80), 150)
		pa, pb := a.Pack(vocab), b.Pack(vocab)

		checks := []struct {
			name      string
			m, packed float64
		}{
			{"Dot", a.Dot(b), pa.Dot(pb)},
			{"Cosine", Cosine(a, b), PackedCosine(pa, pb)},
			{"Pearson", PearsonSim(a, b), PackedPearsonSim(pa, pb)},
			{"ExtendedJaccard", ExtendedJaccard(a, b), PackedExtendedJaccard(pa, pb)},
		}
		for _, c := range checks {
			if math.Abs(c.m-c.packed) > 1e-12 {
				t.Fatalf("trial %d %s: map %v, packed %v", trial, c.name, c.m, c.packed)
			}
		}
	}
}

func TestPackedEdgeCases(t *testing.T) {
	vocab := NewVocab()
	empty := NewSparseVector().Pack(vocab)
	one := SparseVector{"x": 2}.Pack(vocab)

	if got := PackedCosine(empty, empty); got != 1 {
		t.Errorf("cosine(∅,∅) = %v, want 1", got)
	}
	if got := PackedCosine(empty, one); got != 0 {
		t.Errorf("cosine(∅,x) = %v, want 0", got)
	}
	if got := PackedExtendedJaccard(empty, empty); got != 1 {
		t.Errorf("extjaccard(∅,∅) = %v, want 1", got)
	}
	if got := PackedPearsonSim(empty, empty); got != 1 {
		t.Errorf("pearson(∅,∅) = %v, want 1", got)
	}
	if got := PackedPearsonSim(one, one); got != 0.5 {
		// Single-term vectors have zero variance over the union support.
		t.Errorf("pearson(x,x) = %v, want 0.5", got)
	}
	if got := PackedExtendedJaccard(one, one); got != 1 {
		t.Errorf("extjaccard(x,x) = %v, want 1", got)
	}
	// A nil vector reads as the empty one.
	var none *PackedVector
	if dot, inter := none.DotIntersect(one); none.Len() != 0 || dot != 0 || inter != 0 {
		t.Errorf("nil vector: Len %d, DotIntersect %v, %d; want zeros", none.Len(), dot, inter)
	}
	if dot, inter := one.DotIntersect(none); dot != 0 || inter != 0 {
		t.Errorf("DotIntersect(nil) = %v, %d; want zeros", dot, inter)
	}
	if v := none.Unpack(vocab); len(v) != 0 {
		t.Errorf("nil vector unpacks to %v", v)
	}
}

func TestInternSetAndIntersect(t *testing.T) {
	vocab := NewVocab()
	a := InternSet(vocab, []string{"ibm", "mit", "ibm", "acm"})
	b := InternSet(vocab, []string{"acm", "nasa", "mit"})
	if a == nil || len(a) != 3 {
		t.Fatalf("InternSet dedupe: got %v", a)
	}
	if got, want := IntersectSortedCount(a, b), SetOverlapCount(
		[]string{"ibm", "mit", "ibm", "acm"}, []string{"acm", "nasa", "mit"}); got != want {
		t.Errorf("overlap: packed %d, strings %d", got, want)
	}
	if got := IntersectSortedCount(a, nil); got != 0 {
		t.Errorf("overlap with empty = %d", got)
	}
	if empty := InternSet(vocab, nil); empty == nil || len(empty) != 0 {
		t.Errorf("InternSet(nil) = %v, want non-nil empty", empty)
	}
}

// TestPackDeterministicIDs pins the determinism contract: packing the same
// documents in the same order yields identical vocabularies and ID slices,
// regardless of map iteration order.
func TestPackDeterministicIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := make([]SparseVector, 20)
	for i := range docs {
		docs[i] = randomVector(rng, 30, 100)
	}
	v1, v2 := NewVocab(), NewVocab()
	for _, d := range docs {
		p1, p2 := d.Pack(v1), d.Pack(v2)
		for i := range p1.IDs {
			if p1.IDs[i] != p2.IDs[i] || p1.Weights[i] != p2.Weights[i] {
				t.Fatalf("non-deterministic pack at entry %d", i)
			}
		}
	}
	if v1.Len() != v2.Len() {
		t.Fatalf("vocab sizes differ: %d vs %d", v1.Len(), v2.Len())
	}
}

// benchPair builds a realistic TF-IDF-sized document pair (~400 terms each,
// partial overlap) in both representations.
func benchPair() (am, bm SparseVector, ap, bp *PackedVector, vocab *Vocab) {
	rng := rand.New(rand.NewSource(1))
	vocab = NewVocab()
	am = randomVector(rng, 400, 1200)
	bm = randomVector(rng, 400, 1200)
	ap, bp = am.Pack(vocab), bm.Pack(vocab)
	return
}

var dotSink float64

// BenchmarkDot_Map measures the map substrate's per-pair cost including the
// vector materialization the old pipeline paid whenever a vector was not
// memoized (index.DocVector rebuilt a map per call): hash-map construction
// plus a hashing dot product.
func BenchmarkDot_Map(b *testing.B) {
	am, bm, _, _, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NewSparseVector()
		for t, w := range am {
			v[t] = w
		}
		dotSink += v.Dot(bm)
	}
}

// BenchmarkDot_Packed measures the packed substrate's per-pair cost: the
// packed design moves construction out of the pairwise loop entirely (Pack
// runs once per document at block-preparation time), so the hot path is a
// single allocation-free merge join.
func BenchmarkDot_Packed(b *testing.B) {
	_, _, ap, bp, _ := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dotSink += ap.Dot(bp)
	}
}

// The pre-OfDot bodies of the three packed measures, kept as references:
// each early-returned before joining and joined on its own.
func refPackedCosine(a, b *PackedVector) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	return a.Dot(b) / (a.norm * b.norm)
}

func refPackedExtendedJaccard(a, b *PackedVector) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	dot := a.Dot(b)
	den := a.sumSq + b.sumSq - dot
	if den <= 0 {
		return 0
	}
	return dot / den
}

func refPackedPearsonSim(a, b *PackedVector) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	dot, inter := a.DotIntersect(b)
	n := float64(a.Len() + b.Len() - inter)
	if n == 0 {
		return 1
	}
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

// TestPackedOfDotForms pins the one-join-per-pair refactor: each Packed
// measure, and its OfDot form fed one shared DotIntersect, equals the
// measure's former self-joining body bit for bit — on the random fixtures
// of TestPackedEquivalence and on the edge cases (both empty, one empty,
// zero norm, disjoint supports, identical vectors).
func TestPackedOfDotForms(t *testing.T) {
	type pair struct{ a, b *PackedVector }
	vocab := NewVocab()
	empty := NewSparseVector().Pack(vocab)
	one := SparseVector{"x": 2}.Pack(vocab)
	zero := SparseVector{"x": 0, "y": 0}.Pack(vocab)
	other := SparseVector{"z": 3, "w": 1}.Pack(vocab)
	pairs := []pair{
		{empty, empty}, {empty, one}, {one, empty}, {one, one},
		{zero, zero}, {zero, one}, {one, zero}, {one, other}, {other, other},
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := randomVector(rng, 1+rng.Intn(80), 150)
		b := randomVector(rng, 1+rng.Intn(80), 150)
		pairs = append(pairs, pair{a.Pack(vocab), b.Pack(vocab)})
	}
	measures := []struct {
		name       string
		ref, whole func(a, b *PackedVector) float64
		ofDot      func(a, b *PackedVector, dot float64, inter int) float64
	}{
		{"Cosine", refPackedCosine, PackedCosine, PackedCosineOfDot},
		{"ExtendedJaccard", refPackedExtendedJaccard, PackedExtendedJaccard, PackedExtendedJaccardOfDot},
		{"Pearson", refPackedPearsonSim, PackedPearsonSim, PackedPearsonSimOfDot},
	}
	for i, p := range pairs {
		dot, inter := p.a.DotIntersect(p.b)
		for _, m := range measures {
			want := math.Float64bits(m.ref(p.a, p.b))
			if got := math.Float64bits(m.whole(p.a, p.b)); got != want {
				t.Errorf("pair %d: Packed%s = %x, reference %x", i, m.name, got, want)
			}
			if got := math.Float64bits(m.ofDot(p.a, p.b, dot, inter)); got != want {
				t.Errorf("pair %d: Packed%sOfDot = %x, reference %x", i, m.name, got, want)
			}
		}
	}
}
