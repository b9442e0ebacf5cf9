package textsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func vec(pairs ...interface{}) SparseVector {
	v := NewSparseVector()
	for i := 0; i < len(pairs); i += 2 {
		v[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return v
}

func TestSparseVectorAdd(t *testing.T) {
	v := NewSparseVector()
	v.Add("a", 1)
	v.Add("a", 2)
	if v["a"] != 3 {
		t.Errorf("a = %v, want 3", v["a"])
	}
	v.Add("a", -3)
	if _, ok := v["a"]; ok {
		t.Error("entry reaching zero must be deleted")
	}
}

func TestNormDot(t *testing.T) {
	a := vec("x", 3.0, "y", 4.0)
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	b := vec("y", 2.0, "z", 7.0)
	if got := a.Dot(b); math.Abs(got-8) > 1e-12 {
		t.Errorf("Dot = %v, want 8", got)
	}
	if got := b.Dot(a); math.Abs(got-8) > 1e-12 {
		t.Errorf("Dot not symmetric: %v", got)
	}
	if got := NewSparseVector().Norm(); got != 0 {
		t.Errorf("empty Norm = %v", got)
	}
}

func TestScaleClone(t *testing.T) {
	a := vec("x", 2.0)
	c := a.Clone()
	a.Scale(3)
	if a["x"] != 6 {
		t.Errorf("Scale: %v", a["x"])
	}
	if c["x"] != 2 {
		t.Errorf("Clone must be independent: %v", c["x"])
	}
	a.Scale(0)
	if len(a) != 0 {
		t.Error("Scale(0) must empty the vector")
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine(NewSparseVector(), NewSparseVector()); got != 1 {
		t.Errorf("empty/empty = %v, want 1", got)
	}
	if got := Cosine(vec("a", 1.0), NewSparseVector()); got != 0 {
		t.Errorf("nonempty/empty = %v, want 0", got)
	}
	a := vec("a", 1.0, "b", 1.0)
	if got := Cosine(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v, want 1", got)
	}
	// Orthogonal supports.
	if got := Cosine(vec("a", 1.0), vec("b", 1.0)); got != 0 {
		t.Errorf("orthogonal = %v, want 0", got)
	}
	// 45 degrees.
	got := Cosine(vec("a", 1.0), vec("a", 1.0, "b", 1.0))
	if math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Errorf("45° = %v, want %v", got, 1/math.Sqrt2)
	}
	// Scale invariance.
	b := vec("a", 10.0, "b", 10.0)
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale invariance = %v, want 1", got)
	}
}

func ExampleExtendedJaccard() {
	a := SparseVector{"x": 1.0, "y": 1.0, "z": 1.0}
	b := SparseVector{"y": 1.0, "z": 1.0, "w": 1.0}
	// For binary vectors, extended Jaccard equals the set Jaccard.
	fmt.Printf("%.2f\n", ExtendedJaccard(a, b))
	// Output: 0.50
}

func TestExtendedJaccard(t *testing.T) {
	if got := ExtendedJaccard(NewSparseVector(), NewSparseVector()); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	a := vec("a", 1.0, "b", 1.0)
	if got := ExtendedJaccard(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v, want 1", got)
	}
	if got := ExtendedJaccard(vec("a", 1.0), vec("b", 1.0)); got != 0 {
		t.Errorf("orthogonal = %v, want 0", got)
	}
	// For binary vectors extended Jaccard equals set Jaccard.
	x := vec("a", 1.0, "b", 1.0, "c", 1.0)
	y := vec("b", 1.0, "c", 1.0, "d", 1.0)
	if got := ExtendedJaccard(x, y); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("binary vectors = %v, want 0.5 (set Jaccard)", got)
	}
	// Extended Jaccard is NOT scale invariant (unlike cosine).
	if got := ExtendedJaccard(a, a.Clone().Scale(10)); got >= 1 {
		t.Errorf("scaled copy should not be 1: %v", got)
	}
}

func TestPearsonSim(t *testing.T) {
	if got := PearsonSim(NewSparseVector(), NewSparseVector()); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	a := vec("a", 1.0, "b", 2.0, "c", 3.0)
	if got := PearsonSim(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v, want 1", got)
	}
	// Anti-correlated over the union support maps to 0.
	b := vec("a", 3.0, "b", 2.0, "c", 1.0)
	if got := PearsonSim(a, b); math.Abs(got) > 1e-12 {
		t.Errorf("anti-correlated = %v, want 0", got)
	}
	// Constant vector over union support: no variance → 0.5.
	c := vec("a", 2.0, "b", 2.0, "c", 2.0)
	if got := PearsonSim(a, c); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("constant = %v, want 0.5", got)
	}
}

func randomVec(keys []string, weights []float64) SparseVector {
	v := NewSparseVector()
	for i, k := range keys {
		if i < len(weights) {
			w := math.Abs(weights[i])
			if !math.IsNaN(w) && !math.IsInf(w, 0) && w > 0 && w < 1e50 {
				v[k] = w
			}
		}
	}
	return v
}

func TestVectorSimsBoundsAndSymmetryProperty(t *testing.T) {
	sims := map[string]func(a, b SparseVector) float64{
		"cosine":  Cosine,
		"extjacc": ExtendedJaccard,
		"pearson": PearsonSim,
	}
	keyset := []string{"a", "b", "c", "d", "e"}
	for name, sim := range sims {
		f := func(w1, w2 []float64) bool {
			a := randomVec(keyset, w1)
			b := randomVec(keyset, w2)
			s := sim(a, b)
			if s < -1e-12 || s > 1+1e-12 {
				return false
			}
			return math.Abs(s-sim(b, a)) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestIdenticalVectorsScoreOneProperty(t *testing.T) {
	keyset := []string{"a", "b", "c", "d"}
	f := func(w []float64) bool {
		v := randomVec(keyset, w)
		if len(v) == 0 {
			return true
		}
		return math.Abs(Cosine(v, v)-1) < 1e-9 &&
			math.Abs(ExtendedJaccard(v, v)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
