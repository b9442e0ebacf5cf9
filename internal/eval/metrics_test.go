package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPerfectClustering(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2}
	truth := []int{5, 5, 9, 9, 7} // same partition, different labels
	r, err := Evaluate(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.Fp, 1) || !almostEqual(r.F, 1) || !almostEqual(r.Rand, 1) {
		t.Errorf("perfect clustering scored %+v", r)
	}
}

func TestPairwiseScoresKnown(t *testing.T) {
	// truth: {0,1} {2,3}; pred: {0,1,2} {3}
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	// Pairs: (0,1) TP; (0,2),(1,2) FP; (2,3) FN; (0,3),(1,3) TN.
	s, err := PairwiseScores(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Precision, 1.0/3.0) {
		t.Errorf("precision = %v, want 1/3", s.Precision)
	}
	if !almostEqual(s.Recall, 0.5) {
		t.Errorf("recall = %v, want 0.5", s.Recall)
	}
	wantF := 2 * (1.0 / 3.0) * 0.5 / (1.0/3.0 + 0.5)
	if !almostEqual(s.F, wantF) {
		t.Errorf("F = %v, want %v", s.F, wantF)
	}
}

func TestPairwiseVacuousCases(t *testing.T) {
	// All singletons predicted, all singletons true: no pairs on either
	// side → P = R = 1.
	s, err := PairwiseScores([]int{0, 1, 2}, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Precision, 1) || !almostEqual(s.Recall, 1) {
		t.Errorf("vacuous scores = %+v", s)
	}
}

func TestPurityKnown(t *testing.T) {
	// pred {0,1,2}: majority class 0 (2 of 3); pred {3}: pure.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	p := directedPurity(pred, truth)
	if !almostEqual(p, 0.75) { // (2 + 1) / 4
		t.Errorf("purity = %v, want 0.75", p)
	}
	ip := directedPurity(truth, pred)
	// truth cluster {0,1} fully inside pred 0 (2); truth {2,3} split 1/1 → 1.
	if !almostEqual(ip, 0.75) {
		t.Errorf("inverse purity = %v, want 0.75", ip)
	}
	fp, _ := FpMeasure(pred, truth)
	if !almostEqual(fp, 0.75) {
		t.Errorf("Fp = %v, want 0.75", fp)
	}
}

func TestPurityExtremes(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	// All singletons: purity 1, inverse purity 0.5.
	singles := []int{0, 1, 2, 3}
	p := directedPurity(singles, truth)
	ip := directedPurity(truth, singles)
	if !almostEqual(p, 1) {
		t.Errorf("singleton purity = %v, want 1", p)
	}
	if !almostEqual(ip, 0.5) {
		t.Errorf("singleton inverse purity = %v, want 0.5", ip)
	}
	// One big cluster: purity 0.5, inverse purity 1.
	big := []int{0, 0, 0, 0}
	p = directedPurity(big, truth)
	ip = directedPurity(truth, big)
	if !almostEqual(p, 0.5) {
		t.Errorf("one-cluster purity = %v, want 0.5", p)
	}
	if !almostEqual(ip, 1) {
		t.Errorf("one-cluster inverse purity = %v, want 1", ip)
	}
}

func TestRandIndexKnown(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 0, 1}
	// 6 pairs; agreements: (0,1) both-same; (0,3),(1,3) both-diff; (2,3)
	// diff-in-pred/same-in-truth disagree; (0,2),(1,2) same-in-pred/diff-
	// in-truth disagree → 4/6... wait recount: (0,3): pred 0 vs 1 diff,
	// truth 0 vs 1 diff → agree. (1,3): same → agree. (2,3): pred diff,
	// truth same → disagree. (0,2),(1,2): pred same, truth diff →
	// disagree ×2. (0,1): agree. Total agree = 3 of 6.
	r, err := RandIndex(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 0.5) {
		t.Errorf("Rand = %v, want 0.5", r)
	}
	// Single document.
	r, _ = RandIndex([]int{0}, []int{3})
	if !almostEqual(r, 1) {
		t.Errorf("single-doc Rand = %v", r)
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := Evaluate([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Error("empty clustering accepted")
	}
	if _, err := PairwiseScores([]int{0}, nil); err == nil {
		t.Error("PairwiseScores mismatch accepted")
	}
	if _, err := RandIndex([]int{1}, []int{1, 2}); err == nil {
		t.Error("RandIndex mismatch accepted")
	}
	if _, err := FpMeasure(nil, nil); err == nil {
		t.Error("Fp empty accepted")
	}
	if _, err := FpMeasure([]int{0}, []int{0, 1}); err == nil {
		t.Error("Fp mismatch accepted")
	}
}

func randomLabels(raw []byte, k int) []int {
	out := make([]int, len(raw))
	for i, b := range raw {
		out[i] = int(b) % k
	}
	return out
}

func TestMetricsBoundedProperty(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return true
		}
		pred := randomLabels(rawA[:n], 5)
		truth := randomLabels(rawB[:n], 5)
		r, err := Evaluate(pred, truth)
		if err != nil {
			return false
		}
		for _, v := range []float64{r.Fp, r.F, r.Rand} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMetricsLabelPermutationInvariantProperty(t *testing.T) {
	// Renaming cluster labels must not change any metric.
	f := func(raw []byte) bool {
		if len(raw) < 2 {
			return true
		}
		pred := randomLabels(raw, 4)
		truth := randomLabels(raw, 3) // deterministic function of raw, fine
		renamed := make([]int, len(pred))
		for i, l := range pred {
			renamed[i] = 100 - l*7
		}
		a, err1 := Evaluate(pred, truth)
		b, err2 := Evaluate(renamed, truth)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.Fp, b.Fp) && almostEqual(a.F, b.F) && almostEqual(a.Rand, b.Rand)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	got := Aggregate([]Result{
		{Fp: 0.8, F: 0.6, Rand: 0.7},
		{Fp: 0.6, F: 0.8, Rand: 0.9},
	})
	if !almostEqual(got.Fp, 0.7) || !almostEqual(got.F, 0.7) || !almostEqual(got.Rand, 0.8) {
		t.Errorf("Aggregate = %+v", got)
	}
	if z := Aggregate(nil); z.Fp != 0 || z.F != 0 || z.Rand != 0 {
		t.Errorf("Aggregate(nil) = %+v", z)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Test Table", "A", "B")
	tb.AddRow("row1", map[string]float64{"A": 0.5, "B": 0.9})
	tb.AddRow("row2", map[string]float64{"A": 0.7})
	if v, ok := tb.Get("row1", "B"); !ok || v != 0.9 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := tb.Get("row2", "B"); ok {
		t.Error("missing cell reported present")
	}
	if _, ok := tb.Get("nope", "A"); ok {
		t.Error("missing row reported present")
	}
	s := tb.String()
	if s == "" || len(tb.RowLabels()) != 2 {
		t.Error("table rendering broken")
	}
	best := tb.ArgBest()
	if best["row1"] != "B" || best["row2"] != "A" {
		t.Errorf("ArgBest = %v", best)
	}
	bestExcl := tb.ArgBest("B")
	if bestExcl["row1"] != "A" {
		t.Errorf("ArgBest with exclusion = %v", bestExcl)
	}
	if cols := tb.Columns(); len(cols) != 2 || cols[0] != "A" {
		t.Errorf("Columns = %v", cols)
	}
}
