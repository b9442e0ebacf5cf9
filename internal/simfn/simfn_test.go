package simfn

import (
	"context"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
)

func testBlock(t *testing.T, seed int64) *Block {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "cohen", NumDocs: 40, NumPersonas: 4,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := PrepareBlockCtx(context.Background(), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// computeAll is ComputeAllCtx under a context that never fires.
func computeAll(tb testing.TB, b *Block, funcs []Func) map[string]*Matrix {
	tb.Helper()
	ms, err := ComputeAllCtx(context.Background(), b, funcs)
	if err != nil {
		tb.Fatal(err)
	}
	return ms
}

// tableIFuncs is Subset(SubsetI10), the whole of Table I.
func tableIFuncs(tb testing.TB) []Func {
	tb.Helper()
	funcs, err := Subset(SubsetI10)
	if err != nil {
		tb.Fatal(err)
	}
	return funcs
}

func TestRegistryMetadata(t *testing.T) {
	funcs := tableIFuncs(t)
	if len(funcs) != 10 {
		t.Fatalf("Table I size = %d, want 10", len(funcs))
	}
	seen := make(map[string]bool)
	for i, f := range funcs {
		wantID := "F" + itoa(i+1)
		if f.ID != wantID {
			t.Errorf("function %d ID = %q, want %q", i, f.ID, wantID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate ID %q", f.ID)
		}
		seen[f.ID] = true
		if f.Compare == nil {
			t.Errorf("%s has nil Compare", f.ID)
		}
		if f.Feature == "" || f.Measure == "" {
			t.Errorf("%s missing metadata", f.ID)
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestByIDAndSubset(t *testing.T) {
	f, err := ByID("F7")
	if err != nil || f.ID != "F7" {
		t.Errorf("ByID(F7) = %v, %v", f.ID, err)
	}
	if _, err := ByID("F11"); err == nil {
		t.Error("ByID(F11) should fail")
	}
	sub, err := Subset(SubsetI4)
	if err != nil || len(sub) != 4 {
		t.Errorf("Subset I4 = %d funcs, %v", len(sub), err)
	}
	if sub[0].ID != "F4" || sub[3].ID != "F9" {
		t.Errorf("subset order wrong: %v, %v", sub[0].ID, sub[3].ID)
	}
	if _, err := Subset([]string{"F1", "nope"}); err == nil {
		t.Error("invalid subset accepted")
	}
	if len(SubsetI7) != 7 || len(SubsetI10) != 10 {
		t.Error("paper subsets sized wrong")
	}
}

// TestSubsetHandsOutCopies pins that Table I, built once and shared by
// every resolver, is read-only to its callers: writing into a slice Subset
// returned changes nothing a later Subset returns.
func TestSubsetHandsOutCopies(t *testing.T) {
	planted := func(a, b *Doc) float64 { return 2 }
	first := tableIFuncs(t)
	for i := range first {
		first[i] = Func{ID: "X", Compare: planted}
	}
	for i, f := range tableIFuncs(t) {
		if f.ID != SubsetI10[i] || f.Feature == "" || f.Compare == nil {
			t.Fatalf("after writes into earlier results, Subset(SubsetI10)[%d] = %q %q", i, f.ID, f.Feature)
		}
		if s := f.Compare(&Doc{}, &Doc{}); s != 0 {
			t.Fatalf("after writes into earlier results, %s scores two empty documents %v, want 0", f.ID, s)
		}
	}
}

func TestAllFunctionsBoundedAndSymmetric(t *testing.T) {
	b := testBlock(t, 42)
	rng := stats.NewRNG(1)
	for _, f := range tableIFuncs(t) {
		for trial := 0; trial < 200; trial++ {
			i, j := rng.Intn(len(b.Docs)), rng.Intn(len(b.Docs))
			s := f.Compare(&b.Docs[i], &b.Docs[j])
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s out of range: %v (docs %d,%d)", f.ID, s, i, j)
			}
			r := f.Compare(&b.Docs[j], &b.Docs[i])
			if math.Abs(s-r) > 1e-9 {
				t.Fatalf("%s asymmetric: %v vs %v", f.ID, s, r)
			}
		}
	}
}

func TestFunctionsCarrySignal(t *testing.T) {
	// Averaged over same-persona vs different-persona pairs, at least 6 of
	// the 10 functions must rank same-persona pairs higher — the premise
	// that similarity functions carry identity signal at all.
	b := testBlock(t, 7)
	signal := 0
	for _, f := range tableIFuncs(t) {
		var sameSum, diffSum float64
		var sameN, diffN int
		for i := 0; i < len(b.Docs); i++ {
			for j := i + 1; j < len(b.Docs); j++ {
				s := f.Compare(&b.Docs[i], &b.Docs[j])
				if b.Truth[i] == b.Truth[j] {
					sameSum += s
					sameN++
				} else {
					diffSum += s
					diffN++
				}
			}
		}
		if sameN == 0 || diffN == 0 {
			t.Fatal("degenerate block")
		}
		if sameSum/float64(sameN) > diffSum/float64(diffN) {
			signal++
		}
	}
	if signal < 6 {
		t.Errorf("only %d/10 functions separate same from different personas", signal)
	}
}

func TestPrepareBlockShape(t *testing.T) {
	b := testBlock(t, 3)
	if len(b.Docs) != 40 || len(b.Truth) != 40 {
		t.Fatalf("block shape: %d docs, %d labels", len(b.Docs), len(b.Truth))
	}
	if b.Name != "cohen" || b.NumPersonas != 4 {
		t.Errorf("metadata: %q, %d", b.Name, b.NumPersonas)
	}
	nonEmptyVectors := 0
	for i, d := range b.Docs {
		if d.Packed == nil || d.ConceptPacked == nil || d.ConceptSet == nil || d.OrgSet == nil || d.PersonSet == nil {
			t.Fatalf("doc %d has a nil packed form: %+v", i, d)
		}
		if d.ConceptPacked.Len() != len(d.Features.ConceptVector) {
			t.Errorf("doc %d: %d packed concepts, %d in Features", i, d.ConceptPacked.Len(), len(d.Features.ConceptVector))
		}
		if d.Packed.Len() > 0 {
			nonEmptyVectors++
		}
	}
	if nonEmptyVectors < 35 {
		t.Errorf("only %d/40 docs have term vectors", nonEmptyVectors)
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(4)
	if m.Len() != 4 || len(m.Values()) != 6 {
		t.Fatalf("matrix shape: %d, %d", m.Len(), len(m.Values()))
	}
	m.Set(1, 3, 0.7)
	if m.At(1, 3) != 0.7 || m.At(3, 1) != 0.7 {
		t.Error("symmetric access broken")
	}
	if m.At(2, 2) != 1 {
		t.Error("diagonal should be 1")
	}
	m.Set(2, 2, 0.5) // must be ignored
	if m.At(2, 2) != 1 {
		t.Error("diagonal must stay 1")
	}
	// All condensed positions distinct.
	m2 := NewMatrix(5)
	v := 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			v += 0.1
			m2.Set(i, j, v)
		}
	}
	v = 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			v += 0.1
			if math.Abs(m2.At(i, j)-v) > 1e-12 {
				t.Fatalf("condensed index collision at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewMatrixNegative(t *testing.T) {
	m := NewMatrix(-3)
	if m.Len() != 0 || len(m.Values()) != 0 {
		t.Error("negative size should clamp to empty")
	}
}

func TestComputeMatrixMatchesDirect(t *testing.T) {
	b := testBlock(t, 5)
	f, _ := ByID("F8")
	m := ComputeMatrix(b, f)
	if m.Len() != len(b.Docs) {
		t.Fatal("matrix size mismatch")
	}
	for trial := 0; trial < 50; trial++ {
		i, j := trial%len(b.Docs), (trial*7+3)%len(b.Docs)
		if i == j {
			continue
		}
		want := f.Compare(&b.Docs[i], &b.Docs[j])
		if math.Abs(m.At(i, j)-want) > 1e-12 {
			t.Fatalf("matrix value differs at (%d,%d)", i, j)
		}
	}
}

func TestComputeAll(t *testing.T) {
	b := testBlock(t, 9)
	funcs, _ := Subset(SubsetI4)
	ms := computeAll(t, b, funcs)
	if len(ms) != 4 {
		t.Fatalf("ComputeAllCtx returned %d matrices", len(ms))
	}
	for _, id := range SubsetI4 {
		if ms[id] == nil {
			t.Errorf("missing matrix for %s", id)
		}
	}
}

func TestMatrixString(t *testing.T) {
	small := NewMatrix(2)
	small.Set(0, 1, 0.5)
	if s := small.String(); s == "" {
		t.Error("empty String for small matrix")
	}
	big := NewMatrix(50)
	if s := big.String(); s != "Matrix(50×50)" {
		t.Errorf("big matrix String = %q", s)
	}
}
