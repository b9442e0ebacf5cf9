package textsim_test

import (
	"fmt"

	"repro/internal/textsim"
)

func ExampleJaroWinkler() {
	fmt.Printf("%.4f\n", textsim.JaroWinkler("martha", "marhta"))
	// Output: 0.9611
}

func ExampleNameSimilarity() {
	// Robust to token order and punctuation.
	fmt.Printf("%.2f\n", textsim.NameSimilarity("Smith, John", "john smith"))
	// Output: 1.00
}

func ExampleCosine() {
	a := textsim.SparseVector{"entity": 1.0, "resolution": 2.0}
	b := textsim.SparseVector{"entity": 2.0, "resolution": 4.0}
	fmt.Printf("%.2f\n", textsim.Cosine(a, b))
	// Output: 1.00
}

func ExampleExtendedJaccard() {
	a := textsim.SparseVector{"x": 1.0, "y": 1.0, "z": 1.0}
	b := textsim.SparseVector{"y": 1.0, "z": 1.0, "w": 1.0}
	// For binary vectors, extended Jaccard equals the set Jaccard.
	fmt.Printf("%.2f\n", textsim.ExtendedJaccard(a, b))
	// Output: 0.50
}

func ExampleNormalizedOverlap() {
	// Two shared organizations already constitute substantial evidence.
	fmt.Printf("%.2f %.2f %.2f\n",
		textsim.NormalizedOverlap(0, 2),
		textsim.NormalizedOverlap(2, 2),
		textsim.NormalizedOverlap(8, 2))
	// Output: 0.00 0.50 0.80
}
