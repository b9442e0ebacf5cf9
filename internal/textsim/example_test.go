package textsim_test

import (
	"fmt"

	"repro/internal/textsim"
)

func ExampleJaroWinkler() {
	fmt.Printf("%.4f\n", textsim.JaroWinkler("martha", "marhta"))
	// Output: 0.9611
}

func ExampleCosine() {
	a := textsim.SparseVector{"entity": 1.0, "resolution": 2.0}
	b := textsim.SparseVector{"entity": 2.0, "resolution": 4.0}
	fmt.Printf("%.2f\n", textsim.Cosine(a, b))
	// Output: 1.00
}

func ExampleNormalizedOverlap() {
	// Two shared organizations already constitute substantial evidence.
	fmt.Printf("%.2f %.2f %.2f\n",
		textsim.NormalizedOverlap(0, 2),
		textsim.NormalizedOverlap(2, 2),
		textsim.NormalizedOverlap(8, 2))
	// Output: 0.00 0.50 0.80
}
