package eval_test

import (
	"fmt"

	"repro/internal/eval"
)

func ExampleEvaluate() {
	truth := []int{0, 0, 1, 1} // two real persons, two pages each
	pred := []int{0, 0, 0, 1}  // one page of person 1 wrongly merged
	r, _ := eval.Evaluate(pred, truth)
	fmt.Printf("Fp=%.2f F=%.2f Rand=%.2f\n", r.Fp, r.F, r.Rand)
	// Output: Fp=0.75 F=0.40 Rand=0.50
}

func ExampleFpMeasure() {
	truth := []int{0, 0, 1, 1}
	perfect := []int{5, 5, 9, 9} // label names do not matter
	fp, _ := eval.FpMeasure(perfect, truth)
	fmt.Printf("%.2f\n", fp)
	// Output: 1.00
}
