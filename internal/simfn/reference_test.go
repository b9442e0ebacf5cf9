package simfn

// ComputeMatrixSerial is the single-goroutine reference implementation of
// ComputeMatrix: the definition of a similarity matrix, one Compare per
// document pair, with no knowledge of keys or shared joins. The kernel in
// matrix.go must match it bit for bit.
func ComputeMatrixSerial(b *Block, f Func) *Matrix {
	m := NewMatrix(len(b.Docs))
	for i := range b.Docs {
		for j := i + 1; j < len(b.Docs); j++ {
			m.Set(i, j, f.Compare(&b.Docs[i], &b.Docs[j]))
		}
	}
	return m
}

// ComputeAllSerial is the single-goroutine reference implementation of
// ComputeAllCtx.
func ComputeAllSerial(b *Block, funcs []Func) map[string]*Matrix {
	out := make(map[string]*Matrix, len(funcs))
	for _, f := range funcs {
		out[f.ID] = ComputeMatrixSerial(b, f)
	}
	return out
}
