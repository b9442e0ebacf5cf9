package simfn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/textsim"
)

// Matrix is a symmetric pairwise similarity matrix over a block, stored as
// the strict upper triangle in row-major order. The diagonal is implicitly
// 1 (a document is identical to itself).
type Matrix struct {
	n    int
	vals []float64
}

// NewMatrix allocates an n×n symmetric matrix with zero off-diagonals.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		n = 0
	}
	return &Matrix{n: n, vals: make([]float64, n*(n-1)/2)}
}

// Len returns the matrix dimension (number of documents).
func (m *Matrix) Len() int { return m.n }

// Pairs returns the number of stored pairs n·(n−1)/2.
func (m *Matrix) Pairs() int { return len(m.vals) }

// idx maps (i, j), i < j, to the condensed index.
func (m *Matrix) idx(i, j int) int {
	// Row i starts after sum_{r<i} (n-1-r) entries.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// At returns the similarity of documents i and j. At(i, i) is 1.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 1
	}
	if i > j {
		i, j = j, i
	}
	return m.vals[m.idx(i, j)]
}

// Set stores the similarity of documents i and j (i ≠ j).
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	m.vals[m.idx(i, j)] = v
}

// Values returns the condensed upper triangle; the slice is shared with
// the matrix and must not be modified.
func (m *Matrix) Values() []float64 { return m.vals }

// parallelMinPairs is the total pair count below which the worker pool is
// not worth its startup cost and computation stays on the calling
// goroutine. Parallel and serial paths produce bit-identical matrices, so
// the cutoff is a pure performance knob.
const parallelMinPairs = 2048

// ComputeMatrix evaluates the similarity function on every pair of
// documents in the block, using all available cores for large blocks. Cell
// (i, j), i < j, holds exactly f.Compare(d_i, d_j) whatever the scheduling:
// every cell is a pure function of its document pair and is written exactly
// once, by exactly one worker.
func ComputeMatrix(b *Block, f Func) *Matrix {
	return computeMatrices(b, []Func{f}, nil)[0]
}

// ComputeAllCtx evaluates every function on the block and returns the
// matrices keyed by function ID. All rows are computed by one bounded
// worker pool, each row across every function, so a single call saturates
// the machine even when individual matrices are small. Every cell is
// bit-identical to calling the function's Compare on that document pair.
// Every worker checks the context between rows, so a canceled or timed-out
// context aborts the in-flight computation promptly and returns ctx.Err().
func ComputeAllCtx(ctx context.Context, b *Block, funcs []Func) (map[string]*Matrix, error) {
	ms := computeMatrices(b, funcs, ctx.Done())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return byFuncID(funcs, ms), nil
}

func byFuncID(funcs []Func, ms []*Matrix) map[string]*Matrix {
	out := make(map[string]*Matrix, len(funcs))
	for i, f := range funcs {
		out[f.ID] = ms[i]
	}
	return out
}

// extraWorkerSlots bounds the total number of *extra* worker goroutines
// across all concurrent matrix computations in the process, so nested
// parallelism (PrepareAllCtx over blocks × ComputeAllCtx within a block) adds up
// linearly instead of multiplying into GOMAXPROCS² runnable CPU-bound
// goroutines. The calling goroutine always computes, so every call makes
// progress at least at serial speed even when no slot is free. The floor
// of 3 extra slots keeps the concurrent paths exercised (and race-checked)
// on single-core machines.
var extraWorkerSlots = sync.OnceValue(func() chan struct{} {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 3 {
		n = 3
	}
	return make(chan struct{}, n)
})

// computeMatrices fills one matrix per function over a shared worker pool.
// The unit of work is one matrix row across all functions: workers claim
// rows from an atomic counter (dynamic load balancing — early rows of the
// condensed triangle are longest) and write into disjoint sub-slices of the
// matrices' backing arrays, so no synchronization of the values themselves
// is needed. A non-nil done channel makes workers stop claiming rows once
// it closes; the caller is then responsible for discarding the partial
// matrices.
//
// erlint:ignore cancellation arrives through the done channel, plumbed from ctx.Done() by the Ctx entry points
func computeMatrices(b *Block, funcs []Func, done <-chan struct{}) []*Matrix {
	n := len(b.Docs)
	ms := make([]*Matrix, len(funcs))
	for i := range funcs {
		ms[i] = NewMatrix(n)
	}
	if n < 2 || len(funcs) == 0 {
		return ms
	}

	// Row n-1 has no upper-triangle entries.
	k := newKernel(b.Docs, funcs, ms)
	rows := int64(n - 1)
	var next atomic.Int64
	run := func() {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			row := next.Add(1) - 1
			if row >= rows {
				return
			}
			k.fillRow(int(row))
		}
	}

	workers := runtime.GOMAXPROCS(0)
	totalPairs := len(funcs) * n * (n - 1) / 2
	if workers > 1 && totalPairs >= parallelMinPairs {
		slots := extraWorkerSlots()
		var wg sync.WaitGroup
	spawn:
		for w := 0; w < workers-1 && int64(w) < rows-1; w++ {
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() {
						<-slots
						wg.Done()
					}()
					run()
				}()
			default:
				// Every slot is busy in another computation; this
				// call proceeds on the calling goroutine alone.
				break spawn
			}
		}
		defer wg.Wait()
	}
	run()
	return ms
}

// kernel is the per-call state of one computeMatrices: what fillRow needs
// to evaluate a row of every function while computing each distinct value
// once. Nothing in it outlives the call.
type kernel struct {
	docs  []Doc
	funcs []Func
	ms    []*Matrix
	// memos is parallel to funcs: non-nil for a keyed function whose keys
	// repeat enough in this block for a table to save evaluations.
	memos []*pairMemo
	// joined lists the functions that are a measure of two packed vectors'
	// merge join, with vecs[q][d] the vector joined[q] reads from document
	// d; they are evaluated pair by pair so that functions reading the same
	// vectors (F8-F10) share one join.
	joined []int
	vecs   [][]*textsim.PackedVector
}

func newKernel(docs []Doc, funcs []Func, ms []*Matrix) *kernel {
	k := &kernel{docs: docs, funcs: funcs, ms: ms, memos: make([]*pairMemo, len(funcs))}
	for fi, f := range funcs {
		switch {
		case f.join != nil:
			vecs := make([]*textsim.PackedVector, len(docs))
			for d := range docs {
				vecs[d] = f.join.vec(&docs[d])
			}
			k.joined = append(k.joined, fi)
			k.vecs = append(k.vecs, vecs)
		case f.Key != nil:
			k.memos[fi] = newPairMemo(docs, f.Key)
		}
	}
	return k
}

// pairMemo memoises a keyed function per ordered pair of distinct keys
// within one call. class[d] is the per-call ID of document d's key, and
// cell class[i]*k+class[j] holds the complemented IEEE bits of
// Compare(d_i, d_j), so the zero value means "not computed yet" (a Compare
// returning the all-ones NaN is simply recomputed every time). Workers
// racing on one cell compute identical bits, so plain atomic loads and
// stores suffice.
type pairMemo struct {
	class []int32
	k     int
	cells []atomic.Uint64
}

// newPairMemo interns the documents' keys and returns nil when the k keys
// span at least as many ordered pairs as the block has document pairs: the
// table then has nothing to save, so blocks of mostly distinct keys take
// the plain path. This also bounds the table to the size of one matrix.
func newPairMemo(docs []Doc, key func(*Doc) string) *pairMemo {
	ids := make(map[string]int32)
	class := make([]int32, len(docs))
	for d := range docs {
		s := key(&docs[d])
		id, ok := ids[s]
		if !ok {
			id = int32(len(ids))
			ids[s] = id
		}
		class[d] = id
	}
	k, n := len(ids), len(docs)
	if k*(k-1) >= n*(n-1)/2 {
		return nil
	}
	return &pairMemo{class: class, k: k, cells: make([]atomic.Uint64, k*k)}
}

// fillRow computes row i of the condensed upper triangle of every matrix:
// the cells (i, i+1) … (i, n−1), a contiguous slice of each backing array.
// This is the only place that knows a function may be keyed or joined;
// whichever way a cell is reached it holds the bits of Compare(d_i, d_j).
func (k *kernel) fillRow(i int) {
	n := len(k.docs)
	di := &k.docs[i]
	base := k.ms[0].idx(i, i+1)
	for fi := range k.funcs {
		f := &k.funcs[fi]
		if f.join != nil {
			continue
		}
		row := k.ms[fi].vals[base : base+n-1-i]
		memo := k.memos[fi]
		if memo == nil {
			for j := i + 1; j < n; j++ {
				row[j-i-1] = f.Compare(di, &k.docs[j])
			}
			continue
		}
		ci := memo.class[i]
		cells := memo.cells[int(ci)*memo.k : (int(ci)+1)*memo.k]
		for j := i + 1; j < n; j++ {
			cj := memo.class[j]
			if cj == ci {
				// Same key: Compare may read the whole documents.
				row[j-i-1] = f.Compare(di, &k.docs[j])
				continue
			}
			bits := ^cells[cj].Load()
			if bits == ^uint64(0) {
				bits = math.Float64bits(f.Compare(di, &k.docs[j]))
				cells[cj].Store(^bits)
			}
			row[j-i-1] = math.Float64frombits(bits)
		}
	}
	if len(k.joined) == 0 {
		return
	}
	for j := i + 1; j < n; j++ {
		var la, lb *textsim.PackedVector
		var dot float64
		var inter int
		for q, fi := range k.joined {
			va, vb := k.vecs[q][i], k.vecs[q][j]
			if va != la || vb != lb {
				dot, inter = va.DotIntersect(vb)
				la, lb = va, vb
			}
			k.ms[fi].vals[base+j-i-1] = k.funcs[fi].join.value(va, vb, dot, inter)
		}
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.n > 12 {
		return fmt.Sprintf("Matrix(%d×%d)", m.n, m.n)
	}
	var sb strings.Builder
	sb.Grow(m.n * (m.n*6 + 1))
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			fmt.Fprintf(&sb, "%5.2f ", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
