package simfn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// Values returns the condensed upper triangle — row 0's cells (0, 1) …
// (0, n−1), then row 1's, and so on — so a caller can scan it one row slice
// at a time. The slice is shared with the matrix and must not be modified.
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
		// The worker's scatter array, all zero between rows, and its
		// match list.
		slot, hits := make([]int32, k.slots), make([]int32, k.longest)
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
			k.fillRow(int(row), slot, hits)
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
	// keys is parallel to funcs: non-nil for a keyed function.
	keys []*pairMemo
	// sets are the packed-vector sets the joined functions read, each with
	// the functions that read it: F1 reads the concept vectors, and F8-F10
	// share the term vectors and so one join per pair.
	sets []vectorSet
	// slots is the length of a worker's scatter array, one past the largest
	// ID of any vector in sets, and longest the length of its match list,
	// that of the longest vector.
	slots, longest int
	// tokens is the token-pair table of the name functions, nil when there
	// is none; toks[fi][d] lists the tokens of name function fi's name of
	// document d as IDs into it.
	tokens *tokenTable
	toks   [][][]int32
}

// vectorSet is one packed vector per document and the joined functions
// that read those vectors.
type vectorSet struct {
	vecs  []*textsim.PackedVector
	funcs []int
}

func newKernel(docs []Doc, funcs []Func, ms []*Matrix) *kernel {
	k := &kernel{docs: docs, funcs: funcs, ms: ms, keys: make([]*pairMemo, len(funcs))}
	for fi, f := range funcs {
		switch {
		case f.join != nil:
			k.addJoined(fi)
		case f.Key != nil:
			k.keys[fi] = newPairMemo(docs, f.Key)
		}
	}
	k.tokens, k.toks = newTokenTable(docs, funcs)
	return k
}

// addJoined files joined function fi under the vector set it reads, a new
// one unless an earlier function reads the very same vectors.
func (k *kernel) addJoined(fi int) {
	vecs := make([]*textsim.PackedVector, len(k.docs))
	for d := range k.docs {
		v := k.funcs[fi].join.vec(&k.docs[d])
		if l := v.Len(); l > 0 {
			k.slots = max(k.slots, int(v.IDs[l-1])+1)
			k.longest = max(k.longest, l)
		}
		vecs[d] = v
	}
	for s := range k.sets {
		if slices.Equal(k.sets[s].vecs, vecs) {
			k.sets[s].funcs = append(k.sets[s].funcs, fi)
			return
		}
	}
	k.sets = append(k.sets, vectorSet{vecs: vecs, funcs: []int{fi}})
}

// pairMemo interns a keyed function's keys for one call: class[d] is the
// per-call ID of document d's key, and empty the ID of the empty key (-1
// when no document has it). When the keys repeat enough for a table to save
// evaluations, cell class[i]*k+class[j] holds the complemented IEEE bits of
// the function's value on (d_i, d_j), so the zero value means "not computed
// yet" (a value whose bits are all ones, a NaN, is simply recomputed every
// time). Workers racing on one cell compute identical bits, so plain atomic
// loads and stores suffice.
type pairMemo struct {
	class []int32
	empty int32
	k     int
	cells []atomic.Uint64
}

// newPairMemo interns the documents' keys. It leaves the table out when the
// k keys span at least as many ordered pairs as the block has document
// pairs: it would then have nothing to save, so blocks of mostly distinct
// keys evaluate every pair. This also bounds the table to the size of one
// matrix.
func newPairMemo(docs []Doc, key func(*Doc) string) *pairMemo {
	ids := make(map[string]int32)
	m := &pairMemo{class: make([]int32, len(docs)), empty: -1}
	for d := range docs {
		s := key(&docs[d])
		id, ok := ids[s]
		if !ok {
			id = int32(len(ids))
			ids[s] = id
		}
		m.class[d] = id
	}
	if id, ok := ids[""]; ok {
		m.empty = id
	}
	m.k = len(ids)
	if n := len(docs); m.k*(m.k-1) < n*(n-1)/2 {
		m.cells = make([]atomic.Uint64, m.k*m.k)
	}
	return m
}

// tokenTable memoises textsim.JaroWinkler per ordered pair of the distinct
// name tokens of one call, as pairMemo does per ordered key pair: cell
// x*len(tokens)+y holds the complemented bits of JaroWinkler(tokens[x],
// tokens[y]). Every name function of the call shares it.
type tokenTable struct {
	tokens []string
	cells  []atomic.Uint64
	// sim is jaroWinkler as a value, bound once per call.
	sim func(x, y int32) float64
}

// newTokenTable interns the tokens of every name function's names. It
// returns nil when there are no tokens, or when the T distinct tokens span
// at least as many ordered pairs (T²) as the block has document pairs, as
// newPairMemo decides for keys.
func newTokenTable(docs []Doc, funcs []Func) (*tokenTable, [][][]int32) {
	t := &tokenTable{}
	ids := make(map[string]int32)
	toks := make([][][]int32, len(funcs))
	var flat []int32
	for fi, f := range funcs {
		if f.name == nil {
			continue
		}
		toks[fi] = make([][]int32, len(docs))
		for d := range docs {
			start := len(flat)
			for _, tok := range f.name(&docs[d]).Tokens {
				id, ok := ids[tok]
				if !ok {
					id = int32(len(t.tokens))
					ids[tok] = id
					t.tokens = append(t.tokens, tok)
				}
				flat = append(flat, id)
			}
			// Earlier documents keep the backing array they were cut from
			// when append moves flat.
			toks[fi][d] = flat[start:len(flat):len(flat)]
		}
	}
	n, tn := len(docs), len(t.tokens)
	if tn == 0 || tn*tn >= n*(n-1)/2 {
		return nil, nil
	}
	t.cells = make([]atomic.Uint64, tn*tn)
	t.sim = t.jaroWinkler
	return t, toks
}

func (t *tokenTable) jaroWinkler(x, y int32) float64 {
	cell := &t.cells[int(x)*len(t.tokens)+int(y)]
	bits := ^cell.Load()
	if bits == ^uint64(0) {
		bits = math.Float64bits(textsim.JaroWinkler(t.tokens[x], t.tokens[y]))
		cell.Store(^bits)
	}
	return math.Float64frombits(bits)
}

// fillRow computes row i of the condensed upper triangle of every matrix:
// the cells (i, i+1) … (i, n−1), a contiguous slice of each backing array.
// This is the only place that knows a function may be keyed, named or
// joined; whichever way a cell is reached it holds the bits of
// Compare(d_i, d_j). slot and hits are the calling worker's scratch for
// joinRow.
func (k *kernel) fillRow(i int, slot, hits []int32) {
	n := len(k.docs)
	di := &k.docs[i]
	base := k.ms[0].idx(i, i+1)
	for fi := range k.funcs {
		f := &k.funcs[fi]
		if f.join != nil {
			continue
		}
		row := k.ms[fi].vals[base : base+n-1-i]
		keys := k.keys[fi]
		if keys == nil {
			for j := i + 1; j < n; j++ {
				row[j-i-1] = f.Compare(di, &k.docs[j])
			}
			continue
		}
		ci := keys.class[i]
		var cells []atomic.Uint64
		if keys.cells != nil {
			cells = keys.cells[int(ci)*keys.k : (int(ci)+1)*keys.k]
		}
		for j := i + 1; j < n; j++ {
			cj := keys.class[j]
			switch {
			case cj == ci:
				// Same key: Compare may read the whole documents.
				row[j-i-1] = f.Compare(di, &k.docs[j])
			case cells != nil:
				bits := ^cells[cj].Load()
				if bits == ^uint64(0) {
					bits = math.Float64bits(k.distinctKeys(fi, i, j))
					cells[cj].Store(^bits)
				}
				row[j-i-1] = math.Float64frombits(bits)
			default:
				row[j-i-1] = k.distinctKeys(fi, i, j)
			}
		}
	}
	for s := range k.sets {
		k.joinRow(i, base, &k.sets[s], slot, hits)
	}
}

// distinctKeys evaluates keyed function fi on documents i and j, whose keys
// differ: through the token table for a name function whose two names are
// non-empty, by Compare otherwise.
func (k *kernel) distinctKeys(fi, i, j int) float64 {
	f, keys := &k.funcs[fi], k.keys[fi]
	di, dj := &k.docs[i], &k.docs[j]
	if f.name == nil || k.tokens == nil || keys.class[i] == keys.empty || keys.class[j] == keys.empty {
		return f.Compare(di, dj)
	}
	return clamp01(textsim.NameSimilarityOf(*f.name(di), *f.name(dj), k.toks[fi][i], k.toks[fi][j], k.tokens.sim))
}

// joinRow fills row i of every function that reads vector set s. d_i's
// vector is scattered once into slot — each entry's position plus one, at
// its ID — and every later document's vector is walked in ascending ID
// order against it. The matched products are the merge join's, added in
// the same ascending-ID order, so dot and inter have the bits
// DotIntersect gives them. The walk first only lists the positions that
// match (matches), and the products are summed in a second loop. The row's
// IDs are cleared from slot at the end.
func (k *kernel) joinRow(i, base int, s *vectorSet, slot, hits []int32) {
	vi := s.vecs[i]
	scatter := vi.Len() > 0
	if scatter {
		for p, id := range vi.IDs {
			slot[id] = int32(p + 1)
		}
	}
	for j := i + 1; j < len(k.docs); j++ {
		vj := s.vecs[j]
		var dot float64
		inter := 0
		if scatter && vj != nil {
			inter = matches(vj.IDs, slot, hits)
			for _, q := range hits[:inter] {
				dot += vi.Weights[slot[vj.IDs[q]]-1] * vj.Weights[q]
			}
		}
		for _, fi := range s.funcs {
			k.ms[fi].vals[base+j-i-1] = k.funcs[fi].join.value(vi, vj, dot, inter)
		}
	}
	if scatter {
		for _, id := range vi.IDs {
			slot[id] = 0
		}
	}
}

// matches lists in hits the positions of the IDs whose slot is set, in
// order, and returns how many there are. The list is written without a
// branch on the match, whose outcome a join cannot predict. It is kept out
// of line because inlined into joinRow its counter is spilled to the stack
// on every step (F8 alone measured ≈ 20 % slower).
//
//go:noinline
func matches(ids, slot, hits []int32) int {
	n := 0
	for q, id := range ids {
		hits[n] = int32(q)
		if slot[id] != 0 {
			n++
		}
	}
	return n
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
