package simfn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/fanout"
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

// ComputeMatrix evaluates the similarity function on every pair of
// documents in the block, using all available cores. Cell (i, j), i < j,
// holds exactly f.Compare(d_i, d_j) whatever the scheduling: every cell is
// a pure function of its document pair and is written exactly once, by
// exactly one worker.
func ComputeMatrix(b *Block, f Func) *Matrix {
	return new(Workspace).computeMatrices(b, []Func{f}, nil)[0]
}

// ComputeAllCtx evaluates every function on the block and returns the
// matrices keyed by function ID. All rows are computed by one fan-out
// (internal/fanout), each row across every function, so a single call
// saturates the machine even when individual matrices are small. Every
// cell is bit-identical to calling the function's Compare on that document
// pair. Every worker checks the context between rows, so a canceled or
// timed-out context aborts the in-flight computation promptly and returns
// ctx.Err(). It is Workspace.ComputeAll on a fresh workspace, so the
// matrices it returns own their memory.
func ComputeAllCtx(ctx context.Context, b *Block, funcs []Func) (map[string]*Matrix, error) {
	return new(Workspace).ComputeAll(ctx, b, funcs)
}

// ComputeAll is ComputeAllCtx on the workspace's memory: the matrices it
// returns, and the map they come in, are valid until the workspace's next
// ComputeAll. A caller that needs only a few matrices at a time computes
// them one of Groups at a time and holds that group's cells, not every
// function's.
func (ws *Workspace) ComputeAll(ctx context.Context, b *Block, funcs []Func) (map[string]*Matrix, error) {
	ms := ws.computeMatrices(b, funcs, ctx.Done())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ws.byID == nil {
		ws.byID = make(map[string]*Matrix, len(funcs))
	}
	clear(ws.byID)
	for i, f := range funcs {
		ws.byID[f.ID] = ms[i]
	}
	return ws.byID, nil
}

// Groups partitions funcs into the groups of functions one ComputeAll should
// compute together, as positions in funcs, each group in funcs order and
// the groups in the order of their first functions. Functions that share
// work inside the kernel always share a group: those that read the same
// packed vectors share one join per pair (F8, F9 and F10 the TF-IDF term
// vectors), and the name functions (F3 and F7) one token table. The other
// functions fill groups, first fit, up to the size of the largest set that
// shares work — for Table I three functions in four groups — so holding one
// group's matrices at a time takes no more memory than that set needs, and
// the kernel's per-call cost is paid four times a block, not ten. Computing
// a function in its group or among all of funcs gives the same bits; only
// the memory held and the work repeated differ.
func Groups(funcs []Func) [][]int {
	// set counts the functions that share work with i, i among them, from
	// i on.
	set := func(i int) int {
		n := 1
		for j := i + 1; j < len(funcs); j++ {
			if sharesWork(&funcs[i], &funcs[j]) {
				n++
			}
		}
		return n
	}
	size := 1
	for i := range funcs {
		size = max(size, set(i))
	}
	// of[i] is function i's group, -1 until it is placed; sizes are the
	// groups' sizes so far.
	of := make([]int, len(funcs))
	for i := range of {
		of[i] = -1
	}
	var sizes []int
	for i := range funcs {
		if of[i] >= 0 {
			continue
		}
		n := set(i)
		g := slices.IndexFunc(sizes, func(have int) bool { return have+n <= size })
		if g < 0 {
			g, sizes = len(sizes), append(sizes, 0)
		}
		for j := i; j < len(funcs); j++ {
			if j == i || of[j] < 0 && sharesWork(&funcs[i], &funcs[j]) {
				of[j] = g
			}
		}
		sizes[g] += n
	}
	flat, groups := make([]int, 0, len(funcs)), make([][]int, len(sizes))
	for g := range groups {
		start := len(flat)
		for i := range of {
			if of[i] == g {
				flat = append(flat, i)
			}
		}
		groups[g] = flat[start:len(flat):len(flat)]
	}
	return groups
}

// computeMatrices fills one matrix per function on one fan-out. The unit of
// work is one matrix row across all functions: workers claim rows in
// ascending order (dynamic load balancing — early rows of the condensed
// triangle are longest) and write into disjoint sub-slices of the matrices'
// backing arrays, so no synchronization of the values themselves is needed.
// A non-nil done channel makes workers stop claiming rows once it closes;
// the caller is then responsible for discarding the partial matrices.
//
// The matrices are carved from one array of the workspace, left as the last
// call wrote it: fillRow writes every cell of every row, so nothing needs
// clearing. Each worker's join accumulators are carved from two more.
func (ws *Workspace) computeMatrices(b *Block, funcs []Func, done <-chan struct{}) []*Matrix {
	n := len(b.Docs)
	pairs := n * (n - 1) / 2
	ws.cells = slices.Grow(ws.cells[:0], len(funcs)*pairs)[:len(funcs)*pairs]
	ws.matrices = slices.Grow(ws.matrices[:0], len(funcs))[:len(funcs)]
	ws.ms = slices.Grow(ws.ms[:0], len(funcs))[:len(funcs)]
	ms := ws.ms
	for i := range funcs {
		ws.matrices[i] = Matrix{n: n, vals: ws.cells[i*pairs : (i+1)*pairs : (i+1)*pairs]}
		ms[i] = &ws.matrices[i]
	}
	if n < 2 || len(funcs) == 0 {
		return ms
	}
	k := &ws.kernel
	k.reset(b.Docs, funcs, ms)
	// fanout.Run starts at most this many workers; one that finds no
	// accumulators left, should GOMAXPROCS have grown meanwhile, makes its
	// own.
	workers := min(runtime.GOMAXPROCS(0), n-1)
	ws.acc = slices.Grow(ws.acc[:0], workers*n)[:workers*n]
	ws.cnt = slices.Grow(ws.cnt[:0], workers*n)[:workers*n]
	clear(ws.acc)
	clear(ws.cnt)
	var started atomic.Int32
	// Row n-1 has no upper-triangle entries.
	fanout.Run(n-1, func() func(row int) bool {
		// The worker's per-cell join accumulators, all zero between rows.
		var acc []float64
		var cnt []int32
		if w := int(started.Add(1)) - 1; w < workers {
			acc, cnt = ws.acc[w*n:(w+1)*n:(w+1)*n], ws.cnt[w*n:(w+1)*n:(w+1)*n]
		} else {
			acc, cnt = make([]float64, n), make([]int32, n)
		}
		return func(row int) bool {
			select {
			case <-done:
				return false
			default:
			}
			k.fillRow(row, acc, cnt)
			return true
		}
	})
	return ms
}

// kernel is the per-call state of one computeMatrices: what fillRow needs
// to evaluate a row of every function while computing each distinct value
// once. A workspace keeps one kernel and resets it for every call: nothing
// of one call's values is read by the next, only its memory is reused.
type kernel struct {
	docs  []Doc
	funcs []Func
	ms    []*Matrix
	// keys is parallel to funcs: non-nil for a keyed function, pointing
	// into memos.
	keys  []*pairMemo
	memos []pairMemo
	// joins are the ID lists the joined and overlap functions of the call
	// read, each with the functions that read it: F1 reads the concept
	// vectors, F8-F10 share the term vectors and so one join per pair, and
	// F4, F5 and F6 each read one entity ID set. Their memory past
	// len(joins) is kept for the next call.
	joins []joinSet
	// runs is newPostings' scratch while the kernel is built, all zero
	// between its calls; lists and weights are the per-document lists the
	// postings are inverted from.
	runs    []int32
	lists   [][]int32
	weights [][]float64
	// tokens is the token-pair table of the name functions, nil when there
	// is none, else table; toks[fi][d] lists the tokens of name function
	// fi's name of document d as IDs into it, cut from flat.
	tokens *tokenTable
	table  tokenTable
	toks   [][][]int32
	flat   []int32
	tokIDs map[string]int32
}

// joinSet is one ascending ID list per document, inverted into postings,
// and the functions that read the joins of its pairs. vecs holds the packed
// vectors the lists are the IDs of, read through from; both are unused
// (from nil) for ID sets.
type joinSet struct {
	from  *packedVectors
	vecs  []*textsim.PackedVector
	post  postings
	funcs []int
}

// reset prepares the kernel for one computeMatrices call.
func (k *kernel) reset(docs []Doc, funcs []Func, ms []*Matrix) {
	k.docs, k.funcs, k.ms = docs, funcs, ms
	k.keys = slices.Grow(k.keys[:0], len(funcs))[:len(funcs)]
	clear(k.keys)
	k.memos = slices.Grow(k.memos[:0], len(funcs))[:len(funcs)]
	k.joins = k.joins[:0]
	for fi, f := range funcs {
		switch {
		case f.join != nil:
			k.addJoined(fi)
		case f.set != nil:
			ids := k.idLists(len(docs))
			for d := range docs {
				ids[d] = f.set(&docs[d])
			}
			js := k.nextJoin()
			js.from = nil
			k.newPostings(&js.post, ids, nil)
			js.funcs = append(js.funcs[:0], fi)
		case f.Key != nil:
			k.memos[fi].reset(docs, f.Key)
			k.keys[fi] = &k.memos[fi]
		}
	}
	k.tokens = k.newTokenTable()
}

// nextJoin appends a join set to joins, on the memory of the one an earlier
// call left there.
func (k *kernel) nextJoin() *joinSet {
	if len(k.joins) < cap(k.joins) {
		k.joins = k.joins[:len(k.joins)+1]
	} else {
		k.joins = append(k.joins, joinSet{})
	}
	return &k.joins[len(k.joins)-1]
}

// idLists returns the kernel's list of n per-document ID lists.
func (k *kernel) idLists(n int) [][]int32 {
	k.lists = slices.Grow(k.lists[:0], n)[:n]
	return k.lists
}

// addJoined files joined function fi under the vectors it reads, a new
// join set unless an earlier function of the call reads the same ones.
func (k *kernel) addJoined(fi int) {
	from := k.funcs[fi].join.vecs
	for s := range k.joins {
		if o := &k.joins[s]; o.from == from {
			o.funcs = append(o.funcs, fi)
			return
		}
	}
	js := k.nextJoin()
	js.from = from
	vecs := slices.Grow(js.vecs[:0], len(k.docs))[:len(k.docs)]
	js.vecs = vecs
	for d := range k.docs {
		vecs[d] = from.of(&k.docs[d])
	}
	ids := k.idLists(len(vecs))
	weights := slices.Grow(k.weights[:0], len(vecs))[:len(vecs)]
	k.weights = weights
	for d, v := range vecs {
		ids[d], weights[d] = nil, nil
		if v != nil {
			ids[d], weights[d] = v.IDs, v.Weights
		}
	}
	k.newPostings(&js.post, ids, weights)
	js.funcs = append(js.funcs[:0], fi)
}

// postings is the inverted form of one ascending ID list per document: for
// every ID, the documents whose list holds it, in ascending order, are a run of
// docs, with their weights at the same positions of weights (empty for
// unweighted lists, its memory kept for a later weighted call). spans[d] lists,
// for each entry of document d's list in ascending ID order, where d's own
// posting sits in its ID's run and where the run ends, so a row walks the
// postings after its document without reading an ID or searching a run.
type postings struct {
	docs    []int32
	weights []float64
	spans   [][]span
	// all backs every document's spans.
	all []span
}

// span is one entry's [self, end) range of docs: self is the entry's own
// posting, self+1 … end−1 the later documents that share its ID.
type span struct{ self, end int32 }

// newPostings inverts ids, one ascending ID list per document, and the
// parallel weights when weights is non-nil, into p, reusing its memory. It
// counts the runs in k.runs, one entry per ID, which every join set of the
// call shares and which is all zero between calls.
func (k *kernel) newPostings(p *postings, ids [][]int32, weights [][]float64) {
	size, total := 0, 0
	for _, l := range ids {
		for _, id := range l {
			size = max(size, int(id)+1)
		}
		total += len(l)
	}
	if len(k.runs) < size+1 {
		k.runs = make([]int32, size+1)
	}
	// next[x] is first where ID x's run begins, then its first free slot,
	// and once every posting is placed where the run ends.
	next := k.runs[:size+1]
	defer clear(next)
	for _, l := range ids {
		for _, id := range l {
			next[id+1]++
		}
	}
	for x := 1; x <= size; x++ {
		next[x] += next[x-1]
	}
	p.docs = slices.Grow(p.docs[:0], total)[:total]
	p.spans = slices.Grow(p.spans[:0], len(ids))[:len(ids)]
	p.weights = p.weights[:0]
	if weights != nil {
		p.weights = slices.Grow(p.weights, total)[:total]
	}
	p.all = slices.Grow(p.all[:0], total)[:total]
	all := p.all
	for d, l := range ids {
		spans := all[:len(l):len(l)]
		all = all[len(l):]
		for q, id := range l {
			at := next[id]
			next[id]++
			p.docs[at] = int32(d)
			if weights != nil {
				p.weights[at] = weights[d][q]
			}
			spans[q].self = at
		}
		p.spans[d] = spans
	}
	for d, l := range ids {
		for q, id := range l {
			p.spans[d][q].end = next[id]
		}
	}
}

// addRow adds, for every document j > i whose list shares IDs with
// document i's, the number of shared IDs to cnt[j] and, for weighted lists,
// the products of their weights to acc[j], in ascending ID order: the
// products a merge join of the two lists multiplies, added in the order it
// adds them.
func (p *postings) addRow(i int, acc []float64, cnt []int32) {
	if len(p.weights) == 0 {
		for _, s := range p.spans[i] {
			for _, j := range p.docs[s.self+1 : s.end] {
				cnt[j]++
			}
		}
		return
	}
	for _, s := range p.spans[i] {
		wi, ws := p.weights[s.self], p.weights[s.self+1:s.end]
		for q, j := range p.docs[s.self+1 : s.end] {
			acc[j] += wi * ws[q]
			cnt[j]++
		}
	}
}

// pairMemo interns a keyed function's keys for one call: class[d] is the
// per-call ID of document d's key, and empty the ID of the empty key (-1
// when no document has it). When the keys repeat enough for a table to save
// evaluations, cell class[i]*k+class[j] holds the complemented IEEE bits of
// the function's value on (d_i, d_j), so the zero value means "not computed
// yet" (a value whose bits are all ones, a NaN, is simply recomputed every
// time); cells is empty otherwise. Workers racing on one cell compute
// identical bits, so plain atomic loads and stores suffice.
type pairMemo struct {
	class []int32
	empty int32
	k     int
	cells []atomic.Uint64
	ids   map[string]int32 // key → class, while the memo is built
}

// reset interns the documents' keys. It leaves the table out when the k
// keys span at least as many ordered pairs as the block has document pairs:
// it would then have nothing to save, so blocks of mostly distinct keys
// evaluate every pair. This also bounds the table to the size of one
// matrix. The cells an earlier call left are cleared before they are
// reused.
func (m *pairMemo) reset(docs []Doc, key func(*Doc) string) {
	if m.ids == nil {
		m.ids = make(map[string]int32)
	}
	clear(m.ids)
	m.class = slices.Grow(m.class[:0], len(docs))[:len(docs)]
	for d := range docs {
		s := key(&docs[d])
		id, ok := m.ids[s]
		if !ok {
			id = int32(len(m.ids))
			m.ids[s] = id
		}
		m.class[d] = id
	}
	m.empty = -1
	if id, ok := m.ids[""]; ok {
		m.empty = id
	}
	m.k = len(m.ids)
	m.cells = m.cells[:0]
	if n := len(docs); m.k*(m.k-1) < n*(n-1)/2 {
		m.cells = slices.Grow(m.cells, m.k*m.k)[:m.k*m.k]
		clear(m.cells)
	}
}

// tokenTable memoises textsim.JaroWinkler per ordered pair of the distinct
// name tokens of one call, as pairMemo does per ordered key pair: cell
// x*len(tokens)+y holds the complemented bits of JaroWinkler(tokens[x],
// tokens[y]). Every name function of the call shares it.
type tokenTable struct {
	tokens []string
	cells  []atomic.Uint64
	// sim is jaroWinkler as a value, bound once per table.
	sim func(x, y int32) float64
}

// newTokenTable interns the tokens of every name function's names into
// k.table and k.toks. It returns nil when there are no tokens, or when the
// T distinct tokens span more ordered pairs (T²) than the call's matrices
// have cells, and k.table otherwise, its cells cleared. The table fills
// lazily, so its size costs memory, not evaluations, and this bound keeps
// that memory below what the call already allocates.
func (k *kernel) newTokenTable() *tokenTable {
	docs, funcs, t := k.docs, k.funcs, &k.table
	if k.tokIDs == nil {
		k.tokIDs = make(map[string]int32)
	}
	clear(k.tokIDs)
	t.tokens = t.tokens[:0]
	k.toks = slices.Grow(k.toks[:0], len(funcs))[:len(funcs)]
	flat := k.flat[:0]
	for fi, f := range funcs {
		if f.name == nil {
			continue
		}
		toks := slices.Grow(k.toks[fi][:0], len(docs))[:len(docs)]
		k.toks[fi] = toks
		for d := range docs {
			start := len(flat)
			for _, tok := range f.name(&docs[d]).Tokens {
				id, ok := k.tokIDs[tok]
				if !ok {
					id = int32(len(t.tokens))
					k.tokIDs[tok] = id
					t.tokens = append(t.tokens, tok)
				}
				flat = append(flat, id)
			}
			// Earlier documents keep the backing array they were cut from
			// when append moves flat.
			toks[d] = flat[start:len(flat):len(flat)]
		}
	}
	k.flat = flat
	n, tn := len(docs), len(t.tokens)
	if tn == 0 || tn*tn > len(funcs)*n*(n-1)/2 {
		return nil
	}
	t.cells = slices.Grow(t.cells[:0], tn*tn)[:tn*tn]
	clear(t.cells)
	if t.sim == nil {
		t.sim = t.jaroWinkler
	}
	return t
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
// This is the only place that knows a function may be keyed, named, joined
// or an overlap; whichever way a cell is reached it holds the bits of
// Compare(d_i, d_j). acc and cnt are the calling worker's join
// accumulators, one cell per document, zero on entry and on return.
func (k *kernel) fillRow(i int, acc []float64, cnt []int32) {
	n := len(k.docs)
	di := &k.docs[i]
	base := k.ms[0].idx(i, i+1)
	for fi := range k.funcs {
		f := &k.funcs[fi]
		if f.join != nil || f.set != nil {
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
		if len(keys.cells) > 0 {
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
	for s := range k.joins {
		js := &k.joins[s]
		js.post.addRow(i, acc, cnt)
		for j := i + 1; j < n; j++ {
			for _, fi := range js.funcs {
				var v float64
				if f := &k.funcs[fi]; f.join != nil {
					v = f.join.value(js.vecs[i], js.vecs[j], acc[j], int(cnt[j]))
				} else {
					v = overlap(int(cnt[j]))
				}
				k.ms[fi].vals[base+j-i-1] = v
			}
			acc[j], cnt[j] = 0, 0
		}
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
