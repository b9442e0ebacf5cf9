package simfn

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/textsim"
)

// asymmetricKeyed is a keyed function that is deliberately NOT symmetric
// in its keys — the property the ordered memo exists for — and that reads
// beyond the key when two keys are equal, as the contract allows.
func asymmetricKeyed() Func {
	key := func(d *Doc) string { return d.Features.MostFrequentName }
	return Func{
		ID: "asym", Key: key,
		Compare: func(a, b *Doc) float64 {
			ka, kb := key(a), key(b)
			if ka == kb {
				return float64(len(a.Features.URL.Raw)) / float64(1+len(b.Features.URL.Raw))
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%s\x00%s", ka, kb)
			return float64(h.Sum64()>>11) / (1 << 53)
		},
	}
}

// handBuiltBlock builds n documents by hand from pools of the given sizes,
// so keys repeat (small pools) or are mostly distinct (pool ≥ n). The pools
// hold the awkward values: empty and blank names, names that normalize
// equal but differ as keys, multi-token names sharing tokens, non-ASCII
// names and hosts, names and hosts past 64 runes (the bit-parallel Jaro's
// edge), empty hosts, hosts sharing a domain, empty vectors and sets. The
// generated names combine few tokens, so a block can have more distinct
// names than the key memo takes and still few enough tokens for the token
// table.
func handBuiltBlock(rng *rand.Rand, n, namePool, hostPool int) *Block {
	names := []string{"", " ", "John R. Smith", "Smith Johnson", "J Smith", "Smith, John R", "john r smith",
		"José García-Müller", strings.Repeat("Maria de la Concepción ", 3) + "Smith"}
	given := []string{"John", "Jon", "J.", "Ana", "Zoë", "Smith"}
	middle := []string{" ", " R. ", " de la ", " Q ", " van "}
	family := []string{"Smith", "Smyth", "Johnson", "García", "Müller"}
	for len(names) < namePool {
		names = append(names, given[rng.Intn(len(given))]+middle[rng.Intn(len(middle))]+family[rng.Intn(len(family))])
	}
	hosts := []string{"", "www.example.edu", "cs.example.edu", "EXAMPLE.edu.", "www.müller-garcía.de",
		"a-subdomain-long-enough-to-pass-the-sixty-four-rune-edge.of.example.org"}
	for len(hosts) < hostPool {
		hosts = append(hosts, fmt.Sprintf("h%d.site%d.org", rng.Intn(50), rng.Intn(8)))
	}
	names, hosts = names[:min(namePool, len(names))], hosts[:min(hostPool, len(hosts))]
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	pick := func() []string {
		out := make([]string, rng.Intn(4))
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	vector := func() textsim.SparseVector {
		v := textsim.NewSparseVector()
		for k := rng.Intn(6); k > 0; k-- {
			v.Add(words[rng.Intn(len(words))], rng.Float64())
		}
		return v
	}

	b := &Block{Name: "hand", Docs: make([]Doc, n), Vocab: textsim.NewVocab()}
	for i := range b.Docs {
		d := &b.Docs[i]
		url := ""
		if h := hosts[rng.Intn(len(hosts))]; h != "" {
			url = fmt.Sprintf("http://%s/%s/%s.html", h, words[rng.Intn(3)], words[rng.Intn(len(words))])
		}
		frequent := names[rng.Intn(len(names))]
		if len(names) >= n {
			// One pool entry per page: as many distinct names as the pool
			// has, too many for the key memo.
			frequent = names[i]
		}
		d.Features = extract.DocumentFeatures{
			URL:              extract.ParseURL(url),
			MostFrequentName: frequent,
			ClosestName:      names[rng.Intn(len(names))],
			Concepts:         pick(),
			Organizations:    pick(),
			OtherPersons:     pick(),
		}
		d.Pack(b.Vocab, vector(), vector())
	}
	return b
}

// generatedBlock prepares a block of n generated pages.
func generatedBlock(t testing.TB, n int, seed int64) *Block {
	t.Helper()
	col, err := corpus.GenerateCollection(corpus.CollectionConfig{
		Name: "kernel", NumDocs: n, NumPersonas: 1 + n/8,
		Noise: 0.5, MissingInfo: 0.25, Spurious: 0.3, Template: 0.25, Seed: seed,
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

func requireBitIdentical(t *testing.T, label string, got, want map[string]*Matrix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matrices, want %d", label, len(got), len(want))
	}
	for id, wm := range want {
		gm := got[id]
		if gm == nil || gm.Len() != wm.Len() {
			t.Fatalf("%s %s: missing or wrong dimension", label, id)
		}
		for k, v := range wm.Values() {
			if g := gm.Values()[k]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s %s: cell %d = %v (%x), reference %v (%x)", label, id, k,
					g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
	}
}

// TestKernelMatchesReference is the property the keyed and joined paths
// rest on: on random blocks — generated pages and hand-built documents with
// empty vectors, names and hosts, heavily repeated keys and all-distinct
// keys — ComputeAllCtx equals the one-Compare-per-pair reference
// bit for bit, for the ten Table I functions and an asymmetric keyed one,
// on the worker pool (run under -race) and on the calling goroutine alone.
func TestKernelMatchesReference(t *testing.T) {
	funcs := append(tableIFuncs(t), asymmetricKeyed())
	rng := rand.New(rand.NewSource(16))
	var blocks []*Block
	for _, n := range []int{2, 3, 9, 33, 70} {
		blocks = append(blocks, generatedBlock(t, n, rng.Int63()))
	}
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(70)
		pool := [][2]int{{3, 3}, {1, 1}, {n / 2, n / 3}, {n + 5, n + 5}, {5, n + 5}}[trial%5]
		blocks = append(blocks, handBuiltBlock(rng, n, max(pool[0], 1), max(pool[1], 1)))
	}
	for _, procs := range []int{4, 1} {
		old := runtime.GOMAXPROCS(procs)
		for bi, b := range blocks {
			want := ComputeAllSerial(b, funcs)
			label := fmt.Sprintf("GOMAXPROCS=%d block %d (n=%d)", procs, bi, len(b.Docs))
			got, err := ComputeAllCtx(context.Background(), b, funcs)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, label+" ctx", got, want)
			for _, f := range funcs {
				requireBitIdentical(t, label+" single", map[string]*Matrix{f.ID: ComputeMatrix(b, f)},
					map[string]*Matrix{f.ID: want[f.ID]})
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestKernelCanceledMidMatrix cancels a keyed, joined computation from
// inside a Compare: the call reports the cancellation, and because the
// tables die with the call a following run is still the reference.
func TestKernelCanceledMidMatrix(t *testing.T) {
	forceParallel(t)
	b := handBuiltBlock(rand.New(rand.NewSource(3)), 70, 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	trip := asymmetricKeyed()
	inner := trip.Compare
	trip.Compare = func(a, d *Doc) float64 {
		if calls.Add(1) == 40 {
			cancel()
		}
		return inner(a, d)
	}
	funcs := append(tableIFuncs(t), trip)
	if ms, err := ComputeAllCtx(ctx, b, funcs); !errors.Is(err, context.Canceled) || ms != nil {
		t.Fatalf("canceled mid-matrix: matrices %v, err %v; want nil, context.Canceled", ms != nil, err)
	}
	funcs[len(funcs)-1] = asymmetricKeyed()
	requireBitIdentical(t, "after cancellation", computeAll(t, b, funcs), ComputeAllSerial(b, funcs))
}

// TestTokenTableBoundedByTheCall pins the token table's bound: on a 40-doc
// block whose names share 40 distinct tokens, T² = 1,600 exceeds the
// block's 780 document pairs — one matrix — but not the 7,800 cells of the
// ten matrices, so a call over all ten builds the table, and Jaro-Winkler
// runs once per distinct ordered token pair the name functions ask for,
// however many name pairs ask for it. A call of F3 alone has one matrix's
// 780 cells and leaves the table out; the group an analysis computes the
// name functions in has three matrices' 2,340 and builds it. The cells keep
// their bits either way.
func TestTokenTableBoundedByTheCall(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tokens := make([]string, 40)
	for i := range tokens {
		b := make([]byte, 3+rng.Intn(6))
		for c := range b {
			b[c] = byte('a' + rng.Intn(26))
		}
		tokens[i] = string(b)
	}
	name := func() string {
		parts := make([]string, 1+rng.Intn(3))
		for p := range parts {
			parts[p] = tokens[rng.Intn(len(tokens))]
		}
		return strings.Join(parts, " ")
	}
	const n = 40
	b := &Block{Name: "tokens", Docs: make([]Doc, n), Vocab: textsim.NewVocab()}
	for i := range b.Docs {
		d := &b.Docs[i]
		d.Features.MostFrequentName, d.Features.ClosestName = name(), name()
		d.Pack(b.Vocab, nil, nil)
	}

	funcs := tableIFuncs(t)
	ms := make([]*Matrix, len(funcs))
	for i := range ms {
		ms[i] = NewMatrix(n)
	}
	k := new(kernel)
	k.reset(b.Docs, funcs, ms)
	if k.tokens == nil {
		t.Fatal("no token table for 40 tokens over 10 matrices of 40 docs")
	}
	if tn := len(k.tokens.tokens); tn*tn < n*(n-1)/2 {
		t.Fatalf("%d distinct tokens: T² below one matrix, the case does not pin the bound", tn)
	}
	asked := map[[2]int32]bool{}
	lookups := 0
	sim := k.tokens.sim
	k.tokens.sim = func(x, y int32) float64 {
		lookups++
		asked[[2]int32{x, y}] = true
		return sim(x, y)
	}
	acc, cnt := make([]float64, n), make([]int32, n)
	for i := 0; i < n-1; i++ {
		k.fillRow(i, acc, cnt)
	}
	runs := 0
	for c := range k.tokens.cells {
		if k.tokens.cells[c].Load() != 0 {
			runs++
		}
	}
	if runs != len(asked) || lookups <= runs {
		t.Errorf("Jaro-Winkler ran %d times for %d distinct token pairs over %d lookups", runs, len(asked), lookups)
	}
	requireBitIdentical(t, "token table", byFuncID(funcs, ms), ComputeAllSerial(b, funcs))

	for _, ids := range [][]string{{"F3"}, {"F3", "F5", "F7"}} {
		call, err := Subset(ids)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*Matrix, len(call))
		for i := range ms {
			ms[i] = NewMatrix(n)
		}
		k.reset(b.Docs, call, ms)
		if built, want := k.tokens != nil, len(ids) > 1; built != want {
			t.Errorf("%v: token table built %v, want %v", ids, built, want)
		}
		requireBitIdentical(t, fmt.Sprint(ids), computeAll(t, b, call), ComputeAllSerial(b, call))
	}
}

// TestGroupsMatchOneCall computes every function group of Table I, and of
// subsets that reorder or repeat functions, one group at a time in one
// workspace, and requires each group's cells to have the bits of the same
// functions' cells from one call over all of them. The groups must cover
// every position once, in order of their first functions, keep functions
// that share kernel work together, and hold no more functions than the
// largest set of those.
func TestGroupsMatchOneCall(t *testing.T) {
	var ws Workspace
	for _, ids := range [][]string{SubsetI10, SubsetI4, SubsetI7, {"F8", "F3", "F9", "F1", "F7", "F10"}, {"F3", "F3", "F2"}} {
		funcs, err := Subset(ids)
		if err != nil {
			t.Fatal(err)
		}
		groups := Groups(funcs)
		in, first := make([]int, len(funcs)), -1
		for g, group := range groups {
			if !slices.IsSorted(group) || group[0] <= first {
				t.Fatalf("%v: groups %v out of order", ids, groups)
			}
			first = group[0]
			for _, fi := range group {
				in[fi] = g + 1
			}
		}
		largest := 1
		for i := range funcs {
			set := 1
			for j := range funcs {
				if j != i && sharesWork(&funcs[i], &funcs[j]) {
					set++
					if in[i] != in[j] {
						t.Fatalf("%v: groups %v split %s and %s", ids, groups, ids[i], ids[j])
					}
				}
			}
			largest = max(largest, set)
		}
		if slices.Contains(in, 0) || len(slices.Concat(groups...)) != len(funcs) ||
			slices.ContainsFunc(groups, func(g []int) bool { return len(g) > largest }) {
			t.Fatalf("%v: groups %v do not hold each function once, in groups of at most %d", ids, groups, largest)
		}
		blocks := []*Block{generatedBlock(t, 60, 1), handBuiltBlock(rand.New(rand.NewSource(2)), 30, 3, 3), generatedBlock(t, 2, 3)}
		for _, b := range blocks {
			want := computeAll(t, b, funcs)
			for _, group := range groups {
				var members []Func
				sub := map[string]*Matrix{}
				for _, fi := range group {
					members = append(members, funcs[fi])
					sub[funcs[fi].ID] = want[funcs[fi].ID]
				}
				got, err := ws.ComputeAll(context.Background(), b, members)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("%v group %v", ids, group), got, sub)
			}
		}
	}
	if got, want := Groups(tableIFuncs(t)), [][]int{{0, 1, 3}, {2, 4, 6}, {5}, {7, 8, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Table I groups %v, want %v", got, want)
	}
}

// byFuncID keys ms, parallel to funcs, by function ID.
func byFuncID(funcs []Func, ms []*Matrix) map[string]*Matrix {
	out := make(map[string]*Matrix, len(funcs))
	for i, f := range funcs {
		out[f.ID] = ms[i]
	}
	return out
}

// TestKeyedCompareCount proves what the memo buys: on the serial path a
// keyed function is evaluated exactly once per ordered pair of distinct
// keys that occurs plus once per same-key pair — and once per document pair
// when the keys are distinct enough that the table is skipped.
func TestKeyedCompareCount(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct {
		name       string
		n, pool    int
		wantMemoed bool
	}{
		{"few keys", 60, 5, true},
		{"one key", 20, 1, true},
		{"all distinct", 40, 400, false},
	} {
		rng := rand.New(rand.NewSource(9))
		b := &Block{Name: tc.name, Docs: make([]Doc, tc.n)}
		for i := range b.Docs {
			b.Docs[i].Features.MostFrequentName = fmt.Sprintf("name-%d", rng.Intn(tc.pool))
			b.Docs[i].Features.URL.Raw = fmt.Sprintf("u%d", i)
		}
		f := asymmetricKeyed()
		orderedPairs := map[[2]string]bool{}
		want := 0
		for i := range b.Docs {
			for j := i + 1; j < len(b.Docs); j++ {
				ki, kj := f.Key(&b.Docs[i]), f.Key(&b.Docs[j])
				if ki == kj || !tc.wantMemoed {
					want++
				} else if !orderedPairs[[2]string{ki, kj}] {
					orderedPairs[[2]string{ki, kj}] = true
					want++
				}
			}
		}
		calls := 0
		counted := f
		counted.Compare = func(a, d *Doc) float64 {
			calls++
			return f.Compare(a, d)
		}
		got := ComputeMatrix(b, counted)
		if calls != want {
			t.Errorf("%s: %d Compare calls for %d pairs, want %d", tc.name, calls, len(got.Values()), want)
		}
		requireBitIdentical(t, tc.name, map[string]*Matrix{"asym": got},
			map[string]*Matrix{"asym": ComputeMatrixSerial(b, f)})
	}
}
