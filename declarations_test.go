package repro_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the declarations under internal/ that only tests reach and
// that stay anyway. Every entry states why; a key ending in "." covers every
// method of the type. A reference entry keeps the simple form of a path the
// program serves, and names the test that compares the served path against
// it. Nothing of analysis, index, textsim, eval, stats, ergraph or blocking
// belongs here: what only their tests need lives in their _test.go files.
var testSeams = map[string]string{
	"faultfs.Injector.":        "fault-injecting FS: the crash and degradation harnesses of persist and service arm it and read its state",
	"faultfs.NewInjector":      "constructor of faultfs.Injector",
	"metrics.LintExposition":   "Prometheus text-format linter the service tests run over /metrics",
	"serving.Index.Validate":   "consistency check the serving, persist and service harnesses run over built and decoded indexes; the program never calls it",
	"simfn.ComputeMatrix":      "reference: one function's matrix on fresh memory; TestKernelMatchesReference holds it and ComputeAllCtx to the one-Compare-per-pair definition",
	"regions.FitKMeans1D":      "reference: the k-means fit on fresh memory; TestScratchFitMatchesFresh compares the decision stage's reused regions.Scratch against it",
	"core.Resolver.ResolveCtx": "reference: one collection resolved on its own, Prepare → Run → BestAnyCriterion; TestRunMatchesResolverResolve compares pipeline.Run against it",
}

// Why bench/ alone keeps a declaration alive: the bench instrument (a
// metric name) or probe step (a span name) that calls it.
const (
	benchANN         = "annInstruments (ann.update_docs_per_s, ann.recall) build a canopy ANN index over 60 name collections whose tokens overlap, and block them"
	benchIndexCodec  = "probe steps persist.save_index and persist.load_index (persist.IndexDir) and instrument blockindex.encode_ms"
	benchSnapshot    = "instruments pipeline.snapshot_encode_ms and pipeline.snapshot_decode_ms, and probe steps persist.save_snapshot and persist.load_snapshot"
	benchIndexPack   = "instruments index.add_us_per_doc and textsim.pack_us_per_doc build the 100-page block's term vectors"
	benchSchemeBlock = "instruments blocking.exact_block_ms and blocking.canopy_block_ms, and ann.recall's exact canopy"
	benchProbeWarm   = "the probe's bulk load warms the key index (instrument blockindex.update_docs_per_s)"
	benchProbeEncode = "probe step service.encode renders the reply with the service's response types"
	benchQuantile    = "bench/stats.go's quantile summarizes every metric's samples (p50, p99, quartiles)"
)

// benchOnly are the declarations under internal/ that only bench/ reaches.
// The declarations test solves liveness a second time without bench/ as a
// root, and every declaration that pass flags must be covered here, in the
// key forms of testSeams. It grows only when a change moves the last
// non-bench caller off a declaration, and CHANGES.md names each entry such
// a change adds. An entry that covers nothing fails like a stale testSeams
// entry.
var benchOnly = map[string]string{
	"analysis.Analyzer.Analyze": "instrument analysis.terms_us_per_doc (analysis.Standard.Terms)",
	"analysis.Analyzer.Terms":   "instrument analysis.terms_us_per_doc",
	"analysis.Tokenize":         "instrument analysis.stem_ns_per_token tokenizes the 100-page block",

	"ann.CandidateIndex":           benchANN,
	"ann.CandidateIndex.":          benchANN,
	"ann.Config":                   benchANN,
	"ann.Config.withDefaults":      benchANN,
	"ann.DefaultEfConstruction":    benchANN,
	"ann.DefaultEfSearch":          benchANN,
	"ann.DefaultM":                 benchANN,
	"ann.DocRef":                   benchANN,
	"ann.New":                      benchANN,
	"ann.UpdateStats":              benchANN,
	"ann.distNode":                 benchANN,
	"ann.encodedCol":               benchANN,
	"ann.encodedIndex":             benchANN,
	"ann.levelFor":                 benchANN,
	"ann.maxGraphLevel":            benchANN,
	"ann.maxQueue":                 benchANN,
	"ann.maxQueue.":                benchANN,
	"ann.minQueue":                 benchANN,
	"ann.minQueue.":                benchANN,
	"ann.nodeLess":                 benchANN,
	"ann.vecKey":                   benchANN,
	"blocking.ApproxPolicy":        benchANN,
	"blocking.ApproxScheme":        benchANN,
	"blocking.Canopy.ApproxPolicy": benchANN,
	"blocking.Canopy.Validate":     benchANN,
	"blocking.Validator":           benchANN,
	"eval.CandidateRecall":         "instrument ann.recall scores the ANN blocks against exact canopy's",
	"pipeline.NewANNBlockerWith":   benchANN,
	"textsim.PackedCosine":         benchANN,

	"blockindex.Components.Collection": benchIndexCodec,
	"blockindex.Components.Hashes":     benchIndexCodec,
	"blockindex.Components.Refs":       benchIndexCodec,
	"blockindex.Decode":                benchIndexCodec,
	"blockindex.ErrCodecCorrupt":       benchIndexCodec,
	"blockindex.Index.EncodeTo":        benchIndexCodec,
	"blockindex.Index.Version":         "probe step persist.save_index saves the key index only when its version moved",
	"blockindex.encodedCol":            benchIndexCodec,
	"blockindex.encodedIndex":          benchIndexCodec,
	"framing.ReadOne":                  benchIndexCodec,
	"persist.IndexDir.LoadIndex":       benchIndexCodec,
	"persist.IndexDir.SaveIndex":       benchIndexCodec,

	"blockindex.Index.Update":               benchProbeWarm,
	"pipeline.IndexBlocker.Warm":            benchProbeWarm,
	"pipeline.IndexBlocker.BlockMembership": "instrument ann.recall takes the ANN blocker's membership",

	"blocking.Canopy":                          benchSchemeBlock,
	"blocking.Canopy.Candidates":               benchSchemeBlock,
	"blocking.ExactKey.Candidates":             benchSchemeBlock,
	"blocking.KeySimilarity":                   benchSchemeBlock,
	"blocking.ParseScheme":                     benchSchemeBlock,
	"blocking.SchemeNames":                     benchSchemeBlock,
	"blocking.TokenBlocking.Candidates":        benchSchemeBlock,
	"blocking.normalizePair":                   benchSchemeBlock,
	"blocking.pairsFromBuckets":                benchSchemeBlock,
	"blocking.sortedPairs":                     benchSchemeBlock,
	"blocking.tokenJaccardKeys":                benchSchemeBlock,
	"ergraph.UnionFind.Union":                  benchSchemeBlock,
	"pipeline.NewSchemeBlocker":                benchSchemeBlock,
	"pipeline.SchemeBlocker":                   benchSchemeBlock,
	"pipeline.SchemeBlocker.BlockFingerprints": benchSchemeBlock,
	"pipeline.SchemeBlocker.BlockMembership":   benchSchemeBlock,
	"pipeline.docKeys":                         benchSchemeBlock,

	"index.Index":               benchIndexPack,
	"index.Index.":              benchIndexPack,
	"index.New":                 benchIndexPack,
	"index.Posting":             benchIndexPack,
	"textsim.NewSparseVector":   benchIndexPack,
	"textsim.SparseVector.Pack": benchIndexPack,

	"persist.SnapshotDir.Load":         benchSnapshot,
	"persist.SnapshotDir.Save":         benchSnapshot,
	"persist.SnapshotDir.Touch":        "probe step persist.save_snapshot touches an unchanged snapshot instead of rewriting it",
	"persist.artifactDir.touch":        "probe step persist.save_snapshot, through persist.SnapshotDir.Touch",
	"pipeline.EncodeSnapshot":          benchSnapshot,
	"pipeline.ErrSnapshotCorrupt":      benchSnapshot,
	"pipeline.ErrSnapshotVersion":      benchSnapshot,
	"pipeline.Pipeline.DecodeSnapshot": benchSnapshot,
	"pipeline.Snapshot.Blocks":         "probe step persist.save_snapshot compares block counts to skip an unchanged snapshot",
	"pipeline.SnapshotFormatVersion":   benchSnapshot,
	"pipeline.snapshotCRC":             benchSnapshot,
	"pipeline.snapshotMagic":           benchSnapshot,

	"service.BlockScore":    benchProbeEncode,
	"serving.Decode":        "instrument serving.decode_ms",
	"simfn.PrepareBlockCtx": "instrument simfn.prepare_block_ms",
	"stats.ErrEmpty":        benchQuantile,
	"stats.Quantile":        benchQuantile,
}

// stdlibCalls are the methods the standard library calls through its own
// interfaces (fmt, errors, sort, container/heap, io, net/http): such a
// method of a live type is live.
var stdlibCalls = []string{"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "ServeHTTP", "Read", "Write", "Close", "Unwrap", "Is", "WriteHeader", "Header", "Flush"}

// TestEveryDeclarationHasANonTestCaller enforces the rule the similarity
// stack was cut down to: a package-level func, method, type, var or const
// under internal/ stays only while non-test code of the program (internal/,
// cmd/ or bench/) reaches it. examples/ is no root: an example shows the
// library's entry points, and one that alone kept a declaration alive
// would document what neither ersolve, the experiments nor the benchmark
// runs (the examples are compiled and run by CI instead). Every package of
// the three trees is
// type-checked from source, and a reference is what types.Info resolves an
// identifier or selector to — never a bare name, so x.comps.Membership()
// keeps Components.Membership alive and no other Membership. Code outside
// internal/ is always live; under internal/ a declaration is live when live
// code refers to it, and a method also when a live type implements an
// interface whose method live code selects, or when the standard library
// calls it (stdlibCalls). Liveness grows from those roots to a fixed point,
// so what only dead code reaches is dead too. A second solve drops bench/
// from the roots, and what only it then leaves dead must be in benchOnly.
func TestEveryDeclarationHasANonTestCaller(t *testing.T) {
	tree := &typedTree{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*typedPkg{}}
	type treePkg struct {
		pkg  *typedPkg
		root string
	}
	var pkgs []treePkg
	for _, root := range []string{"internal", "cmd", "bench"} {
		dirs := map[string]bool{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if n := d.Name(); d.IsDir() && (n == "testdata" || n == "out") {
				return filepath.SkipDir
			}
			if !d.IsDir() && isSource(path) {
				dirs[filepath.Dir(path)] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for dir := range dirs {
			p, err := tree.load("repro/" + filepath.ToSlash(dir))
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, treePkg{p, root})
		}
	}
	solve := func(withBench bool) *liveness {
		g := &liveness{decls: map[types.Object]*declNode{}, ifaceUsed: map[*types.Func]bool{}}
		for _, p := range pkgs {
			if withBench || p.root != "bench" {
				g.add(tree.fset, p.pkg, p.root == "internal")
			}
		}
		g.solve()
		return g
	}

	g, withoutBench := solve(true), solve(false)
	var dead, benchKept []string
	seen, benchCovered := map[string]bool{}, map[string]bool{}
	for obj, d := range g.decls {
		seen[covering(testSeams, d.key)] = true
		switch {
		case !d.live:
			dead = append(dead, d.key+"  ("+d.pos.String()+")")
		case !withoutBench.decls[obj].live:
			if k := covering(benchOnly, d.key); k != "" {
				benchCovered[k] = true
			} else {
				benchKept = append(benchKept, d.key+"  ("+d.pos.String()+")")
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
	sort.Strings(benchKept)
	for _, d := range benchKept {
		t.Errorf("only bench/ reaches %s, which no benchOnly entry covers", d)
	}
	for _, list := range []struct {
		name    string
		entries map[string]string
		used    map[string]bool
		stale   string
	}{
		{"testSeams", testSeams, seen, "which is not declared"},
		{"benchOnly", benchOnly, benchCovered, "which covers nothing only bench/ reaches"},
	} {
		for k, why := range list.entries {
			if !list.used[k] {
				t.Errorf("%s lists %s, %s", list.name, k, list.stale)
			}
			if strings.TrimSpace(why) == "" {
				t.Errorf("%s[%s] has no reason", list.name, k)
			}
		}
	}
}

func isSource(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

// covering returns the key of entries covering a declaration, "" if none
// does.
func covering(entries map[string]string, key string) string {
	if _, ok := entries[key]; ok {
		return key
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		if _, ok := entries[key[:i+1]]; ok {
			return key[:i+1]
		}
	}
	return ""
}

// typedTree type-checks the module's packages from their non-test source on
// demand; it is the importer of its own packages, and the standard library
// comes from the compiler's export data.
type typedTree struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*typedPkg // by import path; nil while being checked
}

type typedPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (tr *typedTree) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return tr.std.Import(path)
	}
	p, err := tr.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (tr *typedTree) load(path string) (*typedPkg, error) {
	if p, ok := tr.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	tr.pkgs[path] = nil
	dir := filepath.FromSlash(strings.TrimPrefix(path, "repro/"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &typedPkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(tr.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: tr}
	if p.types, err = conf.Check(path, tr.fset, p.files, p.info); err != nil {
		return nil, err
	}
	tr.pkgs[path] = p
	return p, nil
}

// declNode is one package-level declaration under internal/ with the
// objects its source refers to.
type declNode struct {
	key  string // "pkg.Name" or "pkg.Type.Method"
	pos  token.Position
	refs []types.Object
	live bool
}

type liveness struct {
	decls     map[types.Object]*declNode
	roots     []types.Object       // what always-live code refers to
	named     []*types.TypeName    // every package-level non-generic defined type
	ifaceUsed map[*types.Func]bool // the interface methods live code selects
}

// add records one package. Outside internal/ its references are roots;
// under internal/ every declaration is a node, and the references of init
// functions and blank vars, and the testSeams entries, are roots.
func (g *liveness) add(fset *token.FileSet, p *typedPkg, internal bool) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				g.named = append(g.named, tn)
			}
		}
	}
	for _, f := range p.files {
		if !internal {
			g.roots = append(g.roots, references(p.info, f, nil)...)
			continue
		}
		node := func(id *ast.Ident, key string, n, skip ast.Node) {
			refs := references(p.info, n, skip)
			if id.Name == "_" || id.Name == "init" {
				g.roots = append(g.roots, refs...)
				return
			}
			obj := p.info.Defs[id]
			d := &declNode{key: p.types.Name() + "." + key, pos: fset.Position(id.Pos()), refs: refs}
			g.decls[obj] = d
			if covering(testSeams, d.key) != "" {
				g.roots = append(g.roots, obj)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					node(d.Name, d.Name.Name, d, nil)
					continue
				}
				// A receiver does not keep its type alive.
				recv := p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				node(d.Name, recv.(*types.Named).Obj().Name()+"."+d.Name.Name, d, d.Recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						node(s.Name, s.Name.Name, s, nil)
					case *ast.ValueSpec:
						// One node per name; all share the spec's references.
						for _, id := range s.Names {
							node(id, id.Name, s, nil)
						}
					}
				}
			}
		}
	}
}

// references lists the objects the identifiers and selector expressions
// under n (less the subtree skip) resolve to, instances of generic
// declarations mapped to their origin.
func references(info *types.Info, n, skip ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FieldList:
			return n != skip
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				out = append(out, origin(sel.Obj()))
			}
		case *ast.Ident:
			if obj, ok := info.Uses[x]; ok {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// solve marks live everything the roots reach, then adds the methods that
// live types expose to a used interface or to the standard library, and
// repeats until nothing changes.
func (g *liveness) solve() {
	queue := g.roots
	for {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				g.ifaceUsed[fn] = true
			}
			if d := g.decls[obj]; d != nil && !d.live {
				d.live = true
				queue = append(queue, d.refs...)
			}
		}
		for _, tn := range g.named {
			if d := g.decls[tn]; (d != nil && !d.live) || types.IsInterface(tn.Type()) {
				continue
			}
			for _, m := range g.implied(tn) {
				if d := g.decls[m]; d != nil && !d.live {
					queue = append(queue, m)
				}
			}
		}
		if len(queue) == 0 {
			return
		}
	}
}

// implied lists the methods of *T, its own and promoted ones, that the
// standard library may call (stdlibCalls), or that a used interface method
// reaches because *T implements its interface.
func (g *liveness) implied(tn *types.TypeName) []types.Object {
	ptr := types.NewPointer(tn.Type())
	method := func(pkg *types.Package, name string) types.Object {
		obj, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, name)
		if fn, ok := obj.(*types.Func); ok {
			return fn.Origin()
		}
		return nil
	}
	var out []types.Object
	for _, name := range stdlibCalls {
		if m := method(tn.Pkg(), name); m != nil {
			out = append(out, m)
		}
	}
	for fn := range g.ifaceUsed {
		m := method(fn.Pkg(), fn.Name())
		if d := g.decls[m]; d == nil || d.live {
			continue
		}
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(ptr, iface) {
			out = append(out, m)
		}
	}
	return out
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
