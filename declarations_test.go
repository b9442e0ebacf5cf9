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
// method of the type. Nothing of analysis, index, textsim, eval, stats,
// ergraph or blocking belongs here: what only their tests need lives in
// their _test.go files.
var testSeams = map[string]string{
	"faultfs.Injector.":      "fault-injecting FS: the crash and degradation harnesses of persist and service arm it and read its state",
	"faultfs.NewInjector":    "constructor of faultfs.Injector",
	"metrics.LintExposition": "Prometheus text-format linter the service tests run over /metrics",
	"persist.Open":           "OpenWithOptions with default Options, what the persist and service tests open a data directory through (production passes its FS and logger)",
}

// stdlibCalls are the methods the standard library calls through its own
// interfaces (fmt, errors, sort, container/heap, io, net/http): such a
// method of a live type is live.
var stdlibCalls = []string{"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "ServeHTTP", "Read", "Write", "Close", "Unwrap", "Is", "WriteHeader", "Header", "Flush"}

// TestEveryDeclarationHasANonTestCaller enforces the rule the similarity
// stack was cut down to: a package-level func, method, type, var or const
// under internal/ stays only while non-test code (internal/, cmd/,
// examples/ or bench/) reaches it. Every package of the four trees is
// type-checked from source, and a reference is what types.Info resolves an
// identifier or selector to — never a bare name, so x.comps.Membership()
// keeps Components.Membership alive and no other Membership. Code outside
// internal/ is always live; under internal/ a declaration is live when live
// code refers to it, and a method also when a live type implements an
// interface whose method live code selects, or when the standard library
// calls it (stdlibCalls). Liveness grows from those roots to a fixed point,
// so what only dead code reaches is dead too.
func TestEveryDeclarationHasANonTestCaller(t *testing.T) {
	tree := &typedTree{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*typedPkg{}}
	g := &liveness{decls: map[types.Object]*declNode{}, ifaceUsed: map[*types.Func]bool{}}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
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
			g.add(tree.fset, p, root == "internal")
		}
	}
	g.solve()

	var dead []string
	seen := map[string]bool{}
	for _, d := range g.decls {
		seen[seam(d.key)] = true
		if !d.live {
			dead = append(dead, d.key+"  ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
	for k, why := range testSeams {
		if !seen[k] {
			t.Errorf("testSeams lists %s, which is not declared", k)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("testSeams[%s] has no reason", k)
		}
	}
}

func isSource(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

// seam returns the testSeams key covering a declaration, "" if none does.
func seam(key string) string {
	if _, ok := testSeams[key]; ok {
		return key
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		if _, ok := testSeams[key[:i+1]]; ok {
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
			if seam(d.key) != "" {
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
