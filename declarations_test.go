package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testSeams are the declarations under internal/ that only tests reach and
// that stay anyway. Every entry states why; a key ending in "." covers every
// method of the type. Nothing of analysis, index, textsim, eval, stats,
// ergraph or blocking belongs here: what only their tests need lives in
// their _test.go files.
var testSeams = map[string]string{
	"ann.Decode":             "decoder of ann.CandidateIndex.EncodeTo, which no server path calls; pipeline's TestANNBlockerRestartEqualsFresh and BenchmarkANNBlock decode a graph through it, so it cannot move into ann's _test.go files (it keeps ann.ErrCodecCorrupt and textsim.PackedFromParts reached)",
	"faultfs.Injector.":      "fault-injecting FS: the crash and degradation harnesses of persist and service arm it and read its state",
	"faultfs.NewInjector":    "constructor of faultfs.Injector",
	"metrics.LintExposition": "Prometheus text-format linter the service tests run over /metrics",
	"persist.Open":           "OpenWithOptions with default Options, what the persist and service tests open a data directory through (production passes its FS and logger)",
}

// declUnit is one package-level declaration (or, outside internal/, one
// whole file) together with the names it mentions.
type declUnit struct {
	key      string // "pkg.Name" or "pkg.Type.Method"; "" for always-live units
	pos      token.Position
	method   string              // method name when the unit is a method
	bare     map[string]struct{} // identifiers, resolved against the unit's own package
	selector map[string]struct{} // "importpath.Name" for pkg.Name, ".Name" for any other x.Name
	pkg      string              // import path of the declaring package
}

// TestEveryDeclarationHasANonTestCaller enforces the rule the similarity
// stack was cut down to: a package-level func, method, type, var or const
// under internal/ stays only while a non-test file (internal/, cmd/,
// examples/ or bench/) mentions it outside its own declaration. The scan is
// by name — go/parser and go/ast only, no type information — so it errs on
// the side of "referenced": a method is live when any live code selects its
// name or an interface declares it. Mentions from declarations that are
// themselves unreferenced do not count (iterated to a fixed point).
func TestEveryDeclarationHasANonTestCaller(t *testing.T) {
	fset := token.NewFileSet()
	var units []*declUnit
	ifaceMethods := map[string]struct{}{}
	// Methods the standard library calls through its own interfaces.
	for _, m := range []string{"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "ServeHTTP", "Read", "Write", "Close", "Unwrap", "Is", "WriteHeader", "Header", "Flush"} {
		ifaceMethods[m] = struct{}{}
	}

	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); n == "testdata" || n == "out" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			units = append(units, fileUnits(fset, f, path, root == "internal", ifaceMethods)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	live := make([]bool, len(units))
	for i := range live {
		live[i] = true
	}
	for changed := true; changed; {
		changed = false
		for i, d := range units {
			if !live[i] || d.key == "" {
				continue
			}
			if _, viaInterface := ifaceMethods[d.method]; seam(d.key) != "" || (d.method != "" && viaInterface) {
				continue
			}
			if !referenced(units, live, i) {
				live[i] = false
				changed = true
			}
		}
	}

	var dead []string
	seen := map[string]bool{}
	for i, d := range units {
		seen[seam(d.key)] = true
		if !live[i] {
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

// referenced reports whether a live unit other than units[i] mentions it.
func referenced(units []*declUnit, live []bool, i int) bool {
	d := units[i]
	name := d.key[strings.LastIndexByte(d.key, '.')+1:]
	for j, u := range units {
		if j == i || !live[j] {
			continue
		}
		if d.method != "" {
			if _, ok := u.selector["."+name]; ok {
				return true
			}
			continue
		}
		if u.pkg == d.pkg {
			if _, ok := u.bare[name]; ok {
				return true
			}
		}
		if _, ok := u.selector[d.pkg+"."+name]; ok {
			return true
		}
	}
	return false
}

// fileUnits splits one parsed file into units. Files outside internal/ are
// a single always-live unit: nothing there has to justify itself, but what
// it mentions keeps internal declarations alive.
func fileUnits(fset *token.FileSet, f *ast.File, path string, internal bool, ifaceMethods map[string]struct{}) []*declUnit {
	pkgPath := "repro/" + filepath.ToSlash(filepath.Dir(path))
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		local := p[strings.LastIndexByte(p, '/')+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = p
	}
	short := f.Name.Name
	newUnit := func(key string, pos token.Pos) *declUnit {
		return &declUnit{key: key, pos: fset.Position(pos), pkg: pkgPath,
			bare: map[string]struct{}{}, selector: map[string]struct{}{}}
	}
	collect := func(u *declUnit, n ast.Node, skip map[*ast.Ident]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = struct{}{}
					}
				}
			case *ast.SelectorExpr:
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						skip[id] = true
						u.selector[p+"."+x.Sel.Name] = struct{}{}
						break
					}
				}
				u.selector["."+x.Sel.Name] = struct{}{}
			case *ast.Ident:
				if !skip[x] {
					u.bare[x.Name] = struct{}{}
				}
			}
			return true
		})
	}

	if !internal {
		u := newUnit("", f.Pos())
		collect(u, f, map[*ast.Ident]bool{})
		return []*declUnit{u}
	}

	var out []*declUnit
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			skip := map[*ast.Ident]bool{d.Name: true}
			key := short + "." + d.Name.Name
			method := ""
			if d.Recv != nil && len(d.Recv.List) > 0 {
				// A receiver does not keep its type alive.
				recv := receiverIdent(d.Recv.List[0].Type)
				if recv != nil {
					skip[recv] = true
					key = short + "." + recv.Name + "." + d.Name.Name
				}
				method = d.Name.Name
			}
			u := newUnit(key, d.Name.Pos())
			u.method = method
			if method == "" && (d.Name.Name == "init" || d.Name.Name == "main") {
				u.key = ""
			}
			collect(u, d, skip)
			out = append(out, u)
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					u := newUnit(short+"."+s.Name.Name, s.Name.Pos())
					collect(u, s, map[*ast.Ident]bool{s.Name: true})
					out = append(out, u)
				case *ast.ValueSpec:
					// One unit per name; all share the spec's mentions.
					skip := map[*ast.Ident]bool{}
					for _, id := range s.Names {
						skip[id] = true
					}
					for _, id := range s.Names {
						key := short + "." + id.Name
						if id.Name == "_" {
							key = "" // an assertion such as var _ FS = (*T)(nil): always live
						}
						u := newUnit(key, id.Pos())
						collect(u, s, skip)
						out = append(out, u)
					}
				}
			}
		}
	}
	return out
}

func receiverIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
