// Package load turns directories of Go source into type-checked packages
// for erlint's analyzers, using nothing but the standard library. Std
// imports are satisfied by the compiler's source importer (GOROOT/src),
// while configurable roots map import-path prefixes to directories — the
// main module for real runs, a testdata/src tree for analysistest — the
// way GOPATH once did.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func init() {
	// Std packages are type-checked from GOROOT source; with cgo enabled
	// the source importer would shell out to the cgo tool for packages
	// like net. The pure-Go variants type-check identically and offline.
	build.Default.CgoEnabled = false
}

// Root maps an import-path prefix to the directory holding its source
// tree: {"repro", "/repo"} resolves "repro/internal/stats" to
// /repo/internal/stats. An empty Prefix matches every path.
type Root struct {
	Prefix string
	Dir    string
}

// Package is one analyzable unit: a type-checked package plus its syntax.
type Package struct {
	// Path is the unit's import path; external test packages carry their
	// "_test" suffix.
	Path string
	// Fset maps the unit's token positions.
	Fset *token.FileSet
	// Files is the parsed syntax, comments included, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
}

// Loader loads and type-checks packages. It memoizes the import-facing
// (non-test) view of every package, so diamond imports type-check once. A
// Loader is not safe for concurrent use.
type Loader struct {
	fset  *token.FileSet
	roots []Root
	std   types.Importer
	pkgs  map[string]*types.Package
	busy  map[string]bool
}

// New returns a Loader resolving the given roots, most specific prefix
// first, with GOROOT source as the fallback for everything else.
func New(roots ...Root) *Loader {
	fset := token.NewFileSet()
	sorted := append([]Root(nil), roots...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return len(sorted[i].Prefix) > len(sorted[j].Prefix)
	})
	return &Loader{
		fset:  fset,
		roots: sorted,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*types.Package),
		busy:  make(map[string]bool),
	}
}

// dirFor resolves an import path through the roots; ok is false when no
// root matches or the directory does not exist.
func (l *Loader) dirFor(path string) (string, bool) {
	for _, r := range l.roots {
		if r.Prefix == "" || path == r.Prefix || strings.HasPrefix(path, r.Prefix+"/") {
			rel := strings.TrimPrefix(strings.TrimPrefix(path, r.Prefix), "/")
			dir := filepath.Join(r.Dir, filepath.FromSlash(rel))
			if st, err := os.Stat(dir); err == nil && st.IsDir() {
				return dir, true
			}
		}
	}
	return "", false
}

// Import satisfies types.Importer: root-resolved paths load their non-test
// files; everything else comes from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return l.std.Import(path)
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files, err := l.parseDir(dir, func(name string, f *ast.File) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files for %q in %s", path, dir)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load loads the package at the import path as analyzable units: the base
// package together with its in-package test files and, when the directory
// has an external _test package, that package as a second unit. Test-only
// directories (the repo root's integration tests) yield just the external
// test unit.
func (l *Loader) Load(path string) ([]*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("no source root resolves %q", path)
	}
	all, err := l.parseDir(dir, func(string, *ast.File) bool { return true })
	if err != nil {
		return nil, err
	}
	var base, ext []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			base = append(base, f)
		}
	}
	var units []*Package
	if len(base) > 0 {
		pkg, info, err := l.check(path, base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		units = append(units, &Package{Path: path, Fset: l.fset, Files: base, Types: pkg, Info: info})
	}
	if len(ext) > 0 {
		extPath := path + "_test"
		pkg, info, err := l.check(extPath, ext)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", extPath, err)
		}
		units = append(units, &Package{Path: extPath, Fset: l.fset, Files: ext, Types: pkg, Info: info})
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("no buildable Go files for %q in %s", path, dir)
	}
	return units, nil
}

// parseDir parses every buildable .go file in dir that keep accepts,
// sorted by filename for deterministic diagnostics.
func (l *Loader) parseDir(dir string, keep func(name string, f *ast.File) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if !buildable(name, src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if keep(name, f) {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.File(files[i].Pos()).Name() < l.fset.File(files[j].Pos()).Name()
	})
	return files, nil
}

// check type-checks files as the package at path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("type errors: %w", typeErrs[0])
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// buildTags are the constraint tags erlint evaluates files under: the
// platform the repo targets plus release tags for the toolchain baked
// into the image.
var buildTags = func() map[string]bool {
	tags := map[string]bool{"linux": true, "amd64": true, "unix": true, "gc": true}
	for i := 1; i <= 24; i++ {
		tags[fmt.Sprintf("go1.%d", i)] = true
	}
	return tags
}()

// buildable reports whether a file survives filename GOOS/GOARCH suffixes
// and //go:build constraints under buildTags.
func buildable(name string, src []byte) bool {
	base := strings.TrimSuffix(name, ".go")
	base = strings.TrimSuffix(base, "_test")
	if parts := strings.Split(base, "_"); len(parts) > 1 {
		last := parts[len(parts)-1]
		if knownArch[last] {
			if last != "amd64" {
				return false
			}
			if len(parts) > 2 && knownOS[parts[len(parts)-2]] && parts[len(parts)-2] != "linux" {
				return false
			}
		} else if knownOS[last] && last != "linux" {
			return false
		}
	}
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			return false
		}
		return expr.Eval(func(tag string) bool { return buildTags[tag] })
	}
	return true
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}
