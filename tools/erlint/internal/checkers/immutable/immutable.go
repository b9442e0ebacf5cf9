// Package immutable enforces the repo's publish-immutability invariant
// (PRs 3/5/7): values like serving.Index, pipeline.Snapshot and
// textsim.PackedVector are built once, published behind an atomic pointer
// or shared snapshot, and then only read. A type opts in with an
// erlint:immutable marker on its declaration; from then on its fields may
// only be written while the value is provably fresh — a local just built
// with &T{…}/new(T)/a value-typed copy — or inside a standard decoder
// method (GobDecode, UnmarshalBinary, …), which by contract initializes
// its receiver. Writes through parameters, globals, struct fields and
// range-aliased pointers are flagged: those are exactly the values that
// may already be visible to concurrent readers.
package immutable

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"

	"repro/tools/erlint/internal/analysis"
	"repro/tools/erlint/internal/directive"
)

// Analyzer flags field writes to erlint:immutable types outside fresh
// construction and decoder methods.
var Analyzer = &analysis.Analyzer{
	Name: "immutable",
	Doc: "types marked // erlint:immutable may only have fields written " +
		"while freshly constructed or inside their decoder methods",
	Run: run,
}

// decoderMethods are receiver-initializing methods the Go ecosystem
// defines by contract; writes to the receiver are construction, not
// mutation.
var decoderMethods = map[string]bool{
	"GobDecode":       true,
	"UnmarshalBinary": true,
	"UnmarshalJSON":   true,
	"UnmarshalText":   true,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:      pass,
		local:     localAnnotated(pass),
		fileCache: make(map[string][]string),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
		// Package-level var initializers can also mutate: var _ = mutate().
		// Writes can only hide inside function literals, which ast.Inspect
		// on declarations above already covered via FuncDecl bodies; var
		// blocks hold expressions, not statements, so nothing to do here.
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	// local is the set of annotated type objects declared in this package.
	local map[*types.TypeName]bool
	// fileCache memoizes source lines for cross-package marker lookup.
	fileCache map[string][]string
}

// localAnnotated collects the erlint:immutable types declared in the
// package under analysis.
func localAnnotated(pass *analysis.Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !directive.IsImmutable(gd.Doc, ts.Doc, ts.Comment) {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					out[tn] = true
				}
			}
		}
	}
	return out
}

// annotated reports whether the named type carries the erlint:immutable
// marker. Same-package types come from syntax; a pass holds no syntax of
// its imports, so imported types are checked by reading the declaration
// site recorded in their type information.
func (c *checker) annotated(tn *types.TypeName) bool {
	if tn.Pkg() == c.pass.Pkg {
		return c.local[tn]
	}
	pos := c.pass.Fset.Position(tn.Pos())
	if !pos.IsValid() || pos.Filename == "" {
		return false
	}
	lines, ok := c.fileCache[pos.Filename]
	if !ok {
		lines = readLines(pos.Filename)
		c.fileCache[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) {
		return false
	}
	// The marker sits on the declaration line or in the doc comment
	// immediately above it.
	for i := pos.Line - 1; i >= 0 && i >= pos.Line-12; i-- {
		line := lines[i]
		if i < pos.Line-1 {
			trimmed := strings.TrimSpace(line)
			if !strings.HasPrefix(trimmed, "//") {
				break
			}
		}
		if strings.Contains(line, "erlint:immutable") {
			return true
		}
	}
	return false
}

func readLines(path string) []string {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

// checkFunc inspects one function body for writes into annotated types.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				c.checkWrite(fd, lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(fd, n.X)
		}
		return true
	})
}

// checkWrite walks the write target's selector chain; if any selection
// reads a field of an annotated type, the write mutates that type and must
// be justified by freshness or a decoder method.
func (c *checker) checkWrite(fd *ast.FuncDecl, target ast.Expr) {
	expr := target
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if sel, ok := c.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if tn := namedOwner(sel.Recv()); tn != nil && c.annotated(tn) {
					if !c.allowed(fd, e, tn) {
						c.pass.Reportf(target.Pos(),
							"write to field %s of immutable type %s.%s outside fresh construction; "+
								"erlint:immutable values may only be mutated while local to their constructor or in decoder methods",
							sel.Obj().Name(), tn.Pkg().Name(), tn.Name())
					}
					return
				}
			}
			expr = e.X
		default:
			return
		}
	}
}

// allowed reports whether a write through selector e into annotated type
// tn is legitimate: a decoder method's receiver, a value-typed local copy,
// or a pointer local every assignment of which is a fresh &T{}/new(T).
func (c *checker) allowed(fd *ast.FuncDecl, e *ast.SelectorExpr, tn *types.TypeName) bool {
	// Decoder methods on *T in T's package initialize their receiver.
	if fd.Recv != nil && decoderMethods[fd.Name.Name] && tn.Pkg() == c.pass.Pkg {
		if rt := c.pass.TypesInfo.TypeOf(fd.Recv.List[0].Type); rt != nil && namedOwner(rt) == tn {
			return true
		}
	}
	base, ok := baseIdent(e.X)
	if !ok {
		return false
	}
	obj, ok := c.pass.TypesInfo.Uses[base].(*types.Var)
	if !ok {
		return false
	}
	// The freshness exemptions reason about the annotated value itself; a
	// base variable of some other type (a helper struct holding a *T field,
	// say) reaches shared data no matter how local it is.
	if namedOwner(obj.Type()) != tn {
		return false
	}
	// A value-typed variable is its own copy: writes cannot reach a
	// published value. (Publishing the copy afterwards is the intended
	// build-then-publish pattern.)
	if _, isPtr := obj.Type().(*types.Pointer); !isPtr {
		_, isLocal := c.localOf(fd, obj)
		return isLocal || isParam(fd, c.pass, obj)
	}
	// A pointer variable must be body-local and only ever assigned fresh
	// allocations.
	assigns, isLocal := c.localOf(fd, obj)
	if !isLocal {
		return false
	}
	if len(assigns) == 0 {
		return false // range variable, closure capture we didn't see, …
	}
	for _, rhs := range assigns {
		if !c.fresh(rhs) {
			return false
		}
	}
	return true
}

// baseIdent finds the identifier at the bottom of a selector/index/deref
// chain; ok is false when the chain roots in a call or other non-variable.
func baseIdent(expr ast.Expr) (*ast.Ident, bool) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e, true
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil, false
		}
	}
}

// localOf reports whether obj is declared inside fd's body and collects
// every RHS expression assigned to it there (from :=, =, and var decls).
// Variables bound by range clauses or type switches contribute no RHS and
// therefore never count as fresh.
func (c *checker) localOf(fd *ast.FuncDecl, obj *types.Var) (assigns []ast.Expr, isLocal bool) {
	if obj.Pos() < fd.Body.Pos() || obj.Pos() > fd.Body.End() {
		return nil, false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if c.pass.TypesInfo.Defs[id] == obj || c.pass.TypesInfo.Uses[id] == obj {
					if len(n.Rhs) == len(n.Lhs) {
						assigns = append(assigns, n.Rhs[i])
					} else {
						// Multi-value call/comma-ok: not a fresh allocation.
						assigns = append(assigns, n.Rhs[0])
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if c.pass.TypesInfo.Defs[name] == obj {
					if i < len(n.Values) {
						assigns = append(assigns, n.Values[i])
					}
					// var x *T with no initializer stays nil until a
					// tracked assignment; nothing to record.
				}
			}
		}
		return true
	})
	return assigns, true
}

// isParam reports whether obj is one of fd's parameters or its receiver.
func isParam(fd *ast.FuncDecl, pass *analysis.Pass, obj *types.Var) bool {
	fields := []*ast.FieldList{fd.Type.Params, fd.Recv}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if pass.TypesInfo.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}

// fresh reports whether rhs is a fresh allocation of the written type:
// &T{…}, new(T), or a T{…} composite literal.
func (c *checker) fresh(rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
	}
	return false
}

// namedOwner unwraps pointers and returns the named type's object, nil for
// unnamed types.
func namedOwner(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
