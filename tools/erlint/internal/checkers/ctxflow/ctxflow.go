// Package ctxflow enforces the pipeline's cancellation discipline (PR 2):
// concurrency must be cancelable. A function that starts goroutines,
// blocks in a select, or calls a ...Ctx variant needs a context.Context of
// its own to thread through, and a channel send in internal/fanout, the
// worker pool every parallel stage runs on, may never block without a
// ctx.Done() (or default) escape — a blocked send with no way out is how a
// canceled resolve leaks its workers.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/erlint/internal/analysis"
)

// Analyzer flags concurrency without a context and, in internal/fanout,
// blocking channel sends outside a cancelable select.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "functions that start goroutines, select on channels or call ...Ctx " +
		"variants must accept a context.Context; blocking sends in " +
		"internal/fanout must sit in a select with ctx.Done() or default",
	Run: run,
}

// sendGuardedPkg is the import-path suffix of the one package whose channel
// sends must be cancelable: the worker pool, whose budget acquire is the
// one channel send under internal/.
const sendGuardedPkg = "internal/fanout"

func run(pass *analysis.Pass) (any, error) {
	guarded := strings.HasSuffix(pass.Pkg.Path(), sendGuardedPkg)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
			if guarded {
				checkSends(pass, fd)
			}
		}
	}
	return nil, nil
}

// checkFunc requires a context.Context parameter on functions that use
// cancellation-relevant concurrency. Everything inside the declaration,
// nested closures included, is attributed to it: the closures inherit
// their cancellation signal from its scope.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if exemptFunc(pass, fd) {
		return
	}
	var reason string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			reason = "starts a goroutine"
		case *ast.SelectStmt:
			if !hasDefault(n) {
				reason = "blocks in a select"
			}
		case *ast.CallExpr:
			if name := calleeName(n); strings.HasSuffix(name, "Ctx") && len(name) > len("Ctx") {
				reason = "calls " + name
			}
		}
		return true
	})
	if reason != "" {
		pass.Reportf(fd.Name.Pos(),
			"%s %s but has no context.Context parameter; cancellation cannot reach it", fd.Name.Name, reason)
	}
}

// exemptFunc reports whether fd may use concurrency without its own
// context parameter: it already has one (or an *http.Request / testing
// harness that carries one), it is main/init, or it is a method on a type
// that stores its lifecycle context in a field.
func exemptFunc(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name == "main" || fd.Name.Name == "init" {
		return true
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if isContext(t) || isNamed(t, "net/http", "Request") ||
				isNamed(t, "testing", "T") || isNamed(t, "testing", "B") || isNamed(t, "testing", "F") {
				return true
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if t != nil {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if isContext(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	return false
}

// checkSends flags blocking channel sends: a send statement outside any
// select, or inside a select that has neither a default clause nor a
// ctx.Done()-style receive to escape through.
func checkSends(pass *analysis.Pass, fd *ast.FuncDecl) {
	inSelect := make(map[*ast.SendStmt]*ast.SelectStmt)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					inSelect[send] = sel
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		sel := inSelect[send]
		if sel == nil {
			pass.Reportf(send.Arrow,
				"blocking channel send outside select; guard it with a select on ctx.Done() so cancellation can reach it")
			return true
		}
		if !hasDefault(sel) && !hasDoneCase(pass, sel) {
			pass.Reportf(send.Arrow,
				"channel send in a select with no ctx.Done() case and no default; cancellation cannot unblock it")
		}
		return true
	})
}

// hasDefault reports whether the select has a default clause.
func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// hasDoneCase reports whether the select receives from a Done() channel of
// a context.Context value.
func hasDoneCase(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		unary, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok {
			continue
		}
		call, ok := ast.Unparen(unary.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		if fun, ok := call.Fun.(*ast.SelectorExpr); ok && fun.Sel.Name == "Done" {
			if t := pass.TypesInfo.TypeOf(fun.X); t != nil && isContext(t) {
				return true
			}
		}
	}
	return false
}

// calleeName extracts the bare called-function name from a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool { return isNamed(t, "context", "Context") }

// isNamed reports whether t (or the type it points to) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
