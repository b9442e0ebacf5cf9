// Package errwrap enforces the repo's typed-error discipline (PR 4/6):
// errors carrying a cause must wrap it with %w so callers can match
// through the chain, and comparisons against the packages' exported
// sentinels (ErrSnapshotCorrupt, ErrArtifactVersion, ErrCodecCorrupt, …) must go
// through errors.Is — a == that used to work breaks silently the moment a
// call boundary starts wrapping.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/erlint/internal/analysis"
)

// Analyzer flags fmt.Errorf calls that format an error argument without
// %w, and ==/!=/switch-case comparisons of errors against Err* sentinels.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf with an error argument must use %w, and sentinel " +
		"comparisons must use errors.Is, never == or switch cases",
	Run: run,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorf(pass, n)
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkErrorf flags fmt.Errorf("... %v ...", err) style calls: an
// error-typed argument formatted by anything when the format has no %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" || len(call.Args) < 2 {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if countVerb(constant.StringVal(tv.Value), 'w') > 0 {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorExpr(pass, arg) {
			pass.Reportf(arg.Pos(),
				"fmt.Errorf formats an error argument without %%w; wrap with %%w so errors.Is/As match through the chain")
		}
	}
}

// countVerb counts occurrences of %<verb>, skipping %% escapes and any
// flag/width characters between the percent and the verb.
func countVerb(format string, verb byte) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		j := i + 1
		for j < len(format) && strings.IndexByte("+-# 0123456789.*[]", format[j]) >= 0 {
			j++
		}
		if j < len(format) {
			if format[j] == verb {
				n++
			}
			i = j
		}
	}
	return n
}

// checkCompare flags err ==/!= ErrSentinel.
func checkCompare(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
		sentinel, other := pair[0], pair[1]
		if name, ok := sentinelName(pass, sentinel); ok && isErrorExpr(pass, other) {
			pass.Reportf(bin.Pos(),
				"error compared against sentinel %s with %s; use errors.Is so wrapped errors still match", name, bin.Op)
			return
		}
	}
}

// checkSwitch flags switch err { case ErrSentinel: } comparisons.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isErrorExpr(pass, sw.Tag) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, v := range cc.List {
			if name, ok := sentinelName(pass, v); ok {
				pass.Reportf(v.Pos(),
					"switch compares error against sentinel %s with ==; use errors.Is so wrapped errors still match", name)
			}
		}
	}
}

// sentinelName reports whether expr refers to a package-level error
// variable named Err*, the repo's sentinel convention.
func sentinelName(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	obj := pass.TypesInfo.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") || !types.Implements(v.Type(), errorIface) {
		return "", false
	}
	return v.Name(), true
}

// isErrorExpr reports whether expr's static type satisfies error. Nil
// literals and non-error operands are excluded.
func isErrorExpr(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorIface)
}
