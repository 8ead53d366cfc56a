// Package errloss implements the smoothvet analyzer for wire-path error
// hygiene in the serving packages (internal/serve, internal/netstream,
// internal/diag, internal/obs, internal/lb): a call whose results include
// an error must not be used as a bare statement (or go statement). Handle
// the error or discard it with an explicit `_ =` assignment, which is
// greppable and review-visible. Deferred calls are exempt (deferred
// cleanup has nowhere to report), as is the fmt.Print family.
package errloss

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Scope lists package-path suffixes the analyzer applies to. A variable so
// the analyzer's tests can scope their testdata packages in.
var Scope = []string{
	"repro/internal/serve",
	"repro/internal/netstream",
	"repro/internal/diag",
	"repro/internal/obs",
	"repro/internal/lb",
}

// Analyzer is the error-hygiene checker.
var Analyzer = &framework.Analyzer{
	Name: "errloss",
	Doc:  "report silently dropped errors in the serving packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !pass.InScope(Scope) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkDroppedErrors(pass, fd)
			}
		}
	}
	return nil
}

// checkDroppedErrors flags expression-statement and go-statement calls
// whose results include an error.
func checkDroppedErrors(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = ast.Unparen(n.X).(*ast.CallExpr)
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			return false // deferred cleanup is exempt
		}
		if call == nil {
			return true
		}
		if !returnsError(pass, call) || isPrintCall(pass, call) {
			return true
		}
		pass.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or assign to _ explicitly", types.ExprString(call.Fun))
		return true
	})
}

// returnsError reports whether any result of the call is error-typed.
func returnsError(pass *framework.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// isPrintCall exempts the fmt.Print family, whose error results are
// conventionally ignored.
func isPrintCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
}
