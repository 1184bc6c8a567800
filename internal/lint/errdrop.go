package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerErrDrop flags statements that call an error-returning function
// and silently drop the result: bare expression statements, defers, go
// statements, and all-blank assignments (_ = f(), var _ = f()). In this
// codebase a dropped error on a vfl transport or protocol call means a
// failed round looks like a successful one, and a dropped Close on a
// written file means data loss goes unnoticed. A discard that is truly
// deliberate must say why via //lint:ignore errdrop <reason>, which keeps
// every such decision auditable. Calls into fmt and writes to in-memory
// buffers (strings.Builder, bytes.Buffer), which are documented never to
// fail meaningfully, are exempt.
var AnalyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag statements that silently drop an error result",
	Run:  perPackage(runErrDrop),
}

func runErrDrop(p *Pass, pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(st.X).(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			case *ast.AssignStmt:
				call = blankDroppedCall(st.Lhs, st.Rhs)
			case *ast.ValueSpec:
				call = blankDroppedCall(identsToExprs(st.Names), st.Values)
			}
			if call == nil || !returnsError(info, call) || errDropExempt(info, call) {
				return true
			}
			p.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or annotate the discard with //lint:ignore errdrop <reason>", calleeName(info, call))
			return true
		})
	}
}

// blankDroppedCall returns the discarded call of an assignment whose every
// target is the blank identifier (_ = f(), _, _ = g()); mixed assignments
// like v, _ := h() keep at least one result and are not discards.
func blankDroppedCall(lhs, rhs []ast.Expr) *ast.CallExpr {
	if len(rhs) != 1 {
		return nil
	}
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil
		}
	}
	call, _ := ast.Unparen(rhs[0]).(*ast.CallExpr)
	return call
}

func identsToExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// returnsError reports whether any result of the call is the error type.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// errDropExempt lists the never-meaningfully-fails targets: the fmt
// package and in-memory buffer writers.
func errDropExempt(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return false
	}
	pkg, typ := methodOf(fn)
	return pkg == "fmt" || pkg+"."+typ == "strings.Builder" || pkg+"."+typ == "bytes.Buffer"
}
