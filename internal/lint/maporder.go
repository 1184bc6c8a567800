package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMapOrder flags the classic nondeterminism leak: iterating a map
// while (a) appending to a slice declared outside the loop, or (b)
// accumulating into an order-sensitive value declared outside the loop —
// float sums (addition is not associative), string concatenation, or any
// self-referential update like `total = ag.Add(total, x)` — or (c) drawing
// from a pseudo-random stream, which pairs each key with a different slice
// of the stream depending on the iteration order of the moment. Go
// randomizes map iteration order per run, so such loops make same-seed
// training runs diverge. Integer and boolean accumulations are exact and
// order-independent, so they are exempt; appends followed by an explicit
// sort of the same slice later in the function are recognized as the
// collect-then-sort idiom and exempt too, as are RNG constructors (an
// independently seeded stream is order-safe).
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive accumulation inside range-over-map loops",
	Run:  perPackage(runMapOrder),
}

func runMapOrder(p *Pass, pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		walkStack(file, func(stack []ast.Node) bool {
			rs, ok := stack[len(stack)-1].(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := info.TypeOf(rs.X); t == nil || !isMapType(t) {
				return true
			}
			checkMapRangeBody(p, info, rs, enclosingFuncBody(append(stack, rs)))
			return true
		})
	}
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRangeBody(p *Pass, info *types.Info, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := calleeObject(info, call).(*types.Func); ok && isRNGDraw(fn) {
				p.Reportf(call.Pos(), "%s draws from the RNG inside range over a map: the stream is consumed in nondeterministic order; iterate sorted keys instead", fn.Name())
			}
			return true
		}
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch st.Tok {
		case token.ASSIGN:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !declaredOutside(obj, rs) {
				return true
			}
			if isSelfAppend(info, obj, st.Rhs[0]) {
				if !sortedAfter(info, funcBody, obj, rs.End()) {
					p.Reportf(st.Pos(), "append to %s inside range over a map: iteration order is nondeterministic; iterate sorted keys or sort %s afterwards", id.Name, id.Name)
				}
				return true
			}
			if isOrderInsensitive(obj.Type()) {
				return true
			}
			if exprMentions(info, st.Rhs[0], obj) {
				p.Reportf(st.Pos(), "self-referential update of %s inside range over a map accumulates in nondeterministic order; iterate sorted keys instead", id.Name)
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !declaredOutside(obj, rs) || isOrderInsensitive(obj.Type()) {
				return true
			}
			p.Reportf(st.Pos(), "%s accumulation into %s inside range over a map happens in nondeterministic order; iterate sorted keys instead", st.Tok, id.Name)
		}
		return true
	})
}

// isRNGDraw reports whether fn consumes a pseudo-random stream: any
// function or method from math/rand (or this module's capturable wrapper)
// except constructors, which seed an independent stream and are
// order-safe. Drawing inside a map range hands each key a different slice
// of the stream depending on the iteration order of the moment — the
// split-assignment bug class, where every value drawn is individually
// deterministic but their pairing with keys is not.
func isRNGDraw(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math/rand", "math/rand/v2", "repro/internal/rng":
	default:
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8", "Seed":
		return false
	}
	return true
}

// declaredOutside reports whether obj's declaration precedes the range
// statement (loop-local accumulators reset every iteration and are
// harmless).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos()
}

// isSelfAppend matches `x = append(x, ...)`.
func isSelfAppend(info *types.Info, obj types.Object, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" || info.Uses[fn] != types.Universe.Lookup("append") {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[first] == obj
}

// exprMentions reports whether e references obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether the function body contains, after pos, a
// call into sort or slices that mentions obj — the collect-then-sort
// idiom that restores determinism.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	if funcBody == nil {
		return false
	}
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn, ok := calleeObject(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(info, arg, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
