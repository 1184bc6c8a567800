package lint

import (
	"go/ast"
	"go/token"
)

// AnalyzerFloatEq flags == and != between floating-point (or complex)
// operands in non-test code. Exact float equality is almost always a
// rounding-hazard bug in numeric code; the rare deliberate uses (exact
// sparsity skips in kernels, NaN idioms) must carry a targeted
// //lint:ignore with a reason, which keeps every such decision auditable.
// Comparisons where both operands are compile-time constants are exempt
// (they are evaluated exactly).
var AnalyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= on floating-point operands outside tests",
	Run:  perPackage(runFloatEq),
}

func runFloatEq(p *Pass, pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, ty := info.TypeOf(be.X), info.TypeOf(be.Y)
			if tx == nil || ty == nil || (!isFloat(tx) && !isFloat(ty)) {
				return true
			}
			if info.Types[be.X].Value != nil && info.Types[be.Y].Value != nil {
				return true // constant-folded: exact by definition
			}
			p.Reportf(be.OpPos, "floating-point %s comparison is rounding-sensitive; compare with an explicit tolerance, an ordered bound, or integer conversion", be.Op)
			return true
		})
	}
}
