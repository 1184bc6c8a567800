package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerGlobalRand enforces the repo's seeded-randomness discipline:
// same-seed runs must be byte-identical (the shuffling defense and
// DP-noise ablations are only auditable when training replays exactly),
// so all randomness must flow through per-client *rand.Rand instances
// seeded from configuration. Process-global math/rand functions and
// RNG seeds derived from time.Now() both break replays; they are banned
// everywhere except command packages (any path segment "cmd"), where
// wall-clock use for logging/timing is legitimate.
var AnalyzerGlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "ban process-global math/rand functions and time-derived RNG seeds outside cmd/",
	Run:  perPackage(runGlobalRand),
}

// mathRandAllowed lists the math/rand (and v2) top-level functions that do
// NOT consume the process-global source: constructors for explicit,
// seedable generators.
var mathRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalRand(p *Pass, pkg *Package) {
	if isCommandPath(pkg.Path) {
		return
	}
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[e.Sel].(*types.Func); ok && isMathRandPkg(fn.Pkg()) &&
					fn.Type().(*types.Signature).Recv() == nil && !mathRandAllowed[fn.Name()] {
					p.Reportf(e.Pos(), "math/rand.%s draws from the process-global source; route randomness through a seeded *rand.Rand so same-seed runs replay byte-identically", fn.Name())
				}
			case *ast.CallExpr:
				obj := calleeObject(info, e)
				fn, ok := obj.(*types.Func)
				if !ok || !isMathRandPkg(fn.Pkg()) || !mathRandAllowed[fn.Name()] {
					return true
				}
				for _, arg := range e.Args {
					if tn := findTimeNow(info, arg); tn != nil {
						p.Reportf(tn.Pos(), "seeding rand.%s from time.Now() makes runs unreproducible; derive seeds from configuration", fn.Name())
					}
				}
			}
			return true
		})
	}
}

// isCommandPath reports whether an import path contains a "cmd" segment.
func isCommandPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return false
}

// isMathRandPkg reports whether pkg is math/rand or math/rand/v2.
func isMathRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// findTimeNow returns the first time.Now() call in the expression tree,
// or nil.
func findTimeNow(info *types.Info, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := calleeObject(info, call).(*types.Func); ok &&
			fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			found = call
			return false
		}
		return true
	})
	return found
}
