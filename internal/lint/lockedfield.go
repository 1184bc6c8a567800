package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerLockedField checks mutex-guard annotations: a struct field whose
// doc or line comment says "guarded by <mutex>" (where <mutex> names a
// sibling field) may only be read or written inside functions that lock
// that mutex on the same receiver chain — `a.stats` demands an
// `a.mu.Lock()` (or RLock) somewhere in the enclosing function. The check
// is flow-insensitive: it proves the presence of a lock call, not that
// the lock is held at the access, which is exactly the class of mistake
// the concurrent per-client fan-out makes likely (grabbing CommStats
// fields from a goroutine that never touches the mutex).
var AnalyzerLockedField = &Analyzer{
	Name: "lockedfield",
	Doc:  "fields annotated 'guarded by <mutex>' must be accessed under that mutex",
	Run:  perPackage(runLockedField),
}

// guardInfo records one annotated field.
type guardInfo struct {
	mutex      string // sibling mutex field name
	structName string // for messages
}

func runLockedField(p *Pass, pkg *Package) {
	info := pkg.Info
	guards := collectGuards(pkg)
	if len(guards) == 0 {
		return
	}
	for _, file := range pkg.Files {
		walkStack(file, func(stack []ast.Node) bool {
			sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := info.Selections[sel]
			if selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
			g, ok := guards[selection.Obj()]
			if !ok {
				return true
			}
			body := outermostFuncBody(stack)
			base := types.ExprString(sel.X)
			if body == nil || !locksMutex(info, body, base, g.mutex) {
				p.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s.%s but this function never locks %s.%s",
					g.structName, selection.Obj().Name(), g.structName, g.mutex, base, g.mutex)
			}
			return true
		})
	}
}

// collectGuards finds every "guarded by <mutex>" field annotation in the
// package's struct declarations.
func collectGuards(pkg *Package) map[types.Object]guardInfo {
	info := pkg.Info
	guards := make(map[types.Object]guardInfo)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex := guardAnnotation(field)
				if mutex == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mutex: mutex, structName: ts.Name.Name}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// locksMutex reports whether body acquires the mutex <base>.<mutex>
// (Lock or RLock), comparing the base expression syntactically (receiver
// chains like s.comm match s.comm).
func locksMutex(info *types.Info, body *ast.BlockStmt, base, mutex string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			op, recv := classifyLockCall(info, call)
			mu, ok := recv.(*ast.SelectorExpr)
			found = op == lockAcquire && ok && mu.Sel.Name == mutex && lockBaseExpr(mu) == base
		}
		return !found
	})
	return found
}
