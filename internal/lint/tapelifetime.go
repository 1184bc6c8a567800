package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerTapeLifetime enforces the pool/tape release discipline from
// DESIGN.md ("Kernel architecture"): a tensor.NewPooled buffer (or either
// result of tensor.Dropout) or an autograd tape acquired inside a function
// must be handed back with Release before the function exits, unless
// ownership visibly escapes (returned, stored — a dropout mask in the op
// that owns it — or passed to another function). The check is
// flow-insensitive def/use over the AST — any Release call on the
// variable, including a deferred one, satisfies it — so it cannot prove
// per-path leaks, but it catches the dominant hazard: an acquisition with
// no release anywhere.
var AnalyzerTapeLifetime = &Analyzer{
	Name: "tapelifetime",
	Doc:  "pooled tensors and autograd tapes must be Released (or escape) in the acquiring function",
	Run:  perPackage(runTapeLifetime),
}

// acquisition is one tracked pooled value or tape inside a function.
type acquisition struct {
	obj  types.Object
	pos  token.Pos
	what string // "tensor.NewPooled buffer" or "autograd tape"
	tape bool   // tapes only count once Track is called on them
}

func runTapeLifetime(p *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncLifetimes(p, pkg.Info, fn)
		}
	}
}

func checkFuncLifetimes(p *Pass, info *types.Info, fn *ast.FuncDecl) {
	var acqs []*acquisition

	// Pass 1: collect acquisitions bound to plain local identifiers.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
				// out, mask := tensor.Dropout(...): both results are pooled
				// and the caller's — the mask is no node's data, so no tape
				// returns it unless an op takes it over (which is an escape).
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && isPkgFunc(info, call, "internal/tensor", "Dropout") {
					for i, what := range []string{"tensor.Dropout product", "tensor.Dropout mask"} {
						if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
							if obj := defOrUse(info, id); obj != nil {
								acqs = append(acqs, &acquisition{obj: obj, pos: id.Pos(), what: what})
							}
						}
					}
				}
				return true
			}
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			if a := classifyAcquisition(info, id, st.Rhs[0]); a != nil {
				acqs = append(acqs, a)
			}
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					var a *acquisition
					switch {
					case len(vs.Values) > i:
						a = classifyAcquisition(info, name, vs.Values[i])
					case vs.Type != nil && isTapeType(info.TypeOf(vs.Type)):
						// var tape autograd.Tape — the zero value is a
						// ready-to-use tape.
						a = &acquisition{obj: info.Defs[name], pos: name.Pos(), what: "autograd tape", tape: true}
					}
					if a != nil {
						acqs = append(acqs, a)
					}
				}
			}
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	// Pass 2: flow-insensitive def/use classification of every reference.
	type state struct {
		released, tracked, escaped bool
	}
	states := make(map[*acquisition]*state, len(acqs))
	byObj := make(map[types.Object]*acquisition, len(acqs))
	for _, a := range acqs {
		if a.obj == nil {
			continue
		}
		states[a] = &state{}
		byObj[a.obj] = a
	}
	walkStack(fn.Body, func(stack []ast.Node) bool {
		id, ok := stack[len(stack)-1].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		a, ok := byObj[obj]
		if !ok {
			return true
		}
		st := states[a]
		// Method call on the variable itself stays local; anything else
		// (return, call argument, reassignment, address-of, composite
		// literal, ...) may transfer ownership, so the rule stands down.
		if len(stack) >= 3 {
			if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.X == id {
				if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == sel {
					switch sel.Sel.Name {
					case "Release":
						st.released = true
					case "Track":
						st.tracked = true
					}
					return true
				}
				return true // bare selector (field or method value): local use
			}
		}
		st.escaped = true
		return true
	})

	for _, a := range acqs {
		st := states[a]
		if st == nil || st.released || st.escaped {
			continue
		}
		if a.tape && !st.tracked {
			continue // an empty tape holds nothing to release
		}
		p.Reportf(a.pos, "%s is acquired here but never Released on any path out of %s (and never escapes); pair it with Release or a defer",
			a.what, fn.Name.Name)
	}
}

// classifyAcquisition recognizes `x := tensor.NewPooled(...)` and
// `x := autograd.Tape{}` forms (the two-result `out, mask :=
// tensor.Dropout(...)` is recognized where assignments are collected).
func classifyAcquisition(info *types.Info, id *ast.Ident, rhs ast.Expr) *acquisition {
	obj := defOrUse(info, id)
	if obj == nil {
		return nil
	}
	switch v := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		for _, name := range []string{"NewPooled", "NewPooledUninit", "NewPooledOneHot", "NewPooledBitmap", "NewPooledMasked"} {
			if isPkgFunc(info, v, "internal/tensor", name) {
				return &acquisition{obj: obj, pos: id.Pos(), what: "tensor." + name + " buffer"}
			}
		}
		if isPkgFunc(info, v, "internal/coldata", "AcquireBlockBuf") {
			return &acquisition{obj: obj, pos: id.Pos(), what: "coldata.AcquireBlockBuf buffer"}
		}
	case *ast.CompositeLit:
		if isTapeType(info.TypeOf(v)) {
			return &acquisition{obj: obj, pos: id.Pos(), what: "autograd tape", tape: true}
		}
	}
	return nil
}

// defOrUse returns the variable an assignment's left-hand identifier names,
// whether the statement defines it or assigns to an existing one.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isTapeType reports whether t is autograd.Tape (or a pointer to it).
func isTapeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Tape" && pkgPathSuffix(named.Obj(), "internal/autograd")
}
