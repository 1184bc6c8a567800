package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestIndexResolvesCalls loads a three-package module and asks the index
// the questions the whole-module rules ask it: a cross-package call and a
// method promoted from an embedded struct resolve statically to their
// declarations, an interface call resolves to nothing statically and to the
// implementing method through Impls, once however many types (Wrapped,
// PtrWrapped) it is promoted into.
func TestIndexResolvesCalls(t *testing.T) {
	pkgs := loadTempModule(t, map[string]string{
		"go.mod":       "module example.com/m\n\ngo 1.21\n",
		"iface/i.go":   "package iface\n\ntype Doer interface{ Do() int }\n\nfunc Call(d Doer) int { return d.Do() }\n",
		"impl/impl.go": "package impl\n\ntype Base struct{}\n\nfunc (Base) Do() int { return 1 }\n\ntype Wrapped struct{ Base }\n\ntype PtrWrapped struct{ *Base }\n",
		"m.go":         "package m\n\nimport (\n\t\"example.com/m/iface\"\n\t\"example.com/m/impl\"\n)\n\nfunc Run() int {\n\tvar w impl.Wrapped\n\treturn iface.Call(w) + w.Do()\n}\n",
	})
	ix := buildIndex(pkgs)

	funcs := make(map[string]*Func)
	for _, f := range ix.Funcs {
		funcs[f.name] = f
	}
	for _, name := range []string{"m.Run", "iface.Call", "Base.Do"} {
		if funcs[name] == nil {
			t.Fatalf("index has no function %q: %v", name, funcs)
		}
	}
	// calls maps the rendered callee of each call in f's body to the call.
	calls := func(f *Func) map[string]*ast.CallExpr {
		out := make(map[string]*ast.CallExpr)
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				out[calleeName(f.pkg.Info, call)] = call
			}
			return true
		})
		return out
	}

	run := funcs["m.Run"]
	if got := ix.Static(run.pkg.Info, calls(run)["iface.Call"]); got != funcs["iface.Call"] {
		t.Errorf("cross-package call iface.Call(w) resolves to %v, want iface.Call", got)
	}
	if got := ix.Static(run.pkg.Info, calls(run)["w.Do"]); got != funcs["Base.Do"] {
		t.Errorf("promoted method call w.Do() resolves to %v, want Base.Do", got)
	}

	call := funcs["iface.Call"]
	dispatch := calls(call)["d.Do"]
	if got := ix.Static(call.pkg.Info, dispatch); got != nil {
		t.Errorf("interface call d.Do() resolves statically to %v, want nil", got.name)
	}
	m, _ := calleeObject(call.pkg.Info, dispatch).(*types.Func)
	if m == nil || !isInterfaceMethod(m) {
		t.Fatalf("d.Do() does not name an interface method: %v", m)
	}
	impls := ix.Impls(m)
	if len(impls) != 1 || impls[0] != funcs["Base.Do"] {
		names := make([]string, len(impls))
		for i, impl := range impls {
			names[i] = impl.name
		}
		t.Errorf("Impls(Doer.Do) = %v, want [Base.Do] (declared on Base, promoted into Wrapped and PtrWrapped)", names)
	}
}
