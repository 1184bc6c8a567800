package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AnalyzerCancelFlow verifies that a deadline, once a function has one,
// reaches every blocking operation the function performs. A function is
// in scope when it receives a context.Context, receives a CallPolicy, or
// is a method on a struct carrying a CallPolicy field — the three ways a
// deadline enters the fan-out path (fanClients -> transport). In scope,
// the rule flags:
//
//   - context.Background()/context.TODO() passed onward: the incoming
//     cancellation signal is severed at that call;
//   - a zero CallPolicy literal passed onward: same severing, for the
//     module's own deadline carrier;
//   - naked blocking operations — time.Sleep, sync.WaitGroup.Wait,
//     channel sends/receives outside a select, net.Dial without a
//     timeout — none of which observe the deadline the caller was
//     promised. net.DialTimeout is exempt (it bounds itself), as are
//     receives from ctx.Done() (awaiting cancellation *is* the point).
//
// Independently of scope, function literals passed to the fan-out
// machinery (fanClients / fanOut) must not block directly: the fan-out
// cancels losers when the first error lands, but only between callback
// invocations — a callback stuck in its own sleep or channel op escapes
// that, and one straggler stalls the round. Callbacks are expected to
// route all waiting through policy-bounded client calls.
var AnalyzerCancelFlow = &Analyzer{
	Name: "cancelflow",
	Doc:  "functions holding a context or CallPolicy deadline must propagate it into every blocking operation",
	Run:  runCancelFlow,
}

func runCancelFlow(p *Pass) {
	for _, f := range p.Index.Funcs {
		hasCtx, hasPolicy, carrier := deadlineCarriers(f.pkg.Info, f.decl)
		if hasCtx || hasPolicy {
			checkScopedBody(p, f.pkg.Info, f.decl, hasCtx, hasPolicy, carrier)
		}
		checkFanOutCallbacks(p, f.pkg.Info, f.decl)
	}
}

// deadlineCarriers reports which deadline carriers fd holds: a
// context.Context parameter, a CallPolicy parameter, or a receiver whose
// struct type has a CallPolicy field. carrier names the source for the
// report text.
func deadlineCarriers(info *types.Info, fd *ast.FuncDecl) (hasCtx, hasPolicy bool, carrier string) {
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isContextType(t) {
			hasCtx, carrier = true, "a context parameter"
		}
		if isCallPolicyType(t) {
			hasPolicy = true
			if carrier == "" {
				carrier = "a CallPolicy parameter"
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := info.TypeOf(fd.Recv.List[0].Type)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if isCallPolicyType(st.Field(i).Type()) {
					hasPolicy = true
					if carrier == "" {
						carrier = "a CallPolicy field"
					}
				}
			}
		}
	}
	return hasCtx, hasPolicy, carrier
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isCallPolicyType matches the module's deadline carrier by name so
// fixture packages can declare their own CallPolicy.
func isCallPolicyType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "CallPolicy"
}

// checkScopedBody walks fd's own body (function literals are separate
// goroutines or callbacks, audited at their own sites) and reports
// deadline-severing calls and naked blocking operations.
func checkScopedBody(p *Pass, info *types.Info, fd *ast.FuncDecl, hasCtx, hasPolicy bool, carrier string) {
	fname := fd.Name.Name
	walkStack(fd.Body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if hasCtx && isFreshContextCall(info, arg) {
					p.Report(arg.Pos(), fmt.Sprintf(
						"%s passes %s to %s despite holding %s: the cancellation signal is severed here",
						fname, calleeName(info, ast.Unparen(arg).(*ast.CallExpr)), callTargetName(info, n), carrier), nil)
				}
				if hasPolicy && isZeroPolicyLit(info, arg) {
					p.Report(arg.Pos(), fmt.Sprintf(
						"%s passes a zero CallPolicy to %s despite holding %s: the deadline is severed here",
						fname, callTargetName(info, n), carrier), nil)
				}
			}
		}
		switch kind := cancelBlocking(info, stack); kind {
		case blockSleep, blockWGWait:
			p.Report(n.Pos(), fmt.Sprintf(
				"%s in %s, which holds %s: it ignores the deadline; select on a timer and the cancellation signal instead",
				kind, fname, carrier), nil)
		case blockNetIO:
			if isBareDial(info, n.(*ast.CallExpr)) {
				p.Report(n.Pos(), fmt.Sprintf(
					"unbounded net.Dial in %s, which holds %s: use net.DialTimeout bounded by the deadline",
					fname, carrier), nil)
			}
		case blockChanSend:
			p.Report(n.Pos(), fmt.Sprintf(
				"naked channel send in %s, which holds %s: a missing receiver blocks past the deadline; select on the cancellation signal too",
				fname, carrier), nil)
		case blockChanRecv:
			p.Report(n.Pos(), fmt.Sprintf(
				"naked channel receive in %s, which holds %s: a missing sender blocks past the deadline; select on the cancellation signal too",
				fname, carrier), nil)
		}
		return true
	})
}

// cancelBlocking is blockingOp as cancelflow counts it: a receive from
// ctx.Done() awaits the cancellation signal itself, which is the point.
func cancelBlocking(info *types.Info, stack []ast.Node) blockingKind {
	kind, _ := blockingOp(info, stack)
	if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && isCtxDoneCall(info, u.X) {
		return ""
	}
	return kind
}

// isFreshContextCall recognizes context.Background() / context.TODO().
func isFreshContextCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPkgFunc(info, call, "context", "Background") || isPkgFunc(info, call, "context", "TODO")
}

// isZeroPolicyLit recognizes an empty CallPolicy{} composite literal.
func isZeroPolicyLit(info *types.Info, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	t := info.TypeOf(lit)
	return t != nil && isCallPolicyType(t)
}

// isBareDial recognizes the unbounded net dials (everything but
// DialTimeout, which carries its own bound).
func isBareDial(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net" {
		return false
	}
	switch fn.Name() {
	case "Dial", "DialIP", "DialTCP", "DialUDP", "DialUnix":
		return true
	}
	return false
}

// isCtxDoneCall recognizes a `ctx.Done()` call.
func isCtxDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Name() != "Done" {
		return false
	}
	pkg, typ := methodOf(fn)
	return pkg == "context" && typ != ""
}

// callTargetName names the callee of a call for report text.
func callTargetName(info *types.Info, call *ast.CallExpr) string {
	if name := calleeName(info, call); name != "" {
		return name
	}
	return "callee"
}

// checkFanOutCallbacks flags function literals handed to the fan-out
// machinery that block directly instead of routing waits through
// policy-bounded client calls.
func checkFanOutCallbacks(p *Pass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.Index.Static(info, call)
		if fn == nil || (fn.obj.Name() != "fanClients" && fn.obj.Name() != "fanOut") {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			checkCallbackBody(p, info, fn.obj.Name(), lit)
		}
		return true
	})
}

// checkCallbackBody reports direct blocking inside one fan-out callback.
func checkCallbackBody(p *Pass, info *types.Info, fanName string, lit *ast.FuncLit) {
	walkStack(lit.Body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		if _, ok := n.(*ast.FuncLit); ok {
			// Nested literals run as their own goroutines or callbacks;
			// walkStack roots at lit.Body, so every FuncLit seen is nested.
			return false
		}
		switch kind := cancelBlocking(info, stack); kind {
		case blockSleep, blockWGWait, blockNetIO, blockChanSend, blockChanRecv:
			p.Report(n.Pos(), fmt.Sprintf(
				"%s callback performs %s directly: first-error cancellation cannot interrupt it, so one straggler stalls the round; route the wait through a policy-bounded client call",
				fanName, kind), nil)
		}
		return true
	})
}
