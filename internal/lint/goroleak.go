package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AnalyzerGoroLeak requires every `go` statement in the module to have a
// provable exit path, so the goroutine population stays bounded as the
// federation widens. A spawned body (a function literal, or the declared
// body of a statically resolved callee) is accounted for when one of:
//
//   - it contains no daemon loop (a `for` with no condition whose body
//     has no cancellation arm, or a `range` over a channel nothing ever
//     closes) — straight-line goroutines and bounded loops terminate;
//   - every daemon loop carries a cancellation arm: a select case
//     receiving from ctx.Done() or a close-signal channel
//     (chan struct{}) whose body returns or breaks;
//   - it is WaitGroup-paired: the body calls wg.Done() and the spawning
//     function calls wg.Add/wg.Wait, so the spawner observes the exit.
//
// Deliberate process-lifetime daemons (a worker pool, an accept loop, a
// connection demux) carry a reasoned //lint:ignore goroleak at the spawn
// site — making every unbounded goroutine an audited decision.
//
// Separately, a send on a provably unbuffered channel inside a spawned
// body, outside any select, is flagged when no receive can be shown: if
// every reader abandons the channel (a timed-out caller, an early
// return), the sender blocks forever — the classic abandoned-result
// leak. Buffering the channel by one (as attemptOnce does) removes it.
// The check only fires when the channel's make() is visible with a
// constant capacity, so dynamic channels never false-positive.
var AnalyzerGoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every spawned goroutine needs a provable exit path; unbuffered sends need a guaranteed receiver",
	Run:  runGoroLeak,
}

// goroLeakState memoizes daemon-loop classification per declared function.
type goroLeakState struct {
	pass *Pass
	// daemon memoizes whether a function's body (or a statically resolved
	// callee's, transitively) contains an unguarded daemon loop.
	daemon   map[*Func]*daemonLoop
	visiting map[*Func]bool
}

// daemonLoop describes the unguarded loop that makes a function a daemon.
type daemonLoop struct {
	what string // "infinite for loop" or "range over never-closed channel x"
	via  string // non-empty when inherited from a callee
}

func runGoroLeak(p *Pass) {
	st := &goroLeakState{
		pass:     p,
		daemon:   make(map[*Func]*daemonLoop),
		visiting: make(map[*Func]bool),
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			walkStack(file, func(stack []ast.Node) bool {
				gs, ok := stack[len(stack)-1].(*ast.GoStmt)
				if !ok {
					return true
				}
				st.checkGoStmt(pkg, stack, gs)
				return true
			})
		}
	}
}

// checkGoStmt applies the exit-path and unbuffered-send disciplines to
// one go statement.
func (st *goroLeakState) checkGoStmt(pkg *Package, stack []ast.Node, gs *ast.GoStmt) {
	info := pkg.Info
	spawner := outermostFuncBody(stack)

	var body *ast.BlockStmt
	var bodyInfo *types.Info
	var calleeName string
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		body, bodyInfo = lit.Body, info
	} else if fn := st.pass.Index.Static(info, gs.Call); fn != nil {
		body, bodyInfo, calleeName = fn.decl.Body, fn.pkg.Info, fn.obj.Name()
		// The callee itself may be a clean wrapper whose callees loop; the
		// memoized classification covers that transitively.
		if loop := st.funcDaemon(fn); loop != nil && !st.wgPaired(info, spawner, gs, body, bodyInfo) {
			st.reportDaemon(gs, calleeName, loop)
			return
		}
	} else {
		// Dynamic spawn (function value, interface method): nothing to
		// prove either way.
		return
	}
	if body == nil {
		return
	}

	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		loop := st.litDaemon(bodyInfo, lit.Body)
		if loop == nil {
			// Wrapping a daemon call in a literal must not evade the rule:
			// chase static callees the same way named spawns do.
			loop = st.calleeDaemon(bodyInfo, lit.Body, nil)
		}
		if loop != nil && !st.wgPaired(info, spawner, gs, body, bodyInfo) {
			st.reportDaemon(gs, "func literal", loop)
			return
		}
	}

	st.checkUnbufferedSends(pkg, bodyInfo, spawner, body, gs)
}

// reportDaemon emits the missing-exit-path finding.
func (st *goroLeakState) reportDaemon(gs *ast.GoStmt, what string, loop *daemonLoop) {
	msg := fmt.Sprintf("goroutine (%s) has no provable exit path: %s", what, loop.what)
	if loop.via != "" {
		msg += " (via " + loop.via + ")"
	}
	msg += "; add a ctx.Done()/close-signal select arm, pair it with a WaitGroup, or suppress as a deliberate daemon"
	st.pass.Report(gs.Pos(), msg, nil)
}

// wgPaired reports the WaitGroup idiom: the spawned body calls
// (*sync.WaitGroup).Done and the spawning function touches a WaitGroup
// (Add or Wait), so the spawner observes the goroutine's exit.
func (st *goroLeakState) wgPaired(spawnInfo *types.Info, spawner *ast.BlockStmt, gs *ast.GoStmt, body *ast.BlockStmt, bodyInfo *types.Info) bool {
	if spawner == nil || !hasWGCall(bodyInfo, body, "Done") {
		return false
	}
	return hasWGCall(spawnInfo, spawner, "Add") || hasWGCall(spawnInfo, spawner, "Wait")
}

// hasWGCall reports whether the block calls the named sync.WaitGroup
// method anywhere.
func hasWGCall(info *types.Info, block *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := calleeObject(info, call).(*types.Func); ok && fn.Name() == method {
			pkg, typ := methodOf(fn)
			found = pkg == "sync" && typ == "WaitGroup"
		}
		return !found
	})
	return found
}

// funcDaemon classifies a declared function: non-nil when its body (or a
// statically resolved callee's, transitively) contains an unguarded
// daemon loop. Function literals inside the body are excluded — they run
// on their own goroutines and are checked at their own go statements.
func (st *goroLeakState) funcDaemon(fn *Func) *daemonLoop {
	if l, ok := st.daemon[fn]; ok {
		return l
	}
	if st.visiting[fn] {
		return nil
	}
	st.visiting[fn] = true
	defer delete(st.visiting, fn)
	loop := st.litDaemon(fn.pkg.Info, fn.decl.Body)
	if loop == nil {
		loop = st.calleeDaemon(fn.pkg.Info, fn.decl.Body, fn)
	}
	st.daemon[fn] = loop
	return loop
}

// calleeDaemon scans a body (excluding nested function literals) for a
// static call to a daemonish function, tagging the result with the call
// chain. self guards direct recursion for declared functions.
func (st *goroLeakState) calleeDaemon(info *types.Info, body *ast.BlockStmt, self *Func) *daemonLoop {
	var loop *daemonLoop
	ast.Inspect(body, func(n ast.Node) bool {
		if loop != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := st.pass.Index.Static(info, call); callee != nil && callee != self {
			if l := st.funcDaemon(callee); l != nil {
				via := callee.obj.Name()
				if l.via != "" {
					via += " -> " + l.via
				}
				loop = &daemonLoop{what: l.what, via: via}
			}
		}
		return loop == nil
	})
	return loop
}

// litDaemon scans one body (excluding nested function literals) for an
// unguarded daemon loop.
func (st *goroLeakState) litDaemon(info *types.Info, body *ast.BlockStmt) *daemonLoop {
	var loop *daemonLoop
	ast.Inspect(body, func(n ast.Node) bool {
		if loop != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !hasCancelArm(info, n.Body) {
				loop = &daemonLoop{what: "infinite for loop without a cancellation select arm"}
				return false
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil && isChanType(t) {
				if obj := chanObject(info, n.X); obj != nil && !st.chanClosedSomewhere(obj) {
					loop = &daemonLoop{what: fmt.Sprintf("range over channel %s, which nothing ever closes", obj.Name())}
					return false
				}
			}
		}
		return true
	})
	return loop
}

// hasCancelArm reports whether the loop body contains a select case
// receiving from a cancellation signal (ctx.Done() or a chan struct{})
// whose body returns or breaks.
func hasCancelArm(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			var ch ast.Expr
			switch comm := cc.Comm.(type) {
			case *ast.ExprStmt:
				if u, ok := isRecvExpr(info, comm.X); ok {
					ch = u.X
				}
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					if u, ok := isRecvExpr(info, comm.Rhs[0]); ok {
						ch = u.X
					}
				}
			}
			if ch == nil || !isDoneChanExpr(info, ch) {
				continue
			}
			if bodyExits(cc.Body) {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyExits reports whether a clause body contains a return or break.
func bodyExits(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		exits := false
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt, *ast.BranchStmt:
				exits = true
				return false
			}
			return !exits
		})
		if exits {
			return true
		}
	}
	return false
}

// chanObject resolves a channel expression to its variable, or nil.
func chanObject(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// chanClosedSomewhere reports whether any loaded package contains a
// close(x) call resolving to obj. Unresolvable channels (fields,
// parameters) are treated as closable by the caller.
func (st *goroLeakState) chanClosedSomewhere(obj types.Object) bool {
	for _, pkg := range st.pass.Pkgs {
		for _, file := range pkg.Files {
			found := false
			ast.Inspect(file, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "close" || pkg.Info.Uses[id] != types.Universe.Lookup("close") {
					return true
				}
				if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pkg.Info.Uses[arg] == obj {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// checkUnbufferedSends flags sends, outside any select, on channels whose
// make() is visible (in the spawning function or at package level) with
// no capacity or a constant zero capacity.
func (st *goroLeakState) checkUnbufferedSends(pkg *Package, info *types.Info, spawner *ast.BlockStmt, body *ast.BlockStmt, gs *ast.GoStmt) {
	walkStack(body, func(stack []ast.Node) bool {
		send, ok := stack[len(stack)-1].(*ast.SendStmt)
		if !ok {
			return true
		}
		if insideSelect(stack) {
			return true
		}
		obj := chanObject(info, send.Chan)
		if obj == nil {
			return true
		}
		if buffered, known := chanBuffered(pkg, info, spawner, obj); known && !buffered {
			st.pass.Report(send.Pos(), fmt.Sprintf(
				"send on unbuffered channel %s inside a goroutine: if every receiver abandons it (timeout, early return) the goroutine leaks; buffer it by one or select on a done signal", obj.Name()), nil)
		}
		return true
	})
}

// chanBuffered locates obj's make() call in the spawning function or the
// package scope and reports its buffering; known=false when no make is
// visible or the capacity is non-constant.
func chanBuffered(pkg *Package, info *types.Info, spawner *ast.BlockStmt, obj types.Object) (buffered, known bool) {
	var mk *ast.CallExpr
	consider := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if info.Defs[id] != obj && info.Uses[id] != obj {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fn.Name == "make" && info.Uses[fn] == types.Universe.Lookup("make") {
			mk = call
		}
	}
	scan := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if mk != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range n.Lhs {
					if i < len(n.Rhs) {
						consider(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i := range n.Names {
					if i < len(n.Values) {
						consider(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	if spawner != nil {
		scan(spawner)
	}
	if mk == nil {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					scan(gd)
				}
			}
		}
	}
	if mk == nil {
		return false, false
	}
	if len(mk.Args) < 2 {
		return false, true // make(chan T): unbuffered
	}
	tv, ok := info.Types[mk.Args[1]]
	if !ok || tv.Value == nil {
		return false, false
	}
	return tv.Value.String() != "0", true
}
