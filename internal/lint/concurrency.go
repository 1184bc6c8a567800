package lint

import (
	"go/ast"
	"go/types"
)

// Shared infrastructure for the concurrency analyzers (lockorder,
// goroleak, cancelflow): lock-call classification over
// sync.Mutex/sync.RWMutex and the blocking-operation taxonomy the rules
// agree on (static calls resolve to their bodies through Pass.Index). All
// three are syntactic, flow-insensitive approximations — see DESIGN.md
// ("Concurrency rules") for the documented gaps — tuned so a finding is
// worth reading and a clean tree means the discipline holds.

// ---- lock-call classification ----

// lockOp classifies one mutex method call.
type lockOp int

const (
	lockNone    lockOp = iota
	lockAcquire        // Lock, RLock
	lockRelease        // Unlock, RUnlock
)

// isSyncLocker reports whether t (after pointer-deref) is sync.Mutex or
// sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// classifyLockCall recognizes m.Lock / m.RLock / m.Unlock / m.RUnlock on a
// sync mutex and returns the receiver expression carrying the mutex.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockNone, nil
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return lockNone, nil
	}
	recv := ast.Unparen(sel.X)
	if t := info.TypeOf(recv); t == nil || !isSyncLocker(t) {
		return lockNone, nil
	}
	return op, recv
}

// lockIdent identifies a mutex across functions. For a mutex that is a
// struct field (s.mu, c.sess.mu), the field object identifies it: every
// instance of the struct shares one node, which is what lock-order
// analysis wants (the order discipline is per-class, not per-instance).
// Local and package-level mutex variables identify by their own object.
type lockIdent struct {
	obj  types.Object
	name string // human-readable, e.g. "wireSession.mu"
}

// identifyLock resolves the receiver expression of a lock call to its
// identity, or ok=false when the expression is too dynamic to name
// (map/slice elements, function results).
func identifyLock(info *types.Info, recv ast.Expr) (lockIdent, bool) {
	switch e := recv.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return lockIdent{}, false
		}
		name := obj.Name()
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			name = fieldOwnerName(v) + "." + name
		}
		return lockIdent{obj: obj, name: name}, true
	case *ast.SelectorExpr:
		selection := info.Selections[e]
		if selection == nil || selection.Kind() != types.FieldVal {
			return lockIdent{}, false
		}
		v, ok := selection.Obj().(*types.Var)
		if !ok {
			return lockIdent{}, false
		}
		return lockIdent{obj: v, name: fieldOwnerName(v) + "." + v.Name()}, true
	}
	return lockIdent{}, false
}

// fieldOwnerName names the struct type a field belongs to, best-effort.
func fieldOwnerName(v *types.Var) string {
	// The field's scope parent is the struct's type; walk the package
	// scope for a named type whose underlying struct declares v.
	if v.Pkg() == nil {
		return "?"
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return "?"
}

// ---- blocking-operation taxonomy ----

// blockingKind names why an operation can block forever.
type blockingKind string

const (
	blockChanSend blockingKind = "channel send"
	blockChanRecv blockingKind = "channel receive"
	blockSelect   blockingKind = "select without default"
	blockRangeCh  blockingKind = "range over channel"
	blockWGWait   blockingKind = "WaitGroup.Wait"
	blockSleep    blockingKind = "time.Sleep"
	blockNetIO    blockingKind = "network I/O"
	blockRPC      blockingKind = "protocol call"
)

// classifyBlockingCall recognizes calls that can block indefinitely:
// sync.WaitGroup.Wait, time.Sleep, net dials, Read/Write/Flush-shaped I/O
// on net/bufio/io values, and the module's own vfl.Client protocol methods
// (remote round-trips). Returns "" for non-blocking calls.
func classifyBlockingCall(info *types.Info, call *ast.CallExpr) blockingKind {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Pkg() == nil {
			return ""
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				return blockSleep
			}
		case "net":
			// DialTimeout bounds itself and is exempt from cancelflow, but
			// still blocks while a lock is held, so it stays in the taxonomy.
			if fn.Name() == "Dial" || fn.Name() == "DialTimeout" || fn.Name() == "DialIP" ||
				fn.Name() == "DialTCP" || fn.Name() == "DialUDP" || fn.Name() == "DialUnix" {
				return blockNetIO
			}
		case "io":
			if fn.Name() == "ReadFull" || fn.Name() == "ReadAll" || fn.Name() == "Copy" {
				return blockNetIO
			}
		}
		return ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
		pkg, typ := n.Obj().Pkg().Path(), n.Obj().Name()
		if pkg == "sync" && typ == "WaitGroup" && fn.Name() == "Wait" {
			return blockWGWait
		}
		switch pkg {
		case "net", "bufio":
			switch fn.Name() {
			case "Read", "Write", "Flush", "ReadByte", "ReadFull", "ReadString", "WriteTo", "ReadFrom", "Accept":
				return blockNetIO
			}
		}
		// The module's Client interface: every method is a remote protocol
		// round-trip whose duration only a CallPolicy bounds.
		if typ == "Client" && pkgPathSuffix(n.Obj(), "internal/vfl") {
			return blockRPC
		}
	}
	if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "io" {
		// io.Reader / io.Writer shaped interface calls.
		switch fn.Name() {
		case "Read", "Write":
			return blockNetIO
		}
	}
	return ""
}

// selectHasDefault reports whether a select statement contains a default
// clause (and therefore never blocks).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// insideSelect reports whether the node at the top of the stack sits
// inside a select communication clause (its blocking is the select's
// concern, not the operation's own).
func insideSelect(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.CommClause, *ast.SelectStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isRecvExpr recognizes `<-ch` unary receives.
func isRecvExpr(info *types.Info, n ast.Node) (*ast.UnaryExpr, bool) {
	u, ok := n.(*ast.UnaryExpr)
	if !ok || u.Op.String() != "<-" {
		return nil, false
	}
	if t := info.TypeOf(u.X); t == nil || !isChanType(t) {
		return nil, false
	}
	return u, true
}

// isDoneChanExpr reports whether e is a cancellation signal: a
// `ctx.Done()` call or a value of type `chan struct{}` / `<-chan struct{}`
// (the close-signal idiom).
func isDoneChanExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if fn, ok := calleeObject(info, call).(*types.Func); ok && fn.Name() == "Done" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if n, ok := sig.Recv().Type().(*types.Named); ok && n.Obj().Pkg() != nil &&
					n.Obj().Pkg().Path() == "context" {
					return true
				}
			}
		}
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
