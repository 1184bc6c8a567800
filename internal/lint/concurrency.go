package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
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
	pkg, typ := methodOf(fn)
	switch name := fn.Name(); {
	case typ == "" && pkg == "time" && name == "Sleep":
		return blockSleep
	// Every net.Dial* function: DialTimeout bounds itself and is exempt
	// from cancelflow, but still blocks while a lock is held.
	case typ == "" && pkg == "net" && strings.HasPrefix(name, "Dial"),
		typ == "" && pkg == "io" && (name == "ReadFull" || name == "ReadAll" || name == "Copy"),
		typ != "" && (pkg == "net" || pkg == "bufio") && slices.Contains([]string{
			"Read", "Write", "Flush", "ReadByte", "ReadFull", "ReadString", "WriteTo", "ReadFrom", "Accept"}, name),
		typ != "" && pkg == "io" && (name == "Read" || name == "Write"):
		return blockNetIO
	case pkg == "sync" && typ == "WaitGroup" && name == "Wait":
		return blockWGWait
	// The module's Client interface: every method is a remote protocol
	// round-trip whose duration only a CallPolicy bounds.
	case typ == "Client" && pkgPathSuffix(fn, "internal/vfl"):
		return blockRPC
	}
	return ""
}

// blockingOp classifies the node at the top of stack as an operation that
// can block forever, with what it waits on, or "" when it cannot: a
// blocking call (classifyBlockingCall), a channel send or receive outside
// a select (its blocking is the select's), a select without default, or a
// range over a channel. Each rule picks the kinds it polices.
func blockingOp(info *types.Info, stack []ast.Node) (blockingKind, string) {
	switch n := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		return classifyBlockingCall(info, n), calleeName(info, n)
	case *ast.SendStmt:
		if !insideSelect(stack) {
			return blockChanSend, types.ExprString(n.Chan)
		}
	case *ast.UnaryExpr:
		if u, ok := isRecvExpr(info, n); ok && !insideSelect(stack) {
			return blockChanRecv, types.ExprString(u.X)
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return "", "" // a default clause: the select never blocks
			}
		}
		return blockSelect, "select"
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil && isChanType(t) {
			return blockRangeCh, types.ExprString(n.X)
		}
	}
	return "", ""
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
	if isCtxDoneCall(info, e) {
		return true
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
