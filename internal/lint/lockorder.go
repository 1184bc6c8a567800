package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerLockOrder builds an interprocedural lock-acquisition graph over
// the module's sync.Mutex/RWMutex usage and enforces the two disciplines
// that keep a wide federation out of deadlock:
//
//  1. Lock order. Acquiring lock B while holding lock A adds the edge
//     A -> B — directly, or transitively through any statically resolved
//     callee that acquires B somewhere in its body. A cycle in that graph
//     is a potential deadlock (two goroutines taking the locks in
//     opposite orders) and is reported once per cycle, with the
//     acquisition sites as the finding's path. Locks identify by their
//     declaring field or variable, so `s.mu` in one function and
//     `c.sess.mu` in another meet at the same graph node; acquiring the
//     *same* field's mutex twice on the same receiver chain is reported
//     as an immediate self-deadlock, while same-field acquisitions on
//     different chains are skipped (two instances, not provably one).
//
//  2. No blocking while locked. A channel send/receive, a select without
//     default, network or bufio I/O, a dial, WaitGroup.Wait, time.Sleep,
//     or a vfl.Client protocol call performed while a mutex is held
//     stalls every other goroutine contending for it — under fan-out,
//     one stuck peer serializes the round. Deliberate cases (a mutex
//     whose entire point is serializing writes to one conn) carry a
//     reasoned //lint:ignore lockorder. One finding is reported per
//     (function, lock) pair, at the first blocking site.
//
// The analysis is flow-insensitive within straight-line regions: a
// lock is considered held from its Lock() call until the matching
// Unlock() in source order, or function end when the unlock is deferred.
// Branch-local unlocks release for everything after the branch too — a
// deliberate under-approximation that avoids false positives at the
// price of missing some held regions.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "consistent lock-acquisition order; no blocking operations while a mutex is held",
	Run:  runLockOrder,
}

// lockEdge is one observed "acquired B while holding A" event.
type lockEdge struct {
	from, to lockIdent
	pos      token.Pos
	fn       string // function the acquisition happened in
	pkg      *Package
}

// lockOrderState accumulates the module-wide graph.
type lockOrderState struct {
	pass *Pass
	// acquires memoizes, per declared function, the set of locks its body
	// (or any statically resolved callee's body) may acquire.
	acquires map[*Func]map[types.Object]lockIdent
	visiting map[*Func]bool
	edges    []lockEdge
}

func runLockOrder(p *Pass) {
	st := &lockOrderState{
		pass:     p,
		acquires: make(map[*Func]map[types.Object]lockIdent),
		visiting: make(map[*Func]bool),
	}
	// Walk every function body (including function literals, each as its
	// own root: a literal runs on its own goroutine's schedule, so locks
	// held at its definition site are not held when it runs).
	// Methods go by their display name (conn.badSend), functions by their
	// bare name.
	for _, f := range p.Index.Funcs {
		name := f.name
		if f.decl.Recv == nil {
			name = f.obj.Name()
		}
		st.walkFunc(f.pkg, name, f.decl.Body)
	}
	st.reportCycles()
}

// heldLock is one lock in the current held set.
type heldLock struct {
	id   lockIdent
	base string // receiver-chain expression, e.g. "s" in s.mu
}

// walkFunc traverses one function body in source order, tracking the held
// set and recording order edges and blocking-under-lock findings. Nested
// function literals are queued and walked with an empty held set.
func (st *lockOrderState) walkFunc(pkg *Package, fname string, body *ast.BlockStmt) {
	info := pkg.Info
	var held []heldLock
	var lits []*ast.FuncLit
	// blocked dedupes blocking findings to one per (lock, kindless) pair.
	blocked := make(map[types.Object]bool)

	walkStack(body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to function end; a
			// deferred anything-else cannot affect the held set either.
			return false
		case *ast.CallExpr:
			if op, recv := classifyLockCall(info, n); op != lockNone {
				id, ok := identifyLock(info, recv)
				if !ok {
					return true
				}
				base := lockBaseExpr(recv)
				switch op {
				case lockAcquire:
					st.recordAcquire(pkg, fname, held, id, base, n.Pos())
					held = append(held, heldLock{id: id, base: base})
				case lockRelease:
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].id.obj == id.obj && held[i].base == base {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return false
			}
			if len(held) == 0 {
				return true
			}
			// A call inside a select clause is left to the select.
			if kind, what := blockingOp(info, stack); kind != "" && !insideSelect(stack) {
				st.reportBlocking(pkg, fname, held, blocked, kind, what, n.Pos())
				return true
			}
			// A call under lock may acquire more locks transitively.
			if callee := st.pass.Index.Static(info, n); callee != nil {
				for _, id := range st.funcAcquires(callee) {
					st.recordAcquire(pkg, fname, held, id, "", n.Pos())
				}
			}
			return true
		}
		if kind, what := blockingOp(info, stack); kind != "" && len(held) > 0 {
			st.reportBlocking(pkg, fname, held, blocked, kind, what, n.Pos())
		}
		return true
	})

	for _, lit := range lits {
		st.walkFunc(pkg, fname+" (func literal)", lit.Body)
	}
}

// lockBaseExpr renders the receiver chain below the mutex field ("s" for
// s.mu), used to distinguish instances of the same field.
func lockBaseExpr(recv ast.Expr) string {
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// recordAcquire notes that id was acquired while held was in effect,
// creating order edges. A same-object acquisition on the same base is an
// immediate self-deadlock and reported directly; on a different (or
// unknown, for transitive) base it is skipped — two instances of one
// struct type are distinct locks.
func (st *lockOrderState) recordAcquire(pkg *Package, fname string, held []heldLock, id lockIdent, base string, pos token.Pos) {
	for _, h := range held {
		if h.id.obj == id.obj {
			if base != "" && h.base == base {
				st.pass.Report(pos, fmt.Sprintf(
					"%s acquires %s.%s while already holding it: guaranteed self-deadlock",
					fname, base, id.obj.Name()), nil)
			}
			continue
		}
		st.edges = append(st.edges, lockEdge{from: h.id, to: id, pos: pos, fn: fname, pkg: pkg})
	}
}

// reportBlocking reports one blocking-under-lock finding per held lock,
// deduped per function.
func (st *lockOrderState) reportBlocking(pkg *Package, fname string, held []heldLock, blocked map[types.Object]bool, kind blockingKind, what string, pos token.Pos) {
	for _, h := range held {
		if blocked[h.id.obj] {
			continue
		}
		blocked[h.id.obj] = true
		st.pass.Report(pos, fmt.Sprintf(
			"%s (%s) while %s holds %s: a stalled peer blocks every goroutine contending for the lock",
			kind, what, fname, h.id.name), nil)
	}
}

// funcAcquires computes, memoized, the set of locks fn's body or its
// statically resolved callees may acquire. Cycles in the call graph
// resolve to the direct set.
func (st *lockOrderState) funcAcquires(fn *Func) map[types.Object]lockIdent {
	if s, ok := st.acquires[fn]; ok {
		return s
	}
	if st.visiting[fn] {
		return nil
	}
	st.visiting[fn] = true
	defer delete(st.visiting, fn)
	info := fn.pkg.Info
	out := make(map[types.Object]lockIdent)
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, recv := classifyLockCall(info, call); op == lockAcquire {
			if id, ok := identifyLock(info, recv); ok {
				out[id.obj] = id
			}
			return true
		}
		if callee := st.pass.Index.Static(info, call); callee != nil && callee != fn {
			for obj, id := range st.funcAcquires(callee) {
				out[obj] = id
			}
		}
		return true
	})
	st.acquires[fn] = out
	return out
}

// lockAdj is one outgoing edge in the lock graph's adjacency lists.
type lockAdj struct {
	to   lockIdent
	edge lockEdge
}

// reportCycles finds cycles in the accumulated edge graph and reports
// each once, canonicalized to start at its smallest lock name.
func (st *lockOrderState) reportCycles() {
	graph := make(map[types.Object][]lockAdj)
	names := make(map[types.Object]string)
	for _, e := range st.edges {
		graph[e.from.obj] = append(graph[e.from.obj], lockAdj{to: e.to, edge: e})
		names[e.from.obj] = e.from.name
		names[e.to.obj] = e.to.name
	}
	// Deterministic order: sort nodes by name, then object position;
	// sort adjacency likewise.
	var nodes []types.Object
	for obj := range graph {
		nodes = append(nodes, obj)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if names[nodes[i]] != names[nodes[j]] {
			return names[nodes[i]] < names[nodes[j]]
		}
		return nodes[i].Pos() < nodes[j].Pos()
	})
	for _, adjs := range graph {
		sort.Slice(adjs, func(i, j int) bool {
			if adjs[i].to.name != adjs[j].to.name {
				return adjs[i].to.name < adjs[j].to.name
			}
			return adjs[i].edge.pos < adjs[j].edge.pos
		})
	}

	seen := make(map[string]bool)
	var dfs func(start types.Object, path []lockAdj, onPath map[types.Object]bool)
	dfs = func(start types.Object, path []lockAdj, onPath map[types.Object]bool) {
		cur := start
		if len(path) > 0 {
			cur = path[len(path)-1].to.obj
		}
		for _, a := range graph[cur] {
			if a.to.obj == start && len(path) > 0 {
				st.reportCycle(append(append([]lockAdj(nil), path...), a), seen)
				continue
			}
			if onPath[a.to.obj] {
				continue
			}
			onPath[a.to.obj] = true
			dfs(start, append(path, a), onPath)
			delete(onPath, a.to.obj)
		}
	}
	for _, start := range nodes {
		dfs(start, nil, map[types.Object]bool{start: true})
	}
}

// reportCycle emits one canonical finding per distinct cycle: the edge
// list starting from the lexicographically smallest lock, with every
// acquisition site as a path hop.
func (st *lockOrderState) reportCycle(cycle []lockAdj, seen map[string]bool) {
	// Canonical key: the cycle's lock names, rotated to start at the
	// smallest. The DFS enumerates each cycle from every node on it, so
	// dedupe by the rotation-invariant key.
	locks := make([]string, len(cycle))
	for i, a := range cycle {
		locks[i] = a.edge.from.name
	}
	minAt := 0
	for i := range locks {
		if locks[i] < locks[minAt] {
			minAt = i
		}
	}
	key := ""
	for i := range locks {
		key += locks[(minAt+i)%len(locks)] + ";"
	}
	if seen[key] {
		return
	}
	seen[key] = true

	rotated := make([]lockAdj, len(cycle))
	for i := range cycle {
		rotated[i] = cycle[(minAt+i)%len(cycle)]
	}
	desc := rotated[0].edge.from.name
	var hops []PathHop
	for _, a := range rotated {
		desc += " -> " + a.to.name
		hops = append(hops, PathHop{
			Func: a.edge.fn,
			Pos:  st.pass.Fset().Position(a.edge.pos),
		})
	}
	st.pass.Report(rotated[0].edge.pos, fmt.Sprintf(
		"lock-order cycle %s: goroutines taking these locks in different orders can deadlock", desc), hops)
}
