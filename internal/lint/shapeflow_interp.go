package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Abstract values the shapeflow interpreter tracks per variable.
const (
	vTop  = iota
	vMat  // a *tensor.Dense / *autograd.Value with symbolic (rows, cols)
	vInt  // an int holding a dimension
	vList // a []*Dense / []*Value with known element shapes
)

type sfVal struct {
	kind  int
	shape sfShape
	dim   sfDim
	// elems are per-index element shapes (composite literals, Grad);
	// elem is the uniform element shape (SplitCols) when elemOK.
	elems  []sfShape
	elem   sfShape
	elemOK bool
}

var topVal = sfVal{kind: vTop}

func matVal(r, c sfDim) sfVal { return sfVal{kind: vMat, shape: sfShape{rows: r, cols: c}} }
func intVal(d sfDim) sfVal    { return sfVal{kind: vInt, dim: d} }

// asShape reads a value as a matrix shape, degrading to Top.
func asShape(v sfVal) sfShape {
	if v.kind == vMat {
		return v.shape
	}
	return topShape
}

// asDim reads a value as an int dimension, degrading to Top.
func asDim(v sfVal) sfDim {
	if v.kind == vInt {
		return v.dim
	}
	return dimTop
}

// sfNS is one dim namespace (rigid for the annotated body under check,
// free for per-object and per-call contract instantiations).
type sfNS struct {
	m     map[string]sfDim
	rigid bool
}

// outSlot is one result the annotated body must satisfy at returns.
type outSlot struct {
	kind   int
	resIdx int
	dims   []sfDim // dimTop entries ("_") are unchecked
}

// sfInterp is the per-function abstract interpreter.
type sfInterp struct {
	a    *sf
	fn   *sfFunc
	info *types.Info
	tbl  *sfTable

	state map[types.Object]sfVal

	summary bool
	atoms   int
	pend    []sumEq // recorded constraints, table-dim space
	retVals []sfVal // join of return values (summary mode)

	rigidNS *sfNS
	objNS   map[types.Object]*sfNS
	annHop  PathHop
	outs    []outSlot

	branch int // >0: conditional context, assignments join weakly
	inLit  int // >0: inside a FuncLit, returns are not the function's
}

// analyzeBody walks one function body. In summary mode it returns the
// exported summary; in annotated mode it checks the body against the
// function's own contract and returns nil.
func (a *sf) analyzeBody(f *sfFunc, summaryMode bool) *sfSummary {
	sig := f.obj.Type().(*types.Signature)
	in := &sfInterp{
		a:       a,
		fn:      f,
		info:    f.pkg.Info,
		tbl:     &sfTable{},
		state:   make(map[types.Object]sfVal),
		summary: summaryMode,
		objNS:   make(map[types.Object]*sfNS),
	}
	var sum *sfSummary
	if summaryMode {
		sum = in.setupAtoms(sig)
	} else if f.ann != nil {
		in.setupContractBody(sig, f.ann)
	}

	in.walkStmt(f.decl.Body)

	if summaryMode {
		in.exportSummary(sig, sum)
	}
	return sum
}

// setupAtoms binds the input slots (receiver, then params) to fresh atom
// dims (table indices 0..atoms-1, which doubles as the summary's atom
// index space). The variadic parameter (a slice) binds none.
func (in *sfInterp) setupAtoms(sig *types.Signature) *sfSummary {
	sum := &sfSummary{}
	vars := inputs(sig)
	for i, obj := range vars {
		k := slotKind(obj.Type())
		if sig.Variadic() && i == len(vars)-1 {
			k = slotNone
		}
		base := -1
		name := obj.Name()
		origin := PathHop{Func: in.fn.name, Pos: in.a.fset.Position(obj.Pos())}
		switch k {
		case slotMat:
			base = len(in.tbl.nodes)
			r := in.tbl.newDim("rows("+name+")", false, origin)
			c := in.tbl.newDim("cols("+name+")", false, origin)
			if name != "_" {
				in.state[obj] = matVal(r, c)
			}
		case slotInt:
			base = len(in.tbl.nodes)
			d := in.tbl.newDim(name, false, origin)
			if name != "_" {
				in.state[obj] = intVal(d)
			}
		}
		sum.kinds = append(sum.kinds, k)
		sum.atomOf = append(sum.atomOf, base)
	}
	sum.atoms = len(in.tbl.nodes)
	in.atoms = sum.atoms
	return sum
}

// setupContractBody binds the annotated function's parameters to rigid
// skolems from its own contract and prepares the return obligations.
func (in *sfInterp) setupContractBody(sig *types.Signature, ann *sfAnn) {
	in.rigidNS = &sfNS{m: make(map[string]sfDim), rigid: true}
	if recv := sig.Recv(); recv != nil {
		in.objNS[recv] = in.rigidNS
	}
	in.annHop = PathHop{Func: in.fn.name + " //shape:", Pos: ann.pos}
	look := func(name string) sfDim { return in.nsGet(in.rigidNS, name, in.annHop) }

	pk, at := shapeSlots(sig.Params(), sig.Variadic())
	for i, clause := range ann.ins {
		if i >= len(pk) {
			break
		}
		v := sig.Params().At(at[i])
		if v.Name() == "" || v.Name() == "_" {
			continue
		}
		switch pk[i] {
		case slotMat:
			in.state[v] = matVal(in.specDim(clause.dims[0], look), in.specDim(clause.dims[1], look))
		case slotInt:
			in.state[v] = intVal(in.specDim(clause.dims[0], look))
		}
	}

	slot := 0
	for i := 0; i < sig.Results().Len(); i++ {
		k := slotKind(sig.Results().At(i).Type())
		if k == slotNone {
			continue
		}
		if slot >= len(ann.outs) {
			break
		}
		clause := ann.outs[slot]
		o := outSlot{kind: k, resIdx: i}
		for _, spec := range clause.dims {
			if spec.fresh {
				o.dims = append(o.dims, dimTop)
			} else {
				o.dims = append(o.dims, in.specDim(spec, look))
			}
		}
		in.outs = append(in.outs, o)
		slot++
	}
}

// nsGet resolves (or mints) a named dim in one namespace.
func (in *sfInterp) nsGet(ns *sfNS, name string, origin PathHop) sfDim {
	if d, ok := ns.m[name]; ok {
		return d
	}
	d := in.tbl.newDim(name, ns.rigid, origin)
	ns.m[name] = d
	return d
}

// specDim lowers one annotation dim spec into a table dim.
func (in *sfInterp) specDim(spec sfDimSpec, look func(string) sfDim) sfDim {
	if spec.fresh {
		return in.tbl.newDim("", false, in.annHop)
	}
	e := constExpr(spec.c)
	for _, n := range spec.names {
		e = addExpr(e, varExpr(look(n)))
	}
	return in.tbl.exprDim(e, in.annHop)
}

// exportSummary lifts the recorded constraints and joined return shapes
// into atom space. Anything that mentions a non-atom dim stays internal:
// the body was checked directly, callers just see less.
func (in *sfInterp) exportSummary(sig *types.Signature, sum *sfSummary) {
	exportable := func(e linExpr) bool {
		for _, t := range e.terms {
			if int(t.dim) >= sum.atoms {
				return false
			}
		}
		return true
	}
	for _, eq := range in.pend {
		if exportable(eq.a) && exportable(eq.b) {
			sum.eqs = append(sum.eqs, eq)
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		k := slotKind(sig.Results().At(i).Type())
		r := sumResult{kind: k}
		if in.retVals != nil && i < len(in.retVals) {
			v := in.retVals[i]
			if k == slotMat && v.kind == vMat {
				if e, ok := in.tbl.resolveDim(v.shape.rows); ok && exportable(e) {
					r.rows, r.rowsOK = e, true
				}
				if e, ok := in.tbl.resolveDim(v.shape.cols); ok && exportable(e) {
					r.cols, r.colsOK = e, true
				}
			}
			if k == slotInt && v.kind == vInt {
				if e, ok := in.tbl.resolveDim(v.dim); ok && exportable(e) {
					r.rows, r.rowsOK = e, true
				}
			}
		}
		sum.results = append(sum.results, r)
	}
}

// ---- constraints ----

// constrain imposes a == b at an op site. inner is the call chain inside
// a summarized callee (empty for direct ops). Failures become findings;
// in summary mode surviving constraints over atoms are recorded for
// replay at call sites.
func (in *sfInterp) constrain(a, b sfDim, pos token.Pos, op string, inner []PathHop) {
	if a == dimTop || b == dimTop {
		return
	}
	var ra, rb linExpr
	rok := false
	if in.summary {
		ea, oka := in.tbl.resolveDim(a)
		eb, okb := in.tbl.resolveDim(b)
		if oka && okb {
			ra, rb, rok = ea, eb, true
		}
	}
	site := PathHop{Func: in.fn.name, Pos: in.a.fset.Position(pos)}
	res, sa, sb := in.tbl.unifyDims(a, b, site)
	in.a.noteOp(pos, res)
	if rok && (res == uBound || res == uUnknown) {
		path := append(append([]PathHop{}, inner...), site)
		in.pend = append(in.pend, sumEq{a: ra, b: rb, op: op, path: path})
	}
	if res == uFail {
		var hops []PathHop
		if len(inner) > 0 {
			hops = append(hops, inner...)
		} else {
			if h, ok := in.tbl.originOf(a); ok {
				hops = append(hops, h)
			}
			if h, ok := in.tbl.originOf(b); ok && (len(hops) == 0 || hops[0] != h) {
				hops = append(hops, h)
			}
		}
		hops = append(hops, site)
		in.a.reportf(pos, fmt.Sprintf("shape mismatch: %s: %s vs %s", op, sa, sb), hops)
	}
}

// broadcastCheck handles the Add/Sub/Mul/Div rule per dim: b's dim may be
// the constant 1 (row/col vector) or must match a's. A symbolic b dim
// that is not provably equal stays unknown — it could be 1 at runtime.
func (in *sfInterp) broadcastCheck(adim, bdim sfDim, pos token.Pos, op string) {
	if adim == dimTop || bdim == dimTop {
		return
	}
	eb, okb := in.tbl.resolveDim(bdim)
	if okb && eb.isConst() {
		if eb.c == 1 {
			in.a.noteOp(pos, uProved)
			return
		}
		in.constrain(adim, bdim, pos, op, nil)
		return
	}
	ea, oka := in.tbl.resolveDim(adim)
	if oka && okb {
		if d := subExpr(ea, eb); d.isConst() && d.c == 0 {
			in.a.noteOp(pos, uProved)
			return
		}
	}
	in.a.noteOp(pos, uUnknown)
}

// ---- statement walk ----

func (in *sfInterp) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		if st == nil {
			return
		}
		for _, sub := range st.List {
			in.walkStmt(sub)
		}
	case *ast.AssignStmt:
		in.walkAssign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				vals := in.evalResults(vs.Values, len(vs.Names))
				for i, name := range vs.Names {
					in.assignIdent(name, vals[i], true)
				}
			}
		}
	case *ast.ExprStmt:
		in.evalExpr(st.X)
	case *ast.ReturnStmt:
		in.walkReturn(st)
	case *ast.IfStmt:
		in.walkStmt(st.Init)
		in.evalExpr(st.Cond)
		in.branch++
		in.walkStmt(st.Body)
		in.walkStmt(st.Else)
		in.branch--
	case *ast.ForStmt:
		in.walkStmt(st.Init)
		in.havocAssigned(st.Body, st.Post)
		if st.Cond != nil {
			in.evalExpr(st.Cond)
		}
		in.branch++
		in.walkStmt(st.Body)
		in.walkStmt(st.Post)
		in.branch--
	case *ast.RangeStmt:
		x := in.evalExpr(st.X)
		in.havocAssigned(st.Body)
		if id, ok := st.Value.(*ast.Ident); ok && st.Tok == token.DEFINE {
			ev := topVal
			if x.kind == vList && x.elemOK {
				ev = matVal(x.elem.rows, x.elem.cols)
			}
			in.assignIdent(id, ev, true)
		}
		in.branch++
		in.walkStmt(st.Body)
		in.branch--
	case *ast.SwitchStmt:
		in.walkStmt(st.Init)
		if st.Tag != nil {
			in.evalExpr(st.Tag)
		}
		in.branch++
		in.walkStmt(st.Body)
		in.branch--
	case *ast.TypeSwitchStmt:
		in.walkStmt(st.Init)
		in.branch++
		in.walkStmt(st.Body)
		in.branch--
	case *ast.SelectStmt:
		in.branch++
		in.walkStmt(st.Body)
		in.branch--
	case *ast.CaseClause:
		for _, e := range st.List {
			in.evalExpr(e)
		}
		for _, sub := range st.Body {
			in.walkStmt(sub)
		}
	case *ast.CommClause:
		in.walkStmt(st.Comm)
		for _, sub := range st.Body {
			in.walkStmt(sub)
		}
	case *ast.GoStmt:
		in.evalExpr(st.Call)
	case *ast.DeferStmt:
		in.evalExpr(st.Call)
	case *ast.LabeledStmt:
		in.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
			in.assignIdent(id, topVal, false)
			// x++ leaves no usable dim regardless of branch depth.
			if obj := in.identObj(id); obj != nil {
				in.state[obj] = topVal
			}
		}
	case *ast.SendStmt:
		in.evalExpr(st.Chan)
		in.evalExpr(st.Value)
	}
}

func (in *sfInterp) walkAssign(st *ast.AssignStmt) {
	vals := in.evalResults(st.Rhs, len(st.Lhs))
	for i, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			in.assignIdent(id, vals[i], st.Tok == token.DEFINE)
		}
		// Writes through selectors/indexes are untracked (field shapes
		// come from annotations, not assignments).
	}
}

func (in *sfInterp) walkReturn(st *ast.ReturnStmt) {
	sig := in.fn.obj.Type().(*types.Signature)
	n := sig.Results().Len()
	vals := in.evalResults(st.Results, n)
	if in.inLit > 0 {
		return
	}
	if !in.summary && in.fn.ann != nil && len(st.Results) > 0 {
		for _, o := range in.outs {
			v := vals[o.resIdx]
			pos := st.Pos()
			if o.resIdx < len(st.Results) {
				pos = st.Results[o.resIdx].Pos()
			}
			switch o.kind {
			case slotMat:
				sh := asShape(v)
				if o.dims[0] != dimTop {
					in.constrain(sh.rows, o.dims[0], pos, "return rows vs //shape: out", nil)
				}
				if o.dims[1] != dimTop {
					in.constrain(sh.cols, o.dims[1], pos, "return cols vs //shape: out", nil)
				}
			case slotInt:
				if o.dims[0] != dimTop {
					in.constrain(asDim(v), o.dims[0], pos, "return value vs //shape: out", nil)
				}
			}
		}
	}
	if in.summary {
		if len(st.Results) == 0 && n > 0 {
			// Naked return: named results we did not track — degrade.
			vals = make([]sfVal, n)
		}
		if in.retVals == nil {
			in.retVals = vals
		} else {
			for i := range in.retVals {
				in.retVals[i] = in.joinVal(in.retVals[i], vals[i])
			}
		}
	}
}

// havocAssigned degrades every variable assigned anywhere inside the
// given subtrees to Top before a loop body is walked once — the
// loop-carried join without a fixpoint.
func (in *sfInterp) havocAssigned(nodes ...ast.Node) {
	for _, node := range nodes {
		if node == nil {
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := in.identObj(id); obj != nil {
							in.state[obj] = topVal
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
					if obj := in.identObj(id); obj != nil {
						in.state[obj] = topVal
					}
				}
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{st.Key, st.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := in.identObj(id); obj != nil {
							in.state[obj] = topVal
						}
					}
				}
			}
			return true
		})
	}
}

func (in *sfInterp) identObj(id *ast.Ident) types.Object {
	if id == nil || id.Name == "_" {
		return nil
	}
	if obj := in.info.Defs[id]; obj != nil {
		return obj
	}
	return in.info.Uses[id]
}

func (in *sfInterp) assignIdent(id *ast.Ident, v sfVal, define bool) {
	obj := in.identObj(id)
	if obj == nil {
		return
	}
	if !define && in.branch > 0 {
		if old, ok := in.state[obj]; ok {
			in.state[obj] = in.joinVal(old, v)
		}
		// Absent means Top already; a conditional assignment keeps it Top.
		return
	}
	in.state[obj] = v
}

func (in *sfInterp) joinVal(a, b sfVal) sfVal {
	if a.kind != b.kind {
		return topVal
	}
	switch a.kind {
	case vMat:
		return sfVal{kind: vMat, shape: in.tbl.joinShape(a.shape, b.shape)}
	case vInt:
		return intVal(in.tbl.joinDim(a.dim, b.dim))
	case vList:
		if a.elemOK && b.elemOK {
			return sfVal{kind: vList, elem: in.tbl.joinShape(a.elem, b.elem), elemOK: true}
		}
	}
	return topVal
}

// ---- expression evaluation ----

// evalResults evaluates a RHS/return list against n targets, expanding a
// single multi-value call.
func (in *sfInterp) evalResults(exprs []ast.Expr, n int) []sfVal {
	vals := make([]sfVal, n)
	for i := range vals {
		vals[i] = topVal
	}
	if len(exprs) == 1 && n > 1 {
		if call, ok := ast.Unparen(exprs[0]).(*ast.CallExpr); ok {
			vs := in.evalCall(call)
			copy(vals, vs)
			return vals
		}
		in.evalExpr(exprs[0])
		return vals
	}
	for i, e := range exprs {
		v := in.evalExpr(e)
		if i < n {
			vals[i] = v
		}
	}
	return vals
}

func (in *sfInterp) evalExpr(e ast.Expr) sfVal {
	if e == nil {
		return topVal
	}
	e = ast.Unparen(e)

	// Compile-time constants are exact dims (literals, consts, len of
	// constant arrays).
	if tv, ok := in.info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				return intVal(in.tbl.constDim(int(v), in.selfHop(e.Pos())))
			}
		}
		return topVal
	}

	switch ex := e.(type) {
	case *ast.Ident:
		if obj := in.identObj(ex); obj != nil {
			if v, ok := in.state[obj]; ok {
				return v
			}
		}
		return topVal
	case *ast.CallExpr:
		vs := in.evalCall(ex)
		if len(vs) == 1 {
			return vs[0]
		}
		return topVal
	case *ast.SelectorExpr:
		return in.evalSelector(ex)
	case *ast.IndexExpr:
		base := in.evalExpr(ex.X)
		idx := in.evalExpr(ex.Index)
		if base.kind == vList {
			if c, ok := in.tbl.constVal(asDim(idx)); ok && base.elems != nil && c >= 0 && c < len(base.elems) {
				return sfVal{kind: vMat, shape: base.elems[c]}
			}
			if base.elemOK {
				return sfVal{kind: vMat, shape: base.elem}
			}
		}
		return topVal
	case *ast.BinaryExpr:
		return in.evalBinary(ex)
	case *ast.UnaryExpr:
		if ex.Op == token.SUB {
			if d := asDim(in.evalExpr(ex.X)); d != dimTop {
				if ee, ok := in.tbl.resolveDim(d); ok {
					return intVal(in.tbl.exprDim(scaleLin(ee, -1), in.selfHop(ex.Pos())))
				}
			}
			return topVal
		}
		in.evalExpr(ex.X)
		return topVal
	case *ast.CompositeLit:
		return in.evalComposite(ex)
	case *ast.FuncLit:
		in.havocAssigned(ex.Body)
		in.branch++
		in.inLit++
		in.walkStmt(ex.Body)
		in.inLit--
		in.branch--
		return topVal
	case *ast.TypeAssertExpr:
		in.evalExpr(ex.X)
		return topVal
	case *ast.StarExpr:
		in.evalExpr(ex.X)
		return topVal
	case *ast.SliceExpr:
		in.evalExpr(ex.X)
		return topVal
	}
	return topVal
}

func (in *sfInterp) selfHop(pos token.Pos) PathHop {
	return PathHop{Func: in.fn.name, Pos: in.a.fset.Position(pos)}
}

// evalSelector resolves annotated struct-field reads through the owning
// object's dim namespace; everything else is Top.
func (in *sfInterp) evalSelector(ex *ast.SelectorExpr) sfVal {
	sel, ok := in.info.Selections[ex]
	if !ok || sel.Kind() != types.FieldVal {
		// Qualified package identifiers and method values: Top.
		return topVal
	}
	fa := in.a.fieldAnns[sel.Obj()]
	if fa == nil {
		return topVal
	}
	root := in.rootObject(ex.X)
	if root == nil {
		return topVal
	}
	ns := in.objNS[root]
	if ns == nil {
		ns = &sfNS{m: make(map[string]sfDim)}
		in.objNS[root] = ns
	}
	origin := PathHop{Func: objDisplayName(sel.Obj()) + " //shape:", Pos: fa.pos}
	look := func(name string) sfDim { return in.nsGet(ns, name, origin) }
	saved := in.annHop
	in.annHop = origin
	v := matVal(in.specDim(fa.dims[0], look), in.specDim(fa.dims[1], look))
	in.annHop = saved
	return v
}

// rootObject unwraps a receiver/base expression to its variable, the key
// for the per-object dim namespace.
func (in *sfInterp) rootObject(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return in.identObj(x)
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

func (in *sfInterp) evalBinary(ex *ast.BinaryExpr) sfVal {
	a := in.evalExpr(ex.X)
	b := in.evalExpr(ex.Y)
	da, db := asDim(a), asDim(b)
	if da == dimTop || db == dimTop {
		return topVal
	}
	ea, oka := in.tbl.resolveDim(da)
	eb, okb := in.tbl.resolveDim(db)
	if !oka || !okb {
		return topVal
	}
	hop := in.selfHop(ex.Pos())
	switch ex.Op {
	case token.ADD:
		return intVal(in.tbl.exprDim(addExpr(ea, eb), hop))
	case token.SUB:
		return intVal(in.tbl.exprDim(subExpr(ea, eb), hop))
	case token.MUL:
		if ea.isConst() {
			return intVal(in.tbl.exprDim(scaleLin(eb, ea.c), hop))
		}
		if eb.isConst() {
			return intVal(in.tbl.exprDim(scaleLin(ea, eb.c), hop))
		}
	}
	return topVal
}

// evalComposite tracks []*Dense{...} / []*Value{...} literals so spread
// arguments and indexing keep element shapes.
func (in *sfInterp) evalComposite(ex *ast.CompositeLit) sfVal {
	tv, ok := in.info.Types[ex]
	if !ok {
		return topVal
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !isMatrixType(slice.Elem()) {
		for _, el := range ex.Elts {
			in.evalExpr(el)
		}
		return topVal
	}
	v := sfVal{kind: vList}
	for _, el := range ex.Elts {
		if _, kv := el.(*ast.KeyValueExpr); kv {
			return topVal
		}
		v.elems = append(v.elems, asShape(in.evalExpr(el)))
	}
	return v
}

// ---- calls ----

func (in *sfInterp) evalCall(call *ast.CallExpr) []sfVal {
	c := classifyCall(in.info, call)
	recv := in.evalExpr(c.recv)
	args := make([]sfVal, len(call.Args))
	for i, arg := range call.Args {
		args[i] = in.evalExpr(arg)
	}
	// A conversion, a builtin or a function value is no op to model; its
	// results are Top, the zero sfVal.
	if c.fn == nil {
		return make([]sfVal, c.nres)
	}
	if vs, ok := in.modelCall(call, c.fn, recv, args); ok {
		return vs
	}
	if ann := in.a.anns[c.fn]; ann != nil {
		return in.applyContract(c, ann, call, args)
	}
	if mf := in.a.funcs[c.fn]; mf != nil {
		// The variadic tail forms no slot, so what it folds to is moot.
		ops := operands(c.fn.Type().(*types.Signature), recv, args, func(_, v sfVal) sfVal { return v })
		return in.applySummary(in.a.summaryOf(mf), call, ops)
	}
	return make([]sfVal, c.nres)
}

// applyContract instantiates an annotated callee's contract at one call
// site: in clauses unify against the arguments, out clauses shape the
// results. Names used by the owner type's field annotations resolve in
// the receiver object's persistent namespace; the rest are per-call.
func (in *sfInterp) applyContract(c callSite, ann *sfAnn, call *ast.CallExpr, args []sfVal) []sfVal {
	fn := c.fn
	sig := fn.Type().(*types.Signature)
	var fieldNames map[string]bool
	if tn := recvBaseTypeName(fn); tn != nil {
		fieldNames = in.a.fieldNames[tn]
	}
	var objNS *sfNS
	if len(fieldNames) > 0 {
		if root := in.rootObject(c.recv); root != nil {
			objNS = in.objNS[root]
			if objNS == nil {
				objNS = &sfNS{m: make(map[string]sfDim)}
				in.objNS[root] = objNS
			}
		}
	}
	callNS := &sfNS{m: make(map[string]sfDim)}
	origin := PathHop{Func: funcDisplayName(fn) + " //shape:", Pos: ann.pos}
	look := func(name string) sfDim {
		if fieldNames[name] && objNS != nil {
			return in.nsGet(objNS, name, origin)
		}
		return in.nsGet(callNS, name, origin)
	}
	saved := in.annHop
	in.annHop = origin
	defer func() { in.annHop = saved }()

	// Unify arguments against in clauses.
	pk, at := shapeSlots(sig.Params(), sig.Variadic())
	for i, clause := range ann.ins {
		if i >= len(pk) {
			break
		}
		argIdx := at[i]
		if argIdx >= len(args) {
			continue
		}
		got := args[argIdx]
		pos := call.Args[argIdx].Pos()
		switch pk[i] {
		case slotMat:
			sh := asShape(got)
			in.constrain(sh.rows, in.specDim(clause.dims[0], look), pos, fmt.Sprintf("%s arg #%d rows vs //shape: in", fn.Name(), argIdx+1), nil)
			in.constrain(sh.cols, in.specDim(clause.dims[1], look), pos, fmt.Sprintf("%s arg #%d cols vs //shape: in", fn.Name(), argIdx+1), nil)
		case slotInt:
			in.constrain(asDim(got), in.specDim(clause.dims[0], look), pos, fmt.Sprintf("%s arg #%d vs //shape: in", fn.Name(), argIdx+1), nil)
		}
	}

	// Build results from out clauses.
	out := make([]sfVal, sig.Results().Len())
	slot := 0
	for i := 0; i < sig.Results().Len(); i++ {
		out[i] = topVal
		k := slotKind(sig.Results().At(i).Type())
		if k == slotNone || slot >= len(ann.outs) {
			continue
		}
		clause := ann.outs[slot]
		slot++
		switch k {
		case slotMat:
			out[i] = matVal(in.specDim(clause.dims[0], look), in.specDim(clause.dims[1], look))
		case slotInt:
			out[i] = intVal(in.specDim(clause.dims[0], look))
		}
	}
	return out
}

// applySummary replays an unannotated callee's exported constraints at
// the call site with the operand dims (ops, in the callee's input slots)
// substituted for its atoms, and shapes the results from its summary.
func (in *sfInterp) applySummary(sum *sfSummary, call *ast.CallExpr, ops []sfVal) []sfVal {
	callHop := in.selfHop(call.Pos())
	atomDims := make([]sfDim, sum.atoms)
	for i := range atomDims {
		atomDims[i] = dimTop
	}
	for i, base := range sum.atomOf {
		if base < 0 {
			continue
		}
		switch sum.kinds[i] {
		case slotMat:
			sh := asShape(ops[i])
			atomDims[base] = in.freshIfTop(sh.rows, callHop)
			atomDims[base+1] = in.freshIfTop(sh.cols, callHop)
		case slotInt:
			atomDims[base] = in.freshIfTop(asDim(ops[i]), callHop)
		}
	}
	subst := func(e linExpr) sfDim {
		out := constExpr(e.c)
		for _, t := range e.terms {
			d := atomDims[t.dim]
			if d == dimTop {
				return dimTop
			}
			out = addExpr(out, scaleLin(varExpr(d), t.coeff))
		}
		return in.tbl.exprDim(out, callHop)
	}
	for _, eq := range sum.eqs {
		in.constrain(subst(eq.a), subst(eq.b), call.Pos(), eq.op, eq.path)
	}
	out := make([]sfVal, len(sum.results))
	for i, r := range sum.results {
		out[i] = topVal
		switch r.kind {
		case slotMat:
			rows, cols := dimTop, dimTop
			if r.rowsOK {
				rows = subst(r.rows)
			}
			if r.colsOK {
				cols = subst(r.cols)
			}
			out[i] = matVal(rows, cols)
		case slotInt:
			if r.rowsOK {
				out[i] = intVal(subst(r.rows))
			}
		}
	}
	return out
}

// freshIfTop turns an unknown operand dim into a fresh free variable so
// the callee's internal equalities can still relate it to other operands.
func (in *sfInterp) freshIfTop(d sfDim, origin PathHop) sfDim {
	if d != dimTop {
		return d
	}
	return in.tbl.newDim("", false, origin)
}
