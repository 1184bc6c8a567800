package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AnalyzerShapeFlow is the interprocedural tensor shape inference that
// proves the runtime shape guards of internal/tensor unreachable on the
// paths it can see. The vocabulary is one comment directive:
//
//	//shape:in(B,Din) in(Din,Dout) out(B,Dout)  — on a function or
//	    interface method: clauses map positionally over the shape-bearing
//	    parameters and results (a *tensor.Dense or *autograd.Value slot
//	    takes a 2-dim clause, a plain int slot a 1-dim clause; other types
//	    are skipped). Dims are symbolic names, integer constants, "_"
//	    (unconstrained), or sums (D1+D2).
//	//shape:(R,C)  — on a tensor-typed struct field. Field and method
//	    annotations of one type share a namespace, so Linear's W(In,Out)
//	    pins the same In/Out its Forward contract names.
//
// The analysis propagates symbolic row/col dimensions through the tensor
// and autograd op vocabulary (MatMul/MatMulTA/MatMulTB/Affine inner-dim
// unification, broadcast row/column rules, ConcatCols/SplitCols/SliceCols
// width arithmetic, GatherRows/ShuffleRows row preservation), computes
// per-function summaries for unannotated module functions, and replays
// them at call sites; annotated functions are checked against their own
// contract (dims become rigid skolems) and callers use the contract
// directly. Unknown callees and untracked expressions degrade to an
// unconstrained top, never to a false finding. Findings carry the hop
// chain from the annotation that pinned a dim to the op where unification
// fails, and the pass reports ops_proved/ops_checked coverage counters
// through -json.
//
// Annotations are not optional decoration: shape-bearing exported API in
// opted-in packages (internal/{nn,gan,condvec,vfl,encoding}, plus any
// package that uses //shape: at all) and every implementation of an
// annotated interface method must carry one, so deleting a boundary
// annotation is itself a finding.
var AnalyzerShapeFlow = &Analyzer{
	Name: "shapeflow",
	Doc:  "interprocedural symbolic tensor shape checking (//shape: annotations)",
	Run:  runShapeFlow,
}

// shapePkgs are the package-path suffixes whose exported shape-bearing
// API must be annotated even before the package adopts //shape: itself:
// the model, sampling, federation, and encoding boundaries the paper's
// column-split protocol runs through.
var shapePkgs = []string{
	"internal/nn",
	"internal/gan",
	"internal/condvec",
	"internal/vfl",
	"internal/encoding",
}

// ---- annotation model ----

// sfDimSpec is one dim token of a clause: c + sum(names), or "_" (fresh).
type sfDimSpec struct {
	c     int
	names []string
	fresh bool
}

// sfClause is one in(...)/out(...) group (or the single field clause).
type sfClause struct {
	dims []sfDimSpec
}

// sfAnn is a parsed function-form annotation.
type sfAnn struct {
	ins, outs []sfClause
	pos       token.Position
}

// sfFieldAnn is a parsed field-form annotation.
type sfFieldAnn struct {
	dims [2]sfDimSpec
	pos  token.Position
}

// ---- slot classification ----

const (
	slotNone = iota
	slotMat
	slotInt
)

// isMatrixType reports whether t is *tensor.Dense or *autograd.Value —
// the two matrix carriers shapeflow tracks.
func isMatrixType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Dense" && pkgPathSuffix(obj, "internal/tensor")) ||
		(obj.Name() == "Value" && pkgPathSuffix(obj, "internal/autograd"))
}

// isIntType reports whether t is exactly int (named int kinds such as
// enum-like phases carry no dimension semantics and are skipped).
func isIntType(t types.Type) bool { return types.Identical(t, types.Typ[types.Int]) }

// slotKind classifies one parameter or result type.
func slotKind(t types.Type) int {
	switch {
	case isMatrixType(t):
		return slotMat
	case isIntType(t):
		return slotInt
	}
	return slotNone
}

// shapeSlots lists the shape-bearing parameter and result slots of a
// signature, in declaration order. at[i] is the slot's index in tuple.
// The variadic parameter (a slice) never forms a slot.
func shapeSlots(tuple *types.Tuple, variadic bool) (kinds, at []int) {
	for i := 0; i < tuple.Len(); i++ {
		if variadic && i == tuple.Len()-1 {
			continue
		}
		if k := slotKind(tuple.At(i).Type()); k != slotNone {
			kinds = append(kinds, k)
			at = append(at, i)
		}
	}
	return kinds, at
}

// ---- parsing ----

// parseShapeClauses parses the directive body. A body starting with "("
// is the field form (one bare clause); otherwise it is a sequence of
// in(...)/out(...) clauses.
func parseShapeClauses(body string) (ins, outs []sfClause, field *sfClause, err error) {
	s := strings.TrimSpace(body)
	if s == "" {
		return nil, nil, nil, fmt.Errorf("empty directive: want //shape:in(R,C) ... out(R,C) or //shape:(R,C)")
	}
	if strings.HasPrefix(s, "(") {
		c, rest, cerr := parseOneClause(s)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		if strings.TrimSpace(rest) != "" {
			return nil, nil, nil, fmt.Errorf("field annotation takes a single (R,C) clause")
		}
		if len(c.dims) != 2 {
			return nil, nil, nil, fmt.Errorf("field annotation needs exactly 2 dims, got %d", len(c.dims))
		}
		return nil, nil, &c, nil
	}
	for s != "" {
		var kind string
		switch {
		case strings.HasPrefix(s, "in("):
			kind, s = "in", s[len("in"):]
		case strings.HasPrefix(s, "out("):
			kind, s = "out", s[len("out"):]
		default:
			return nil, nil, nil, fmt.Errorf("want in(...) or out(...) clause, got %q", s)
		}
		c, rest, cerr := parseOneClause(s)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		if kind == "in" {
			if len(outs) > 0 {
				return nil, nil, nil, fmt.Errorf("in(...) clauses must precede out(...) clauses")
			}
			ins = append(ins, c)
		} else {
			outs = append(outs, c)
		}
		s = strings.TrimSpace(rest)
	}
	return ins, outs, nil, nil
}

// parseOneClause consumes one "(d1,d2,...)" group from the front of s.
func parseOneClause(s string) (sfClause, string, error) {
	if !strings.HasPrefix(s, "(") {
		return sfClause{}, "", fmt.Errorf("want '(' to open a clause, got %q", s)
	}
	end := strings.IndexByte(s, ')')
	if end < 0 {
		return sfClause{}, "", fmt.Errorf("unclosed clause %q", s)
	}
	inner := s[1:end]
	var c sfClause
	for _, tok := range strings.Split(inner, ",") {
		d, err := parseDimSpec(strings.TrimSpace(tok))
		if err != nil {
			return sfClause{}, "", err
		}
		c.dims = append(c.dims, d)
	}
	if len(c.dims) == 0 || len(c.dims) > 2 {
		return sfClause{}, "", fmt.Errorf("clause needs 1 or 2 dims, got %d", len(c.dims))
	}
	return c, s[end+1:], nil
}

// parseDimSpec parses one dim token: NAME, INT, "_", or a "+"-joined sum
// of names and ints.
func parseDimSpec(tok string) (sfDimSpec, error) {
	if tok == "_" {
		return sfDimSpec{fresh: true}, nil
	}
	var d sfDimSpec
	for _, part := range strings.Split(tok, "+") {
		part = strings.TrimSpace(part)
		if part == "" {
			return d, fmt.Errorf("empty term in dim %q", tok)
		}
		if n, err := strconv.Atoi(part); err == nil {
			d.c += n
			continue
		}
		if part == "_" {
			return d, fmt.Errorf("\"_\" cannot appear inside a sum (%q)", tok)
		}
		if !isDimName(part) {
			return d, fmt.Errorf("bad dim %q: want a name, integer, \"_\", or a sum of names", tok)
		}
		d.names = append(d.names, part)
	}
	return d, nil
}

func isDimName(s string) bool {
	for i, r := range s {
		switch {
		case r == '_', 'a' <= r && r <= 'z', 'A' <= r && r <= 'Z':
		case i > 0 && '0' <= r && r <= '9':
		default:
			return false
		}
	}
	return s != ""
}

// ---- whole-module state ----

// sfFunc is one module function under analysis: the index's declaration
// plus its contract and summary.
type sfFunc struct {
	*Func
	ann *sfAnn
	sum *sfSummary
	// sumState: 0 fresh, 1 in progress (recursion guard), 2 done.
	sumState int
}

// summary atoms/equations, exported in terms of input atom indices.
type sumEq struct {
	a, b linExpr // dims are atom indices
	op   string
	path []PathHop // chain inside the callee, innermost first
}

type sumResult struct {
	kind           int // slotNone, slotMat, slotInt
	rows, cols     linExpr
	rowsOK, colsOK bool
}

type sfSummary struct {
	// atomOf[i] is the first atom index of input slot i (receiver first,
	// then params); matrix slots own two consecutive atoms (rows, cols),
	// int slots one, other inputs none (-1).
	atomOf  []int
	kinds   []int
	atoms   int
	eqs     []sumEq
	results []sumResult
}

// topSummaryFor builds the all-unknown summary for a signature (used for
// recursion and as a safe fallback): no atoms, no equations, untracked
// results.
func topSummaryFor(sig *types.Signature) *sfSummary {
	s := &sfSummary{}
	for i := 0; i < sig.Results().Len(); i++ {
		s.results = append(s.results, sumResult{kind: slotKind(sig.Results().At(i).Type())})
	}
	return s
}

// opStat accumulates unification outcomes at one op site.
type opStat struct {
	constraints int
	proved      int
	bound       int
	failed      int
}

// sf is the whole-module analysis state.
type sf struct {
	pass *Pass
	fset *token.FileSet

	anns      map[types.Object]*sfAnn      // functions and interface methods
	fieldAnns map[types.Object]*sfFieldAnn // struct fields
	// fieldNames maps a named type to the symbolic names its field
	// annotations use — the object-scoped part of its methods' contracts.
	fieldNames map[*types.TypeName]map[string]bool
	funcs      map[*types.Func]*sfFunc
	funcList   []*sfFunc

	ops      map[token.Pos]*opStat
	reported map[string]bool
}

func runShapeFlow(p *Pass) {
	a := &sf{
		pass:       p,
		fset:       p.Fset(),
		anns:       make(map[types.Object]*sfAnn),
		fieldAnns:  make(map[types.Object]*sfFieldAnn),
		fieldNames: make(map[*types.TypeName]map[string]bool),
		funcs:      make(map[*types.Func]*sfFunc),
		ops:        make(map[token.Pos]*opStat),
		reported:   make(map[string]bool),
	}
	a.collectAnnotations()
	for _, fn := range p.Index.Funcs {
		f := &sfFunc{Func: fn, ann: a.anns[fn.obj]}
		a.funcs[fn.obj] = f
		a.funcList = append(a.funcList, f)
	}
	a.checkObligations()

	for _, f := range a.funcList {
		if f.ann != nil {
			a.checkAnnotatedBody(f)
		} else {
			a.summaryOf(f)
		}
	}

	// An op is "proved" when every shape constraint it imposes is fully
	// tracked and discharged: either both sides resolved to the same
	// expression (uProved) or the constraint is satisfied by binding a
	// still-free symbolic dim (uBound — the assume-guarantee case at an
	// annotated boundary). A site touching an untracked dim (uUnknown)
	// never counts: consistency there is hoped, not proved.
	checked, proved, exact := 0, 0, 0
	for _, st := range a.ops {
		if st.constraints == 0 {
			continue
		}
		checked++
		if st.failed == 0 && st.proved+st.bound == st.constraints {
			proved++
			if st.proved == st.constraints {
				exact++
			}
		}
	}
	p.AddStat("ops_checked", checked)
	p.AddStat("ops_proved", proved)
	p.AddStat("ops_proved_exact", exact)
	p.AddStat("shape_annotations", len(a.anns)+len(a.fieldAnns))
}

// reportf emits a finding once per site (a single bad line can trip
// several unifications; one finding per line keeps triage sane).
func (a *sf) reportf(pos token.Pos, msg string, path []PathHop) {
	p := a.fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.pass.Report(pos, msg, path)
}

// noteOp records one unification outcome at an op site.
func (a *sf) noteOp(pos token.Pos, res unifyResult) {
	st := a.ops[pos]
	if st == nil {
		st = &opStat{}
		a.ops[pos] = st
	}
	st.constraints++
	switch res {
	case uProved:
		st.proved++
	case uBound:
		st.bound++
	case uFail:
		st.failed++
	}
}

// ---- annotation collection ----

// collectAnnotations binds every //shape: directive to the function,
// interface method or struct field it documents. One attached to anything
// else is a contract that binds nothing — flag it.
func (a *sf) collectAnnotations() {
	for _, d := range a.pass.Index.Directives("//shape:") {
		if d.text != strings.TrimLeft(d.text, " \t") {
			// gofmt turns "//shape: in(...)" into the plain comment
			// "// shape: in(...)", which then binds nothing without a word
			// of complaint; only the spelling gofmt leaves alone is a directive.
			a.pass.Report(d.pos, "shape annotation has a space after \"//shape:\", which gofmt rewrites into a plain comment: write //shape:in(...) out(...) or //shape:(R,C)", nil)
			continue
		}
		var name *ast.Ident
		switch {
		case d.fn != nil:
			name = d.fn.Name
		case d.iface && len(d.field.Names) > 0:
			name = d.field.Names[0]
		}
		switch obj, _ := d.pkg.Info.Defs[name].(*types.Func); {
		case obj != nil:
			a.bindFuncDirective(d, obj)
		case d.field != nil && !d.iface:
			a.bindFieldDirective(d)
		default:
			a.pass.Report(d.pos, "misplaced shape annotation: //shape: goes in the doc comment of a function, interface method, or tensor struct field", nil)
		}
	}
}

// bindFuncDirective parses the function-form directive on one function
// or interface method and validates clause arity against the signature.
func (a *sf) bindFuncDirective(d Directive, obj *types.Func) {
	ins, outs, field, err := parseShapeClauses(d.text)
	if err != nil {
		a.pass.Report(d.pos, "malformed shape annotation: "+err.Error(), nil)
		return
	}
	if field != nil {
		a.pass.Report(d.pos, "shape annotation on a function must use in(...)/out(...) clauses, not a bare field clause", nil)
		return
	}
	if prev := a.anns[obj]; prev != nil {
		a.pass.Report(d.pos, fmt.Sprintf("duplicate shape annotation on %s (already declared at %s)", obj.Name(), prev.pos), nil)
		return
	}
	ann := &sfAnn{ins: ins, outs: outs, pos: a.fset.Position(d.pos)}
	if a.checkAnnArity(d.pos, obj, ann) {
		a.anns[obj] = ann
	}
}

// checkAnnArity verifies clause counts and per-clause dim counts against
// the signature's shape-bearing slots.
func (a *sf) checkAnnArity(pos token.Pos, obj *types.Func, ann *sfAnn) bool {
	sig := obj.Type().(*types.Signature)
	pk, _ := shapeSlots(sig.Params(), sig.Variadic())
	rk, _ := shapeSlots(sig.Results(), false)
	if len(pk)+len(rk) == 0 {
		a.pass.Report(pos, fmt.Sprintf("shape annotation on %s, which has no tensor or int dims to declare", obj.Name()), nil)
		return false
	}
	if len(ann.ins) != len(pk) {
		a.pass.Report(pos, fmt.Sprintf("shape annotation on %s has %d in(...) clauses for %d shape-bearing parameters", obj.Name(), len(ann.ins), len(pk)), nil)
		return false
	}
	if len(ann.outs) != len(rk) {
		a.pass.Report(pos, fmt.Sprintf("shape annotation on %s has %d out(...) clauses for %d shape-bearing results", obj.Name(), len(ann.outs), len(rk)), nil)
		return false
	}
	for i, k := range pk {
		if want := slotDims(k); len(ann.ins[i].dims) != want {
			a.pass.Report(pos, fmt.Sprintf("shape annotation on %s: in clause #%d needs %d dim(s)", obj.Name(), i+1, want), nil)
			return false
		}
	}
	for i, k := range rk {
		if want := slotDims(k); len(ann.outs[i].dims) != want {
			a.pass.Report(pos, fmt.Sprintf("shape annotation on %s: out clause #%d needs %d dim(s)", obj.Name(), i+1, want), nil)
			return false
		}
	}
	return true
}

func slotDims(kind int) int {
	if kind == slotMat {
		return 2
	}
	return 1
}

// bindFieldDirective parses the field-form directive on one struct field.
func (a *sf) bindFieldDirective(d Directive) {
	_, _, fc, err := parseShapeClauses(d.text)
	if err != nil {
		a.pass.Report(d.pos, "malformed shape annotation: "+err.Error(), nil)
		return
	}
	if fc == nil {
		a.pass.Report(d.pos, "shape annotation on a struct field must be a single (R,C) clause", nil)
		return
	}
	if len(d.field.Names) == 0 {
		a.pass.Report(d.pos, "shape annotation cannot attach to an embedded field", nil)
		return
	}
	fa := &sfFieldAnn{dims: [2]sfDimSpec{fc.dims[0], fc.dims[1]}, pos: a.fset.Position(d.pos)}
	for _, name := range d.field.Names {
		obj := d.pkg.Info.Defs[name]
		if obj == nil {
			continue
		}
		if !isMatrixType(obj.Type()) {
			a.pass.Report(d.pos, fmt.Sprintf("shape annotation on %s, which is not a tensor-typed field", name.Name), nil)
			continue
		}
		a.fieldAnns[obj] = fa
		if d.owner != nil {
			ns := a.fieldNames[d.owner]
			if ns == nil {
				ns = make(map[string]bool)
				a.fieldNames[d.owner] = ns
			}
			for _, dim := range fc.dims {
				for _, n := range dim.names {
					ns[n] = true
				}
			}
		}
	}
}

// recvBaseTypeName returns the *types.TypeName of a method's receiver base
// type, or nil for non-methods and interface receivers.
func recvBaseTypeName(obj *types.Func) *types.TypeName {
	sig := obj.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return named.Obj()
	}
	return nil
}

// ---- obligations ----

// pkgOptedIn reports whether a package is held to the annotation
// obligations: it already uses //shape:, or it is one of the model /
// sampling / federation / encoding boundary packages.
func (a *sf) pkgOptedIn(pkg *Package) bool {
	for _, s := range shapePkgs {
		if pkg.Path == s || strings.HasSuffix(pkg.Path, "/"+s) {
			return true
		}
	}
	for obj := range a.anns {
		if obj.Pkg() == pkg.Types {
			return true
		}
	}
	for obj := range a.fieldAnns {
		if obj.Pkg() == pkg.Types {
			return true
		}
	}
	return false
}

// hasMatrixSlot reports whether a signature carries at least one direct
// tensor parameter or result (slices don't count: no single shape).
func hasMatrixSlot(sig *types.Signature) bool {
	pk, _ := shapeSlots(sig.Params(), sig.Variadic())
	rk, _ := shapeSlots(sig.Results(), false)
	for _, k := range append(pk, rk...) {
		if k == slotMat {
			return true
		}
	}
	return false
}

// checkObligations reports every boundary that must carry a //shape:
// annotation but does not. Obligations are what make annotations
// load-bearing: deleting one turns into a finding, not silence.
func (a *sf) checkObligations() {
	for _, pkg := range a.pass.Pkgs {
		optedIn := a.pkgOptedIn(pkg)
		if optedIn {
			a.checkPkgObligations(pkg)
		}
	}
	// Implementations of annotated interface methods need their own
	// annotation in every package: the contract is per-implementation.
	for _, f := range a.funcList {
		if f.ann != nil {
			continue
		}
		sig := f.obj.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		if m := a.annotatedIfaceMethod(f.obj); m != nil {
			a.reportf(f.decl.Name.Pos(), fmt.Sprintf("%s implements annotated interface method %s and needs its own //shape: annotation", f.name, funcDisplayName(m)), nil)
		}
	}
}

func (a *sf) checkPkgObligations(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || !d.Name.IsExported() || a.anns[obj] != nil {
					continue
				}
				if tn := recvBaseTypeName(obj); d.Recv != nil && (tn == nil || !tn.Exported()) {
					continue
				}
				if hasMatrixSlot(obj.Type().(*types.Signature)) {
					a.reportf(d.Name.Pos(), fmt.Sprintf("exported shape-bearing function %s needs a //shape: annotation", funcDisplayName(obj)), nil)
				}
			case *ast.GenDecl:
				a.checkTypeObligations(pkg, d)
			}
		}
	}
}

func (a *sf) checkTypeObligations(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() {
			continue
		}
		switch tt := ts.Type.(type) {
		case *ast.StructType:
			for _, field := range tt.Fields.List {
				for _, name := range field.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil || !name.IsExported() || !isMatrixType(obj.Type()) {
						continue
					}
					if a.fieldAnns[obj] == nil {
						a.reportf(name.Pos(), fmt.Sprintf("exported tensor field %s.%s needs a //shape: (R,C) annotation", ts.Name.Name, name.Name), nil)
					}
				}
			}
		case *ast.InterfaceType:
			for _, m := range tt.Methods.List {
				if len(m.Names) == 0 || !m.Names[0].IsExported() {
					continue
				}
				obj, ok := pkg.Info.Defs[m.Names[0]].(*types.Func)
				if !ok || a.anns[obj] != nil {
					continue
				}
				if hasMatrixSlot(obj.Type().(*types.Signature)) {
					a.reportf(m.Names[0].Pos(), fmt.Sprintf("exported shape-bearing interface method %s.%s needs a //shape: annotation", ts.Name.Name, m.Names[0].Name), nil)
				}
			}
		}
	}
}

// annotatedIfaceMethod returns the annotated interface method obj
// implements, or nil.
func (a *sf) annotatedIfaceMethod(obj *types.Func) *types.Func {
	for ao := range a.anns {
		m, ok := ao.(*types.Func)
		if !ok || !isInterfaceMethod(m) || m.Name() != obj.Name() {
			continue
		}
		for _, impl := range a.pass.Index.Impls(m) {
			if impl.obj == obj {
				return m
			}
		}
	}
	return nil
}

// ---- summaries ----

// summaryOf computes (and memoizes) the shape summary of an unannotated
// module function by abstractly interpreting its body; the walk also
// reports any directly provable shape violations inside it. Recursion
// degrades to the all-unknown summary.
func (a *sf) summaryOf(f *sfFunc) *sfSummary {
	sig := f.obj.Type().(*types.Signature)
	switch f.sumState {
	case 1:
		return topSummaryFor(sig)
	case 2:
		return f.sum
	}
	f.sumState = 1
	f.sum = a.analyzeBody(f, true)
	f.sumState = 2
	return f.sum
}

// checkAnnotatedBody verifies an annotated function against its own
// contract: annotation dims become rigid skolems, the body is walked, and
// every return site unifies against the out clauses.
func (a *sf) checkAnnotatedBody(f *sfFunc) {
	a.analyzeBody(f, false)
}
