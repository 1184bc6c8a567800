package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerPrivFlow is the interprocedural taint analysis that machine-checks
// GTV's privacy boundary: raw client rows, matching-row indices (idx_p) and
// the shared shuffle secret must never reach a server-visible value except
// through the protocol's sanctioned transformations. The vocabulary is three
// comment directives on declarations:
//
//	//privacy:source <description>    — struct field or function whose values
//	                                    are private (raw tables, row indices,
//	                                    shuffle secrets)
//	//privacy:sink <description>      — function whose results (and writes
//	                                    through pointer parameters) are
//	                                    server-visible; on an interface
//	                                    method it marks every module
//	                                    implementation as a sink
//	//privacy:sanitizer <description> — function whose results are safe
//	                                    regardless of argument taint
//	                                    (bottom-model forwards, batch
//	                                    aggregates, shape metadata)
//
// The analysis builds per-function dataflow summaries (which inputs and
// which sources flow to which results) over the whole module, propagates
// them through a monotone fixpoint including interface dispatch to module
// implementations, and reports every unsanitized source-to-sink flow with
// the full function chain (file:line per hop). Taint is reported at its
// first crossing of the boundary: once a flow leaves a sink function's
// result it is not re-reported at downstream sinks that merely relay it.
//
// Deliberate, paper-sanctioned disclosures (the contributor's per-round
// idx_p, made safe by training-with-shuffling) carry reasoned
// //lint:ignore privflow suppressions at the crossing site.
var AnalyzerPrivFlow = &Analyzer{
	Name: "privflow",
	Doc:  "interprocedural taint analysis of the privacy boundary (//privacy:source -> //privacy:sink)",
	Run:  runPrivFlow,
}

// Known annotation kinds.
const (
	annSource    = "source"
	annSink      = "sink"
	annSanitizer = "sanitizer"
)

// pfAnnotation is one parsed //privacy: directive bound to a declaration.
type pfAnnotation struct {
	kind string
	desc string
	obj  types.Object
	pos  token.Position
}

// pfFunc is one module function under analysis: the index's declaration
// plus the taint state privflow keeps for it.
type pfFunc struct {
	*Func
	// sink is set when the function's outputs are server-visible, either by
	// direct annotation or because it implements an annotated interface
	// method.
	sink *pfAnnotation
	sum  *summary
}

// pf is the whole-module analysis state.
type pf struct {
	pass *Pass
	fset *token.FileSet

	anns     map[types.Object]*pfAnnotation
	funcs    map[*types.Func]*pfFunc
	funcList []*pfFunc

	// fieldTaint maps struct fields to the source taint ever stored into
	// them, giving flow-insensitive taint transfer across methods of one
	// object (c.lastCV = b in one call, c.lastCV read in a later one).
	fieldTaint map[*types.Var]taintVal

	// changed drives the global fixpoint: set when any summary or field
	// taint grows during a pass.
	changed bool
}

func runPrivFlow(p *Pass) {
	a := &pf{
		pass:       p,
		fset:       p.Fset(),
		anns:       make(map[types.Object]*pfAnnotation),
		funcs:      make(map[*types.Func]*pfFunc),
		fieldTaint: make(map[*types.Var]taintVal),
	}
	a.collectAnnotations()
	a.collectFuncs()
	a.resolveSinks()

	// Monotone fixpoint over summaries and field taint. The bound is a
	// safety net; real modules settle within a handful of passes.
	for iter := 0; iter < 64; iter++ {
		a.changed = false
		for _, f := range a.funcList {
			a.analyzeFunc(f, false)
		}
		if !a.changed {
			break
		}
	}
	// Reporting pass: only sink functions can produce findings.
	for _, f := range a.funcList {
		if f.sink != nil {
			a.analyzeFunc(f, true)
		}
	}
}

// ---- annotation collection ----

// collectAnnotations binds every well-formed //privacy: directive to the
// type-checker object of the declaration it documents, and reports
// malformed or misplaced ones as findings. A struct field line binds its
// first name; an embedded field or interface has no single object.
func (a *pf) collectAnnotations() {
	for _, d := range a.pass.Index.Directives("//privacy:") {
		var obj types.Object
		switch {
		case d.fn != nil:
			obj = d.pkg.Info.Defs[d.fn.Name]
		case d.field != nil && len(d.field.Names) > 0:
			obj = d.pkg.Info.Defs[d.field.Names[0]]
		}
		if obj == nil {
			// Dead weight pretending to be protection — flag it.
			a.pass.Report(d.pos, "misplaced privacy annotation: //privacy: directives go in the doc comment of a function, struct field, or interface method", nil)
			continue
		}
		kind, desc, _ := strings.Cut(d.text, " ")
		a.bindOne(d.pos, strings.TrimSpace(kind), strings.TrimSpace(desc), obj, d.field != nil && !d.iface)
	}
}

func (a *pf) bindOne(pos token.Pos, kind, desc string, obj types.Object, isStructField bool) {
	switch kind {
	case annSource, annSink, annSanitizer:
	default:
		a.pass.Report(pos, fmt.Sprintf("unknown privacy annotation kind %q: want source, sink, or sanitizer", kind), nil)
		return
	}
	if desc == "" {
		a.pass.Report(pos, fmt.Sprintf("privacy %s annotation needs a description: //privacy:%s <what and why>", kind, kind), nil)
		return
	}
	if isStructField && kind != annSource {
		a.pass.Report(pos, fmt.Sprintf("privacy %s annotation cannot apply to a struct field; only //privacy:source can", kind), nil)
		return
	}
	if !isStructField {
		if _, ok := obj.(*types.Func); !ok {
			a.pass.Report(pos, fmt.Sprintf("privacy %s annotation must attach to a function or interface method", kind), nil)
			return
		}
	}
	if prev := a.anns[obj]; prev != nil {
		a.pass.Report(pos, fmt.Sprintf("conflicting privacy annotations on %s (already %s at %s)", obj.Name(), prev.kind, prev.pos), nil)
		return
	}
	a.anns[obj] = &pfAnnotation{kind: kind, desc: desc, obj: obj, pos: a.fset.Position(pos)}
}

// ---- function registry, sink resolution ----

func (a *pf) collectFuncs() {
	for _, fn := range a.pass.Index.Funcs {
		f := &pfFunc{Func: fn}
		f.sum = &summary{results: make([]taintVal, fn.obj.Type().(*types.Signature).Results().Len())}
		a.funcs[fn.obj] = f
		a.funcList = append(a.funcList, f)
	}
}

// implsOf returns the analysis state of the module implementations of an
// interface method: the concrete methods interface dispatch can reach.
func (a *pf) implsOf(m *types.Func) []*pfFunc {
	impls := a.pass.Index.Impls(m)
	out := make([]*pfFunc, len(impls))
	for i, impl := range impls {
		out[i] = a.funcs[impl.obj]
	}
	return out
}

// resolveSinks marks directly annotated functions and every module
// implementation of an annotated interface method as sinks; where several
// interface sinks reach one implementation, the first in directive order
// wins.
func (a *pf) resolveSinks() {
	for _, f := range a.funcList {
		if ann := a.anns[f.obj]; ann != nil && ann.kind == annSink {
			f.sink = ann
		}
	}
	for _, d := range a.pass.Index.Directives("//privacy:") {
		if !d.iface || len(d.field.Names) == 0 {
			continue
		}
		m, _ := d.pkg.Info.Defs[d.field.Names[0]].(*types.Func)
		ann := a.anns[m]
		if m == nil || ann == nil || ann.kind != annSink {
			continue
		}
		for _, impl := range a.implsOf(m) {
			if impl.sink == nil {
				impl.sink = ann
			}
		}
	}
}

// analyzeFunc runs the intraprocedural walk over one function until its
// local state stabilizes, updating the function's summary and the global
// field taint. With report set, it additionally emits findings at sink
// violations.
func (a *pf) analyzeFunc(f *pfFunc, report bool) {
	in := &interp{
		a:     a,
		fn:    f,
		info:  f.pkg.Info,
		state: make(map[types.Object]taintVal),
	}
	// The summary's input bits follow the input slots: receiver, then
	// parameters.
	for i, v := range inputs(f.obj.Type().(*types.Signature)) {
		if i < 64 {
			in.state[v] = taintVal{inputs: 1 << uint(i)}
		}
	}
	// Local fixpoint: weak updates make the state monotone, so a few
	// passes reach loop-carried taint; the cap bounds pathological bodies.
	for pass := 0; pass < 4; pass++ {
		in.localChanged = false
		in.walkBody()
		if !in.localChanged {
			break
		}
	}
	if report {
		in.report = true
		in.reported = make(map[string]bool)
		in.walkBody()
	}
}
