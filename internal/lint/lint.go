// Package lint is a from-scratch static-analysis driver for this repo,
// built only on the stdlib go/ast, go/parser and go/types packages. It
// enforces the invariants GTV's reproducibility and concurrency claims
// rest on but the compiler cannot see: pooled-buffer and tape lifetimes,
// seeded-randomness discipline, float comparison hygiene, lock order and
// goroutine exits, unchecked protocol errors, the privacy boundary, tensor
// shapes, and code no binary can reach. See DESIGN.md ("Static analysis")
// for the rule catalog and how to add a rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named rule.
type Analyzer struct {
	// Name is the rule ID used in reports and //lint:ignore comments.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run executes the rule once over all loaded packages. A rule that
	// looks at one package at a time is a loop over Pass.Pkgs.
	Run func(*Pass)
}

// Pass carries one analyzer's execution over the loaded packages.
type Pass struct {
	// Pkgs are all packages of the load, sorted by import path.
	Pkgs []*Package
	// Index is the module index every rule of one Run shares.
	Index *Index

	analyzer *Analyzer
	findings *[]Finding
	stats    Stats
}

// Stats are the coverage counters a rule may emit alongside its findings
// (shapeflow reports how many tensor ops it proved consistent). They
// surface in the -json report.
type Stats map[string]int

// AddStat bumps a named counter on the pass. Keys are namespaced by rule
// ("shapeflow.ops_proved") so the merged report stays unambiguous.
func (p *Pass) AddStat(key string, n int) { p.stats[p.analyzer.Name+"."+key] += n }

// Fset returns the file set shared by the loaded packages.
func (p *Pass) Fset() *token.FileSet { return p.Pkgs[0].Fset }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...), nil)
}

// Report records a finding with an optional dataflow path (source-to-sink
// hops for taint rules).
func (p *Pass) Report(pos token.Pos, msg string, path []PathHop) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Fset().Position(pos),
		Rule: p.analyzer.Name,
		Msg:  msg,
		Path: path,
	})
}

// perPackage adapts a rule that looks at one package at a time.
func perPackage(run func(*Pass, *Package)) func(*Pass) {
	return func(p *Pass) {
		for _, pkg := range p.Pkgs {
			run(p, pkg)
		}
	}
}

// PathHop is one step of a dataflow path: the function the value moved
// through and the position of the move (a read, call, or store site).
type PathHop struct {
	Func string
	Pos  token.Position
}

// Finding is one rule violation at a source position. Path, when present,
// is the source-to-sink dataflow chain behind a taint finding.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	Path []PathHop `json:",omitempty"`
}

// String renders a finding in file:line:col form. Paths are kept as the
// loader produced them; callers may relativize beforehand.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
}

// PathString renders the dataflow path as an indented multi-line block, or
// "" when the finding has none.
func (f Finding) PathString() string {
	if len(f.Path) == 0 {
		return ""
	}
	var b strings.Builder
	for i, h := range f.Path {
		if i == 0 {
			b.WriteString("    taint path: ")
		} else {
			b.WriteString("\n             ->  ")
		}
		fmt.Fprintf(&b, "%s (%s:%d)", h.Func, h.Pos.Filename, h.Pos.Line)
	}
	return b.String()
}

// Analyzers returns the full rule registry in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerTapeLifetime,
		AnalyzerGlobalRand,
		AnalyzerFloatEq,
		AnalyzerErrDrop,
		AnalyzerPrivFlow,
		AnalyzerLockOrder,
		AnalyzerGoroLeak,
		AnalyzerCancelFlow,
		AnalyzerShapeFlow,
		AnalyzerDeadCode,
	}
}

// AnalyzerByName resolves a rule ID, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages of one load, applies
// //lint:ignore suppressions, and returns the surviving findings sorted by
// position together with the rules' coverage stats. Malformed or unused
// suppressions are themselves findings (rule "lint"), so suppressions can
// never silently rot into blanket disables. A suppression only counts as
// unused when its rule actually ran. It is the one way rules run: gtv-lint
// and the package's own tests both call it.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, Stats) {
	ix := buildIndex(pkgs)
	stats := make(Stats)
	ran := make(map[string]bool, len(analyzers))
	var raw []Finding
	for _, a := range analyzers {
		a.Run(&Pass{Pkgs: pkgs, Index: ix, analyzer: a, findings: &raw, stats: stats})
		ran[a.Name] = true
	}
	sups, all := collectSuppressions(ix)
	for _, f := range raw {
		if s := sups.match(f); s != nil {
			s.used = true
			continue
		}
		all = append(all, f)
	}
	all = append(all, sups.unused(ran)...)
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all, stats
}

// Relativize rewrites finding paths (including dataflow path hops)
// relative to root for stable output.
func Relativize(findings []Finding, root string) {
	rel := func(p string) string {
		if r, err := filepath.Rel(root, p); err == nil {
			return r
		}
		return p
	}
	for i := range findings {
		findings[i].Pos.Filename = rel(findings[i].Pos.Filename)
		for j := range findings[i].Path {
			findings[i].Path[j].Pos.Filename = rel(findings[i].Path[j].Pos.Filename)
		}
	}
}

// ---- suppression comments ----

// A suppression is one well-formed "//lint:ignore <rule> <reason>"
// comment. It silences findings of that rule on its own line and on the
// line directly below it (so it works both as a trailing comment and as a
// comment line above the offending statement).
type suppression struct {
	file string
	line int
	rule string
	pos  token.Position
	used bool
}

type suppressionSet []*suppression

func (s suppressionSet) match(f Finding) *suppression {
	for _, sup := range s {
		if sup.rule == f.Rule && sup.file == f.Pos.Filename &&
			(sup.line == f.Pos.Line || sup.line == f.Pos.Line-1) {
			return sup
		}
	}
	return nil
}

// unused reports the suppressions that silenced nothing, restricted to
// the rules that actually ran (a suppression for a rule outside this
// run's set cannot prove itself useful and is skipped).
func (s suppressionSet) unused(ran map[string]bool) []Finding {
	var out []Finding
	for _, sup := range s {
		if !sup.used && ran[sup.rule] {
			out = append(out, Finding{
				Pos:  sup.pos,
				Rule: "lint",
				Msg:  fmt.Sprintf("unused //lint:ignore %s suppression (nothing to suppress here; delete it)", sup.rule),
			})
		}
	}
	return out
}

// collectSuppressions parses every //lint:ignore comment of the load.
// Malformed ones (missing rule, unknown rule, or missing reason) are
// returned as findings so they cannot act as blanket disables.
func collectSuppressions(ix *Index) (suppressionSet, []Finding) {
	var (
		sups suppressionSet
		bad  []Finding
	)
	for _, d := range ix.Directives("//lint:ignore") {
		pos := d.pkg.Fset.Position(d.pos)
		fields := strings.Fields(d.text)
		if len(fields) < 2 {
			bad = append(bad, Finding{Pos: pos, Rule: "lint",
				Msg: "malformed suppression: want //lint:ignore <rule> <reason>"})
			continue
		}
		rule := fields[0]
		if AnalyzerByName(rule) == nil {
			bad = append(bad, Finding{Pos: pos, Rule: "lint",
				Msg: fmt.Sprintf("suppression names unknown rule %q", rule)})
			continue
		}
		sups = append(sups, &suppression{file: pos.Filename, line: pos.Line, rule: rule, pos: pos})
	}
	return sups, bad
}

// ---- shared analysis helpers ----

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool { return t != nil && types.Identical(t, errorType) }

// isFloat reports whether t's underlying type is a floating-point or
// complex basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// calleeObject resolves the object a call expression invokes (function,
// method, or builtin), or nil when it cannot (calls through function
// values, conversions). An explicit instantiation (f[T](...)) resolves to
// the generic function.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// callSite is what a call expression invokes, answered once for the rules
// that interpret calls: the builtin, or the named function or method with
// a method call's receiver expression (x in x.m(…)), and how many values
// the call yields. A conversion T(x) and a call through a function value
// have neither builtin nor fn.
type callSite struct {
	builtin *types.Builtin
	fn      *types.Func
	recv    ast.Expr
	nres    int
}

func classifyCall(info *types.Info, call *ast.CallExpr) callSite {
	c := callSite{nres: 1}
	switch obj := calleeObject(info, call).(type) {
	case *types.Builtin:
		c.builtin = obj
	case *types.Func:
		c.fn = obj
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			c.recv = sel.X
		}
	}
	if tup, ok := info.TypeOf(call).(*types.Tuple); ok {
		c.nres = tup.Len()
	}
	return c
}

// inputs lists a signature's input slots: its receiver, if it has one,
// then its parameters.
func inputs(sig *types.Signature) []*types.Var {
	var vars []*types.Var
	if sig.Recv() != nil {
		vars = append(vars, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		vars = append(vars, sig.Params().At(i))
	}
	return vars
}

// operands lays a call's evaluated receiver and arguments out in the input
// slots of the callee's signature: the receiver first when it has one,
// then one slot per parameter, every argument of the variadic tail folded
// into the last slot with join.
func operands[V any](sig *types.Signature, recv V, args []V, join func(V, V) V) []V {
	ops := make([]V, len(inputs(sig)))
	off := 0
	if sig.Recv() != nil {
		ops[0], off = recv, 1
	}
	for k, arg := range args {
		if i := off + min(k, sig.Params().Len()-1); i >= 0 {
			ops[i] = join(ops[i], arg)
		}
	}
	return ops
}

// calleeName renders a human-readable name for a call's target.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return types.ExprString(fun.X) + "." + fun.Sel.Name
	}
	return "call"
}

// pkgPathSuffix reports whether obj belongs to a package whose import
// path is exactly path or ends with "/"+path. Matching by suffix keeps
// analyzers independent of the module name, so fixture packages that
// import the real module resolve the same way the module itself does.
func pkgPathSuffix(obj types.Object, path string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

// isPkgFunc reports whether call invokes the package-level function
// pkgSuffix.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgSuffix, name string) bool {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil && pkgPathSuffix(fn, pkgSuffix)
}

// methodOf names the type fn is a method of: the package path and name of
// its receiver's named type, through a pointer. A package-level function
// gives its package's path and "", a method of an unnamed type "" and "".
func methodOf(fn *types.Func) (pkgPath, typeName string) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path(), ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path(), n.Obj().Name()
	}
	return "", ""
}

// walkStack traverses root depth-first, calling fn with the node stack
// (outermost first, current node last). Returning false skips the
// subtree.
func walkStack(root ast.Node, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// outermostFuncBody returns the body of the outermost enclosing FuncDecl.
func outermostFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := 0; i < len(stack); i++ {
		if f, ok := stack[i].(*ast.FuncDecl); ok {
			return f.Body
		}
	}
	return nil
}
