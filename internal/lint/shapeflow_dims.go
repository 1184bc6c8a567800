package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Symbolic dimension machinery for the shapeflow analyzer.
//
// A dimension is a reference into an sfTable. Each table node is a
// union-find element that is either unbound (a symbolic variable, possibly
// rigid — see below) or bound to a linear expression over other dims.
// Constants are nodes bound to a constant expression. Top (an unknown
// dimension) is the sentinel dimTop; every operation involving Top yields
// Top, and a constraint touching Top is "unknown", never a finding.
//
// Rigid dims are the skolem constants a //shape: annotation introduces
// while its own function body is checked: two distinct rigid dims must not
// be forced equal (the annotation declared them independent), though a
// rigid dim may be pinned to a concrete constant by the body. Flexible
// (free) dims come from call-site instantiations and from expressions the
// analysis cannot name; they bind freely during unification.

// sfDim references a node in an sfTable; dimTop is the unknown dimension.
type sfDim int

const dimTop sfDim = -1

// linTerm is one coeff*dim term of a linear expression.
type linTerm struct {
	coeff int
	dim   sfDim // canonical (root) at construction time
}

// linExpr is c + sum(coeff_i * dim_i), terms sorted by dim with nonzero
// coefficients. The zero value is the constant 0.
type linExpr struct {
	c     int
	terms []linTerm
}

func constExpr(c int) linExpr { return linExpr{c: c} }

func varExpr(d sfDim) linExpr { return linExpr{terms: []linTerm{{coeff: 1, dim: d}}} }

// isConst reports whether e has no symbolic terms.
func (e linExpr) isConst() bool { return len(e.terms) == 0 }

// singleVar returns the dim when e is exactly one dim with coefficient 1.
func (e linExpr) singleVar() (sfDim, bool) {
	if e.c == 0 && len(e.terms) == 1 && e.terms[0].coeff == 1 {
		return e.terms[0].dim, true
	}
	return dimTop, false
}

// norm sorts and merges terms, dropping zero coefficients.
func (e linExpr) norm() linExpr {
	if len(e.terms) == 0 {
		return e
	}
	sort.Slice(e.terms, func(i, j int) bool { return e.terms[i].dim < e.terms[j].dim })
	out := linExpr{c: e.c}
	for _, t := range e.terms {
		if n := len(out.terms); n > 0 && out.terms[n-1].dim == t.dim {
			out.terms[n-1].coeff += t.coeff
			if out.terms[n-1].coeff == 0 {
				out.terms = out.terms[:n-1]
			}
			continue
		}
		if t.coeff != 0 {
			out.terms = append(out.terms, t)
		}
	}
	return out
}

func addExpr(a, b linExpr) linExpr {
	out := linExpr{c: a.c + b.c}
	out.terms = append(append([]linTerm{}, a.terms...), b.terms...)
	return out.norm()
}

func scaleLin(a linExpr, k int) linExpr {
	out := linExpr{c: a.c * k}
	for _, t := range a.terms {
		out.terms = append(out.terms, linTerm{coeff: t.coeff * k, dim: t.dim})
	}
	return out.norm()
}

func subExpr(a, b linExpr) linExpr { return addExpr(a, scaleLin(b, -1)) }

// sfNode is one union-find element of a dim table.
type sfNode struct {
	parent  sfDim // == own index for roots
	rigid   bool
	name    string  // annotation name, "" for anonymous dims
	origin  PathHop // where the dim was introduced (annotation or op site)
	bound   *linExpr
	boundAt PathHop
}

// sfTable owns the dim nodes of one function analysis.
type sfTable struct {
	nodes []sfNode
}

// newDim allocates a fresh unbound dim.
func (t *sfTable) newDim(name string, rigid bool, origin PathHop) sfDim {
	d := sfDim(len(t.nodes))
	t.nodes = append(t.nodes, sfNode{parent: d, rigid: rigid, name: name, origin: origin})
	return d
}

// constDim allocates a dim pinned to the constant n.
func (t *sfTable) constDim(n int, origin PathHop) sfDim {
	d := t.newDim("", false, origin)
	e := constExpr(n)
	t.nodes[d].bound = &e
	return d
}

// exprDim wraps a linear expression into a dim (reusing a plain variable).
func (t *sfTable) exprDim(e linExpr, origin PathHop) sfDim {
	if d, ok := e.singleVar(); ok {
		return d
	}
	d := t.newDim("", false, origin)
	t.nodes[d].bound = &e
	return d
}

// find returns the canonical root of d with path compression.
func (t *sfTable) find(d sfDim) sfDim {
	if d == dimTop {
		return dimTop
	}
	root := d
	for t.nodes[root].parent != root {
		root = t.nodes[root].parent
	}
	for t.nodes[d].parent != d {
		d, t.nodes[d].parent = t.nodes[d].parent, root
	}
	return root
}

// maxResolveDepth bounds recursive substitution; binding chains in real
// code are short, and the cap turns accidental cycles into "unknown"
// instead of hangs.
const maxResolveDepth = 32

// resolve substitutes bound dims until e mentions only unbound roots.
// ok is false when the expression involves Top or a substitution cycle.
func (t *sfTable) resolve(e linExpr, depth int) (linExpr, bool) {
	if depth > maxResolveDepth {
		return linExpr{}, false
	}
	out := constExpr(e.c)
	for _, term := range e.terms {
		root := t.find(term.dim)
		if root == dimTop {
			return linExpr{}, false
		}
		if b := t.nodes[root].bound; b != nil {
			sub, ok := t.resolve(*b, depth+1)
			if !ok {
				return linExpr{}, false
			}
			out = addExpr(out, scaleLin(sub, term.coeff))
			continue
		}
		out = addExpr(out, linExpr{terms: []linTerm{{coeff: term.coeff, dim: root}}})
	}
	return out, true
}

// resolveDim resolves one dim to a normal-form expression.
func (t *sfTable) resolveDim(d sfDim) (linExpr, bool) {
	if d == dimTop {
		return linExpr{}, false
	}
	return t.resolve(varExpr(d), 0)
}

// constVal returns the concrete value of d when it resolves to a constant.
func (t *sfTable) constVal(d sfDim) (int, bool) {
	e, ok := t.resolveDim(d)
	if !ok || !e.isConst() {
		return 0, false
	}
	return e.c, true
}

// unifyResult classifies one equality constraint.
type unifyResult int

const (
	// uProved: both sides resolved to the same expression — the constraint
	// holds without assuming anything new.
	uProved unifyResult = iota
	// uBound: consistent, by binding a previously-free dim.
	uBound
	// uFail: provably violated (constant clash or two rigid annotation
	// dims forced equal).
	uFail
	// uUnknown: at least one side is untracked; no judgment.
	uUnknown
)

// unifyDims imposes a == b. On uFail the returned strings render the two
// conflicting sides for the finding message.
func (t *sfTable) unifyDims(a, b sfDim, site PathHop) (unifyResult, string, string) {
	ea, oka := t.resolveDim(a)
	eb, okb := t.resolveDim(b)
	if !oka || !okb {
		return uUnknown, "", ""
	}
	diff := subExpr(ea, eb)
	if diff.isConst() {
		if diff.c == 0 {
			return uProved, "", ""
		}
		return uFail, t.render(ea), t.render(eb)
	}
	// Prefer binding a free (non-rigid) dim with unit coefficient. Iterate
	// highest-index first: summary atoms occupy the lowest table indices and
	// must stay as unbound roots so exported equations remain expressible in
	// atom space — fresh call-site dims bind to atoms, never the reverse.
	for i := len(diff.terms) - 1; i >= 0; i-- {
		term := diff.terms[i]
		if !t.nodes[term.dim].rigid && (term.coeff == 1 || term.coeff == -1) {
			t.bind(term.dim, solveFor(diff, term), site)
			return uBound, "", ""
		}
	}
	// Only rigid dims remain. Exactly "r1 - r2 == 0" means the annotation
	// declared two independent dims that the code forces equal.
	if diff.c == 0 && len(diff.terms) == 2 &&
		diff.terms[0].coeff+diff.terms[1].coeff == 0 &&
		(diff.terms[0].coeff == 1 || diff.terms[0].coeff == -1) {
		return uFail, t.render(ea), t.render(eb)
	}
	// A single rigid dim against a constant: pin it (a later conflicting
	// pin resolves to a constant clash above).
	if len(diff.terms) == 1 && (diff.terms[0].coeff == 1 || diff.terms[0].coeff == -1) {
		t.bind(diff.terms[0].dim, solveFor(diff, diff.terms[0]), site)
		return uBound, "", ""
	}
	return uUnknown, "", ""
}

// solveFor isolates term.dim in "diff == 0": dim = -(diff - term)/coeff
// (coeff is ±1 by the callers' checks).
func solveFor(diff linExpr, term linTerm) linExpr {
	rest := subExpr(diff, linExpr{terms: []linTerm{term}})
	return scaleLin(rest, -term.coeff)
}

// bind attaches an expression to an unbound root.
func (t *sfTable) bind(d sfDim, e linExpr, site PathHop) {
	root := t.find(d)
	if root == dimTop || t.nodes[root].bound != nil {
		return
	}
	// Union with a plain variable instead of binding, so names survive.
	if v, ok := e.singleVar(); ok {
		vroot := t.find(v)
		if vroot == root {
			return
		}
		// Keep the named/rigid node as the root for better messages.
		if t.nodes[root].rigid || (t.nodes[root].name != "" && t.nodes[vroot].name == "") {
			if !t.nodes[vroot].rigid && t.nodes[vroot].bound == nil {
				t.nodes[vroot].parent = root
				return
			}
		}
		if t.nodes[vroot].bound == nil {
			t.nodes[root].parent = vroot
			return
		}
	}
	ec := e
	t.nodes[root].bound = &ec
	t.nodes[root].boundAt = site
}

// render prints a resolved expression using dim names; anonymous dims
// print as "?".
func (t *sfTable) render(e linExpr) string {
	if e.isConst() {
		return fmt.Sprintf("%d", e.c)
	}
	var b strings.Builder
	for i, term := range e.terms {
		name := t.nodes[term.dim].name
		if name == "" {
			name = "?"
		}
		switch {
		case i == 0 && term.coeff == 1:
			b.WriteString(name)
		case i == 0 && term.coeff == -1:
			b.WriteString("-" + name)
		case term.coeff == 1:
			b.WriteString("+" + name)
		case term.coeff == -1:
			b.WriteString("-" + name)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", term.coeff, name)
		default:
			fmt.Fprintf(&b, "%+d*%s", term.coeff, name)
		}
	}
	if e.c != 0 {
		fmt.Fprintf(&b, "%+d", e.c)
	}
	return b.String()
}

// originOf returns the introduction hop of the first named or rigid dim in
// d's resolved form, so findings can point back at the annotation that
// pinned the dim. ok is false for anonymous or unknown dims.
func (t *sfTable) originOf(d sfDim) (PathHop, bool) {
	e, okr := t.resolveDim(d)
	if !okr {
		if d != dimTop {
			root := t.find(d)
			if root != dimTop && t.nodes[root].origin.Pos.Line != 0 {
				return t.nodes[root].origin, true
			}
		}
		return PathHop{}, false
	}
	for _, term := range e.terms {
		n := t.nodes[term.dim]
		if (n.rigid || n.name != "") && n.origin.Pos.Line != 0 {
			return n.origin, true
		}
	}
	return PathHop{}, false
}

// sfShape is the abstract shape of a matrix-typed value.
type sfShape struct {
	rows, cols sfDim
}

var topShape = sfShape{rows: dimTop, cols: dimTop}

// joinDim is the lattice join used by weak updates: equal resolved
// expressions keep their value, anything else degrades to Top.
func (t *sfTable) joinDim(a, b sfDim) sfDim {
	if a == b {
		return a
	}
	ea, oka := t.resolveDim(a)
	eb, okb := t.resolveDim(b)
	if !oka || !okb {
		return dimTop
	}
	if d := subExpr(ea, eb); d.isConst() && d.c == 0 {
		return a
	}
	return dimTop
}

func (t *sfTable) joinShape(a, b sfShape) sfShape {
	return sfShape{rows: t.joinDim(a.rows, b.rows), cols: t.joinDim(a.cols, b.cols)}
}
