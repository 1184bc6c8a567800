// Package autograd implements an eager, tape-free reverse-mode automatic
// differentiation engine over tensor.Dense matrices.
//
// Every operation immediately computes its result and records its inputs,
// forming a DAG of *Value nodes. Grad walks that DAG in reverse topological
// order. Crucially, the backward pass of every operation is itself expressed
// in terms of differentiable operations, so the gradients returned by Grad
// are ordinary *Values that can be differentiated again. This higher-order
// capability is what lets the GTV discriminator train with the WGAN-GP
// gradient penalty, which requires differentiating the norm of an input
// gradient with respect to the model weights.
//
// Shape misuse panics (as in package tensor); Grad never returns an error —
// variables unreachable from the output receive zero gradients.
package autograd

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Value is a node in the autodiff graph: a matrix plus a record of how it
// was computed. Leaf Values are created with Var (differentiable) or Const
// (not differentiable); interior Values are created by the package-level
// operations.
type Value struct {
	data         *tensor.Dense
	op           op
	inputs       []*Value
	requiresGrad bool
}

// op describes how a Value was computed and how gradients flow to its inputs.
type op interface {
	// backward returns one gradient Value per input, given the output value
	// and the gradient of the loss with respect to the output. Each returned
	// gradient must have exactly the shape of the corresponding input. A nil
	// entry means "no gradient" (e.g. for integer-index inputs).
	//
	// need has one entry per input: false means no requested variable is
	// reachable through that input, so its gradient would be discarded and
	// the op should return nil for it instead of computing it (a matmul's
	// unwanted side is a whole product). At least one entry is true. need
	// is only valid for the duration of the call.
	backward(inputs []*Value, output, grad *Value, need []bool) []*Value
	name() string
}

// Var returns a differentiable leaf holding d. The matrix is used directly
// (not copied); training code mutates it in place via optimizer steps.
func Var(d *tensor.Dense) *Value {
	return &Value{data: d, requiresGrad: true}
}

// Const returns a non-differentiable leaf holding d.
func Const(d *tensor.Dense) *Value {
	return &Value{data: d}
}

// Scalar returns a 1x1 non-differentiable leaf holding v.
func Scalar(v float64) *Value { return Const(tensor.Scalar(v)) }

// Data returns the underlying matrix. Mutating it mutates the Value.
func (v *Value) Data() *tensor.Dense { return v.data }

// Shape returns (rows, cols) of the underlying matrix.
func (v *Value) Shape() (int, int) { return v.data.Shape() }

// Detach returns a new constant leaf sharing v's data, cutting the graph.
func (v *Value) Detach() *Value { return Const(v.data) }

// Item returns the single element of a 1x1 Value.
func (v *Value) Item() float64 {
	if r, c := v.data.Shape(); r != 1 || c != 1 {
		panic(fmt.Sprintf("autograd: Item on %dx%d value", r, c))
	}
	return v.data.At(0, 0)
}

// valuePool recycles interior Value structs between training steps (see
// Release in tape.go). Leaves made by Var/Const are never pooled: optimizer
// state and callers key off their identity.
var valuePool = sync.Pool{New: func() any { return new(Value) }}

// newValue wires up an interior node. requiresGrad is inherited from inputs.
// The struct may come from the recycle pool; the inputs are copied into the
// node's own slice so the varargs argument never escapes.
func newValue(data *tensor.Dense, o op, inputs ...*Value) *Value {
	v := valuePool.Get().(*Value)
	v.data = data
	v.op = o
	v.inputs = append(v.inputs[:0], inputs...)
	v.requiresGrad = false
	for _, in := range v.inputs {
		if in != nil && in.requiresGrad {
			v.requiresGrad = true
			break
		}
	}
	return v
}

// Grad computes the gradients of the scalar (or seed-weighted) output y with
// respect to each of xs. The returned gradients are themselves graph Values
// and can be differentiated again (e.g. for gradient penalties). Variables
// not reachable from y receive zero gradients of the appropriate shape.
func Grad(y *Value, xs ...*Value) []*Value {
	r, c := y.Shape()
	return GradWithSeed(y, Const(tensor.Full(r, c, 1)), xs...)
}

// GradWithSeed is Grad with an explicit output gradient (vector-Jacobian
// seed), which must have y's shape.
func GradWithSeed(y, seed *Value, xs ...*Value) []*Value {
	yr, yc := y.Shape()
	sr, sc := seed.Shape()
	if yr != sr || yc != sc {
		panic(fmt.Sprintf("autograd: seed shape %dx%d does not match output %dx%d", sr, sc, yr, yc))
	}

	st := gradStatePool.Get().(*gradState)
	st.topo(y)
	st.markNeeded(xs)
	st.grads[y] = seed

	// Walk in reverse topological order so each node's gradient is complete
	// before it is propagated to its inputs. Only nodes some requested x
	// hangs below are differentiated, and each op is told which of its
	// inputs those are: the gradient penalty asks for the critic's input
	// gradient alone, and must not pay for a weight gradient per layer.
	for i := len(st.order) - 1; i >= 0; i-- {
		node := st.order[i]
		g, ok := st.grads[node]
		if !ok || node.op == nil {
			continue
		}
		need := st.needMask(node)
		if need == nil {
			continue
		}
		contribs := node.op.backward(node.inputs, node, g, need)
		if len(contribs) != len(node.inputs) {
			panic(fmt.Sprintf("autograd: op %s returned %d gradients for %d inputs",
				node.op.name(), len(contribs), len(node.inputs)))
		}
		for j, in := range node.inputs {
			if !need[j] || contribs[j] == nil {
				continue
			}
			ir, ic := in.Shape()
			gr, gc := contribs[j].Shape()
			if ir != gr || ic != gc {
				panic(fmt.Sprintf("autograd: op %s produced gradient %dx%d for input %dx%d",
					node.op.name(), gr, gc, ir, ic))
			}
			if prev, ok := st.grads[in]; ok {
				st.grads[in] = Add(prev, contribs[j])
			} else {
				st.grads[in] = contribs[j]
			}
		}
	}

	out := make([]*Value, len(xs))
	for i, x := range xs {
		if g, ok := st.grads[x]; ok {
			out[i] = g
		} else {
			xr, xc := x.Shape()
			out[i] = Const(tensor.New(xr, xc))
		}
	}
	st.release()
	return out
}

// gradState holds the scratch structures of one backward pass. States are
// pooled: a training step runs Grad several times and the maps/slices reach a
// steady-state capacity after the first step, making subsequent backward
// passes allocation-free in the traversal machinery.
type gradState struct {
	order   []*Value
	stack   []frame
	visited map[*Value]bool
	// needed holds the visited nodes from which a requested variable can be
	// reached through inputs (the variables themselves included).
	needed map[*Value]bool
	grads  map[*Value]*Value
	mask   []bool // needMask's result, reused from node to node
}

// frame is one step of the iterative DFS in gradState.topo.
type frame struct {
	v    *Value
	next int
}

var gradStatePool = sync.Pool{New: func() any {
	return &gradState{
		visited: make(map[*Value]bool, 64),
		needed:  make(map[*Value]bool, 64),
		grads:   make(map[*Value]*Value, 64),
	}
}}

func (s *gradState) release() {
	s.order = s.order[:0]
	s.stack = s.stack[:0]
	clear(s.visited)
	clear(s.needed)
	clear(s.grads)
	gradStatePool.Put(s)
}

// markNeeded fills s.needed after topo: s.order lists inputs before the
// nodes that consume them, so one forward pass settles every node.
func (s *gradState) markNeeded(xs []*Value) {
	for _, x := range xs {
		if s.visited[x] {
			s.needed[x] = true
		}
	}
	for _, v := range s.order {
		if s.needed[v] {
			continue
		}
		for _, in := range v.inputs {
			if in != nil && s.needed[in] {
				s.needed[v] = true
				break
			}
		}
	}
}

// needMask returns, per input of node, whether its gradient is needed, or
// nil when none is. The slice is reused by the next call.
func (s *gradState) needMask(node *Value) []bool {
	s.mask = s.mask[:0]
	some := false
	for _, in := range node.inputs {
		n := in != nil && s.needed[in]
		s.mask = append(s.mask, n)
		some = some || n
	}
	if !some {
		return nil
	}
	return s.mask
}

// topo fills s.order with the nodes reachable from y that participate in
// differentiation, in topological order (inputs before outputs). Iterative
// DFS keeps deep graphs (e.g. unrolled double-backprop chains) from
// overflowing the goroutine stack.
func (s *gradState) topo(y *Value) {
	s.stack = append(s.stack, frame{v: y})
	s.visited[y] = true
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		if f.next < len(f.v.inputs) {
			in := f.v.inputs[f.next]
			f.next++
			if in != nil && in.requiresGrad && !s.visited[in] {
				s.visited[in] = true
				s.stack = append(s.stack, frame{v: in})
			}
			continue
		}
		s.order = append(s.order, f.v)
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// reduceTo sums g down to the given target shape, inverting broadcasting.
// Supported targets are the broadcast-compatible shapes: same, 1xC, Rx1, 1x1.
func reduceTo(g *Value, rows, cols int) *Value {
	gr, gc := g.Shape()
	if gr == rows && gc == cols {
		return g
	}
	if rows == 1 && cols == 1 {
		return SumAll(g)
	}
	if rows == 1 && cols == gc {
		return SumRows(g)
	}
	if cols == 1 && rows == gr {
		return SumCols(g)
	}
	panic(fmt.Sprintf("autograd: cannot reduce %dx%d to %dx%d", gr, gc, rows, cols))
}
