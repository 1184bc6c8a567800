package autograd

import (
	"sync"

	"repro/internal/tensor"
)

// Tape-scoped lifetime management. The engine itself stays tape-free — every
// op eagerly records its inputs on the Value — but training loops have a
// natural step boundary: once the optimizer has consumed the gradients,
// every interior node of the step's graph is dead. Release walks the graph
// from the step's roots and recycles those interiors (both the Value structs
// and their tensor backings) into the package free lists, so the next step
// re-uses the same memory instead of growing the heap.

// Tape accumulates the root Values of one training step so the whole step's
// graph can be released in a single call once the optimizer step is done.
//
// Usage:
//
//	var tape autograd.Tape
//	tape.Track(loss)
//	tape.Track(grads...)
//	opt.Step(...)
//	tape.Release()
//
// Track every Value the step produced that the caller still holds (the loss,
// the gradient slice, any auxiliary outputs): roots passed in one Release
// call are deduplicated against each other, whereas releasing overlapping
// graphs in separate calls would double-free their shared interiors.
type Tape struct{ roots []*Value }

// Track adds vs to the set of roots released by the next Release call.
func (t *Tape) Track(vs ...*Value) { t.roots = append(t.roots, vs...) }

// Release releases the graphs of all tracked roots (see the package-level
// Release) and resets the tape for reuse.
func (t *Tape) Release() {
	Release(t.roots...)
	t.roots = t.roots[:0]
}

// Release recycles every interior Value reachable from roots, returning the
// Value structs and their tensor backings to the free lists.
//
// Safety rules, enforced structurally:
//
//   - Leaves (Var and Const nodes) are never recycled and their matrices are
//     never released. Model parameters are Var leaves, so optimizer state
//     keyed by parameter identity survives; Detach() leaves shield any buffer
//     that must outlive the step (detaching a value and passing both into the
//     same Release call keeps the shared buffer alive).
//   - A backing slab aliased by any leaf in the walked graph is skipped even
//     when an interior node also points at it.
//   - Slabs shared by several interior nodes (Reshape views) are released
//     exactly once.
//   - A pooled buffer an op keeps beside its node's data (a dropout mask)
//     belongs to the node that made it and goes back with that node; the
//     gradient nodes that borrow it release nothing.
//
// After Release returns, every non-leaf Value reachable from roots is dead:
// the caller must drop all references to them. All roots of one step must be
// passed in a single call — their graphs overlap, and the shared interiors
// would otherwise be double-released.
func Release(roots ...*Value) {
	st := releaseStatePool.Get().(*releaseState)
	for _, r := range roots {
		if r != nil && !st.visited[r] {
			st.visited[r] = true
			st.stack = append(st.stack, r)
		}
	}
	// Collect the full graph first: leaf aliases must all be known before any
	// interior slab is released.
	for len(st.stack) > 0 {
		v := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		st.nodes = append(st.nodes, v)
		for _, in := range v.inputs {
			if in != nil && !st.visited[in] {
				st.visited[in] = true
				st.stack = append(st.stack, in)
			}
		}
	}
	for _, v := range st.nodes {
		if v.op == nil {
			if p := dataPtr(v.data); p != nil {
				st.leafPtrs[p] = true
			}
		}
	}
	for _, v := range st.nodes {
		if v.op == nil {
			continue
		}
		if p := dataPtr(v.data); p != nil && !st.leafPtrs[p] && !st.released[p] {
			st.released[p] = true
			v.data.Release()
		}
		if o, ok := v.op.(*dropoutOp); ok && o.owned {
			o.mask.Release()
		}
		v.data = nil
		v.op = nil
		v.inputs = v.inputs[:0]
		v.requiresGrad = false
		valuePool.Put(v)
	}
	st.reset()
	releaseStatePool.Put(st)
}

// dataPtr returns the identity of a matrix's backing storage (nil for empty
// matrices, which have nothing to release or protect).
func dataPtr(d *tensor.Dense) *float64 {
	if d == nil {
		return nil
	}
	s := d.Data()
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// releaseState holds the scratch structures of one Release walk; pooled for
// the same reason as gradState.
type releaseState struct {
	stack    []*Value
	nodes    []*Value
	visited  map[*Value]bool
	leafPtrs map[*float64]bool
	released map[*float64]bool
}

var releaseStatePool = sync.Pool{New: func() any {
	return &releaseState{
		visited:  make(map[*Value]bool, 64),
		leafPtrs: make(map[*float64]bool, 64),
		released: make(map[*float64]bool, 64),
	}
}}

func (s *releaseState) reset() {
	s.stack = s.stack[:0]
	s.nodes = s.nodes[:0]
	clear(s.visited)
	clear(s.leafPtrs)
	clear(s.released)
}
