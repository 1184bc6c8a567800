package tensor

import (
	"fmt"
	"math"
)

// BroadcastOK reports whether a matrix of shape (br, bc) can be broadcast
// against a matrix of shape (ar, ac): each dimension must either match or be
// exactly 1 on the smaller operand.
func BroadcastOK(ar, ac, br, bc int) bool {
	return (br == ar || br == 1) && (bc == ac || bc == 1)
}

// The four broadcasting binary operations are specialized per operator and
// per broadcast shape (same-shape, scalar, row vector, column vector)
// instead of funnelling every element through a closure. The same-shape
// case of large operands fans out across the kernel worker pool.

// binOp selects the operator for the shared broadcast dispatcher. The
// dispatcher switches on it once per row segment, not per element.
type binOp uint8

const (
	binAdd binOp = iota
	binSub
	binMul
	binDiv
)

// checkBroadcast panics unless b can broadcast onto a. It is the single
// definition of the broadcast-failure message (mirrored statically by the
// shapeflow lint rule).
func checkBroadcast(a, b *Dense) {
	if !BroadcastOK(a.rows, a.cols, b.rows, b.cols) {
		panic(fmt.Sprintf("tensor: cannot broadcast %dx%d onto %dx%d", b.rows, b.cols, a.rows, a.cols))
	}
}

// binInto computes dst = a OP b with b broadcast over a. dst may alias a;
// it may alias b only when b has a's full shape.
func binInto(dst, a, b *Dense, op binOp) *Dense {
	switch {
	case b.rows == a.rows && b.cols == a.cols:
		if len(a.data) >= matmulParallelThreshold && poolWorkers() > 1 {
			parallelRowsFunc(a.rows, a.cols, func(lo, hi int) {
				c := a.cols
				binSame(dst.data[lo*c:hi*c], a.data[lo*c:hi*c], b.data[lo*c:hi*c], op)
			})
			return dst
		}
		binSame(dst.data, a.data, b.data, op)
	case b.rows == 1 && b.cols == 1:
		bv := b.data[0]
		od, ad := dst.data, a.data
		switch op {
		case binAdd:
			for i, av := range ad {
				od[i] = av + bv
			}
		case binSub:
			for i, av := range ad {
				od[i] = av - bv
			}
		case binMul:
			for i, av := range ad {
				od[i] = av * bv
			}
		case binDiv:
			for i, av := range ad {
				od[i] = av / bv
			}
		}
	case b.rows == 1: // 1xC row vector broadcast down the rows
		c := a.cols
		for i := 0; i < a.rows; i++ {
			binSame(dst.data[i*c:(i+1)*c], a.data[i*c:(i+1)*c], b.data, op)
		}
	default: // Rx1 column vector: one scalar per row
		c := a.cols
		for i := 0; i < a.rows; i++ {
			arow := a.data[i*c : (i+1)*c]
			orow := dst.data[i*c : (i+1)*c]
			bv := b.data[i]
			switch op {
			case binAdd:
				for j, av := range arow {
					orow[j] = av + bv
				}
			case binSub:
				for j, av := range arow {
					orow[j] = av - bv
				}
			case binMul:
				for j, av := range arow {
					orow[j] = av * bv
				}
			case binDiv:
				for j, av := range arow {
					orow[j] = av / bv
				}
			}
		}
	}
	return dst
}

// binSameGeneric applies op over equal-length flat slices (a whole
// same-shape operand, or one matrix row against a broadcast row vector).
func binSameGeneric(od, ad, bd []float64, op binOp) {
	bd = bd[:len(ad)]
	od = od[:len(ad)]
	switch op {
	case binAdd:
		for i, av := range ad {
			od[i] = av + bd[i]
		}
	case binSub:
		for i, av := range ad {
			od[i] = av - bd[i]
		}
	case binMul:
		for i, av := range ad {
			od[i] = av * bd[i]
		}
	case binDiv:
		for i, av := range ad {
			od[i] = av / bd[i]
		}
	}
}

// Add returns a+b with b broadcast over a where needed.
func Add(a, b *Dense) *Dense { return binInto(newBinDst(a, b, "Add"), a, b, binAdd) }

// Sub returns a-b with b broadcast over a where needed.
func Sub(a, b *Dense) *Dense { return binInto(newBinDst(a, b, "Sub"), a, b, binSub) }

// Mul returns the element-wise product a*b with b broadcast over a.
func Mul(a, b *Dense) *Dense { return binInto(newBinDst(a, b, "Mul"), a, b, binMul) }

// Div returns the element-wise quotient a/b with b broadcast over a.
func Div(a, b *Dense) *Dense { return binInto(newBinDst(a, b, "Div"), a, b, binDiv) }

func newBinDst(a, b *Dense, op string) *Dense {
	checkBroadcast(a, b)
	return newPooledNoZero(a.rows, a.cols)
}

// Scale returns m*s.
func (m *Dense) Scale(s float64) *Dense {
	out := newPooledNoZero(m.rows, m.cols)
	od := out.data[:len(m.data)]
	for i, v := range m.data {
		od[i] = v * s
	}
	return out
}

// AddScalar returns m+s element-wise.
func (m *Dense) AddScalar(s float64) *Dense {
	out := newPooledNoZero(m.rows, m.cols)
	od := out.data[:len(m.data)]
	for i, v := range m.data {
		od[i] = v + s
	}
	return out
}

// AddInPlace adds src (same shape) into m and returns m.
func (m *Dense) AddInPlace(src *Dense) *Dense {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	for i, v := range src.data {
		m.data[i] += v
	}
	return m
}

// AxpyInPlace computes m += alpha*src in place and returns m.
func (m *Dense) AxpyInPlace(alpha float64, src *Dense) *Dense {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("tensor: AxpyInPlace shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	for i, v := range src.data {
		m.data[i] += float64(alpha * v)
	}
	return m
}

// Expand broadcasts m (with one or both singleton dimensions) to the
// requested shape. Supported inputs: 1x1, 1xC, Rx1 and RxC (identity).
func (m *Dense) Expand(rows, cols int) *Dense {
	if m.rows == rows && m.cols == cols {
		return m.Clone()
	}
	if !BroadcastOK(rows, cols, m.rows, m.cols) {
		panic(fmt.Sprintf("tensor: cannot expand %dx%d to %dx%d", m.rows, m.cols, rows, cols))
	}
	out := newPooledNoZero(rows, cols)
	for i := 0; i < rows; i++ {
		si := i
		if m.rows == 1 {
			si = 0
		}
		srow := m.data[si*m.cols : (si+1)*m.cols]
		orow := out.data[i*cols : (i+1)*cols]
		if m.cols == 1 {
			for j := range orow {
				orow[j] = srow[0]
			}
		} else {
			copy(orow, srow)
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// SumRows returns a 1xC row vector with the sum over rows of each column.
func (m *Dense) SumRows() *Dense {
	out := NewPooled(1, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// SumCols returns an Rx1 column vector with the sum over columns of each row.
func (m *Dense) SumCols() *Dense {
	out := newPooledNoZero(m.rows, 1)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for _, v := range row {
			s += v
		}
		out.data[i] = s
	}
	return out
}

// MeanRows returns a 1xC row vector with the per-column mean.
func (m *Dense) MeanRows() *Dense {
	out := m.SumRows()
	if m.rows > 0 {
		inv := 1 / float64(m.rows)
		for j := range out.data {
			out.data[j] *= inv
		}
	}
	return out
}

// Col returns a copy of column j as a slice of length Rows.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: column %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// ConcatCols horizontally concatenates the given matrices, which must all
// have the same number of rows.
func ConcatCols(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].rows
	total := 0
	for _, m := range ms {
		if m.rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", m.rows, rows))
		}
		total += m.cols
	}
	out := newPooledNoZero(rows, total)
	for i := 0; i < rows; i++ {
		off := i * total
		for _, m := range ms {
			copy(out.data[off:off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
			off += m.cols
		}
	}
	return out
}

// SliceCols returns a copy of columns [from, to).
func (m *Dense) SliceCols(from, to int) *Dense {
	if from < 0 || to > m.cols || from > to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of range %d", from, to, m.cols))
	}
	out := newPooledNoZero(m.rows, to-from)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:(i+1)*out.cols], m.data[i*m.cols+from:i*m.cols+to])
	}
	return out
}

// SplitCols partitions m into len(widths) matrices of the given column
// widths, which must sum to Cols.
func (m *Dense) SplitCols(widths []int) []*Dense {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.cols {
		panic(fmt.Sprintf("tensor: SplitCols widths sum %d want %d", total, m.cols))
	}
	out := make([]*Dense, len(widths))
	off := 0
	for i, w := range widths {
		out[i] = m.SliceCols(off, off+w)
		off += w
	}
	return out
}

// GatherRows returns a new matrix whose row k is m's row idx[k]. A run of
// consecutive rows is one copy, which is most of the cost of gathering narrow
// rows in ascending order (ActiveRowGroups' groups of four).
func (m *Dense) GatherRows(idx []int) *Dense {
	out := newPooledNoZero(len(idx), m.cols)
	c := m.cols
	for k := 0; k < len(idx); {
		i, run := idx[k], 1
		for k+run < len(idx) && idx[k+run] == i+run {
			run++
		}
		if i < 0 || i+run > m.rows {
			if i >= 0 {
				i = max(i, m.rows) // the run's first row m does not have
			}
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range %d", i, m.rows))
		}
		copy(out.data[k*c:(k+run)*c], m.data[i*c:(i+run)*c])
		k += run
	}
	return out
}

// SliceRows returns a copy of rows [from, to).
func (m *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to > m.rows || from > to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range %d", from, to, m.rows))
	}
	out := newPooledNoZero(to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out
}

// ConcatRows vertically concatenates the given matrices, which must all
// have the same number of columns.
func ConcatRows(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].cols
	total := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", m.cols, cols))
		}
		total += m.rows
	}
	out := newPooledNoZero(total, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out
}

// ShuffleRows returns a copy of m with rows permuted by perm: output row k
// is m's row perm[k]. perm must be a permutation of [0, Rows).
func (m *Dense) ShuffleRows(perm []int) *Dense {
	if len(perm) != m.rows {
		panic(fmt.Sprintf("tensor: ShuffleRows permutation length %d want %d", len(perm), m.rows))
	}
	return m.GatherRows(perm)
}

// Norm returns the Frobenius norm of m.
func (m *Dense) Norm() float64 {
	var s float64
	for _, v := range m.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func (m *Dense) ArgmaxRows() []int {
	out := make([]int, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
