// Package tensor provides dense two-dimensional float64 matrices and the
// numeric primitives used by the rest of the GTV stack: matrix
// multiplication, broadcasting element-wise arithmetic, reductions,
// column-wise concatenation/slicing and row gathering.
//
// A Dense value is a row-major matrix. All operations either allocate a
// fresh result or, for the *Into variants, write into a caller-provided
// destination so hot loops can avoid allocation. Shapes are validated
// eagerly; shape errors are programming errors and therefore panic with a
// descriptive message rather than returning an error (mirroring the Go
// convention for slice index misuse).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New or the other
// constructors to create matrices with a shape.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled matrix with the given shape.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice returns a matrix that adopts data as its backing storage.
// len(data) must equal rows*cols. The slice is not copied.
//
//lint:ignore deadcode fixture constructor of the autograd tests
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
//
//lint:ignore deadcode fixture constructor of most packages' tests
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	out := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d want %d", i, len(r), cols))
		}
		copy(out.data[i*cols:(i+1)*cols], r)
	}
	return out
}

// Scalar returns a 1x1 matrix holding v.
func Scalar(v float64) *Dense {
	return &Dense{rows: 1, cols: 1, data: []float64{v}}
}

// Full returns a rows x cols matrix with every element set to v.
func Full(rows, cols int, v float64) *Dense {
	out := New(rows, cols)
	for i := range out.data {
		out.data[i] = v
	}
	return out
}

// Randn returns a rows x cols matrix of samples from N(mean, std^2) drawn
// from rng.
func Randn(rng *rand.Rand, rows, cols int, mean, std float64) *Dense {
	out := New(rows, cols)
	for i := range out.data {
		out.data[i] = float64(rng.NormFloat64()*std) + mean
	}
	return out
}

// RandUniform returns a rows x cols matrix of samples from U[lo, hi).
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Dense {
	out := New(rows, cols)
	for i := range out.data {
		out.data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return out
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Shape returns (rows, cols).
func (m *Dense) Shape() (int, int) { return m.rows, m.cols }

// Size returns the total number of elements.
func (m *Dense) Size() int { return len(m.data) }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Data returns the backing slice. Mutating it mutates the matrix.
func (m *Dense) Data() []float64 { return m.data }

// RawRow returns the backing sub-slice for row i (no copy).
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := newPooledNoZero(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Reshape returns a view of m with the new shape sharing the same data.
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows*cols != len(m.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %dx%d to %dx%d", m.rows, m.cols, rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: m.data}
}

// Apply returns a new matrix with f applied to every element.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	out := newPooledNoZero(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// Equal reports whether m and n have the same shape and identical elements.
//
//lint:ignore deadcode bit-identity oracle of the replay and determinism tests
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.data {
		//lint:ignore floateq Equal's contract is bitwise identity — it backs the same-seed replay tests
		if m.data[i] != n.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and n have the same shape and all elements
// within tol of each other.
//
//lint:ignore deadcode tolerance oracle of the kernel and gradient tests
func (m *Dense) AllClose(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether no element is NaN or infinite: the gate under
// which multiplying by an exact zero may be skipped (see tileAccGroups).
func (m *Dense) AllFinite() bool { return allFinite(m.data) }

// Transpose returns the transpose of m, computed in cache-friendly 32x32
// blocks (see kernels.go).
func (m *Dense) Transpose() *Dense {
	out := newPooledNoZero(m.cols, m.rows)
	transposeBlocks(out, m)
	return out
}
