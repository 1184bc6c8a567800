package tensor

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// This file holds the two allocation-avoidance mechanisms behind the hot
// training path:
//
//   - a size-bucketed free list of Dense matrices (power-of-two capacity
//     classes backed by sync.Pool), so per-step intermediates can be
//     recycled instead of churning the GC, and
//   - a persistent worker pool shared by every parallel kernel, so MatMul
//     and friends stop spawning throwaway goroutines on each call.
//
// See DESIGN.md ("Kernel architecture") for the release rules.

const (
	// minSlabBits/maxSlabBits bound the pooled capacity classes: slabs of
	// 2^6 = 64 floats (512 B) up to 2^22 = 4M floats (32 MiB). Smaller
	// requests are rounded up to the minimum class; larger ones bypass the
	// pool entirely.
	minSlabBits = 6
	maxSlabBits = 22
)

// slabPools holds one free list per capacity class. It stores *Dense (the
// struct and its backing slice travel together), so neither Get nor Put
// boxes a value into an interface allocation.
var slabPools [maxSlabBits + 1]sync.Pool

// bucketFor returns the capacity class for an n-element request.
func bucketFor(n int) int {
	b := bits.Len(uint(n - 1)) // ceil(log2 n) for n >= 2
	if b < minSlabBits {
		b = minSlabBits
	}
	return b
}

// NewPooled returns a zero-filled rows x cols matrix whose backing storage
// may be recycled from the package free list. It is observably identical to
// New; the difference is that a caller which can prove the matrix dead may
// hand it back with Release so the next NewPooled of a similar size reuses
// the allocation. Buffers obtained from the pool are always zeroed before
// they are returned, so no data leaks across a Get.
func NewPooled(rows, cols int) *Dense {
	return getDense(rows, cols, true)
}

// newPooledNoZero is NewPooled without the zero fill, for internal callers
// that overwrite every element before the matrix escapes.
func newPooledNoZero(rows, cols int) *Dense {
	return getDense(rows, cols, false)
}

// NewPooledUninit is NewPooled without the zero fill: the contents are
// unspecified (possibly a previous occupant's data), so the caller must
// overwrite every element before the matrix escapes. The wire decoder uses
// it to land received payloads in recycled buffers without paying a clear
// that the decode loop immediately overwrites.
func NewPooledUninit(rows, cols int) *Dense {
	return getDense(rows, cols, false)
}

// NewPooledOneHot returns a pooled rows x cols matrix with row i holding a
// single 1.0 at column hot[i]; hot[i] < 0 leaves the row all-zero. It is
// the decode path for the wire one-hot matrix layout: one index read per
// row instead of rebuilding the dense buffer element by element.
func NewPooledOneHot(rows, cols int, hot []int) *Dense {
	if len(hot) != rows {
		panic(fmt.Sprintf("tensor: one-hot index count %d does not match %d rows", len(hot), rows))
	}
	m := getDense(rows, cols, true)
	data := m.data
	for i, h := range hot {
		if h < 0 {
			continue
		}
		if h >= cols {
			m.Release()
			panic(fmt.Sprintf("tensor: one-hot index %d out of range for %d columns", h, cols))
		}
		data[i*cols+h] = 1
	}
	return m
}

// NewPooledBitmap returns a pooled rows x cols matrix whose elements are
// 1.0 where the corresponding bit of bits is set, in row-major LSB-first
// order over the flattened element index. bits must hold exactly
// ceil(rows*cols/8) bytes with all trailing pad bits clear. It is the
// decode path for the wire bitmap matrix layout.
func NewPooledBitmap(rows, cols int, bits []byte) *Dense {
	n := rows * cols
	if len(bits) != (n+7)/8 {
		panic(fmt.Sprintf("tensor: bitmap byte count %d does not match %d elements", len(bits), n))
	}
	if n%8 != 0 && len(bits) > 0 && bits[len(bits)-1]>>(uint(n)%8) != 0 {
		panic("tensor: bitmap has bits set past the last element")
	}
	m := getDense(rows, cols, true)
	data := m.data
	for bi, b := range bits {
		if b == 0 {
			continue
		}
		base := bi * 8
		for j := 0; j < 8; j++ {
			if b&(1<<uint(j)) != 0 {
				data[base+j] = 1
			}
		}
	}
	return m
}

func getDense(rows, cols int, zero bool) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	n := rows * cols
	if n == 0 {
		return &Dense{rows: rows, cols: cols}
	}
	b := bucketFor(n)
	if b > maxSlabBits {
		return &Dense{rows: rows, cols: cols, data: make([]float64, n)}
	}
	if v := slabPools[b].Get(); v != nil {
		d := v.(*Dense)
		d.rows, d.cols = rows, cols
		d.data = d.data[:cap(d.data)][:n]
		if zero {
			clear(d.data)
		}
		return d
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, n, 1<<b)}
}

// Release hands m back to the free list for reuse by a future NewPooled.
// The caller must be the sole owner of m AND of its backing storage: no
// other matrix (Reshape view, FromSlice adoption) may alias the data, and m
// must not be used again afterwards. Matrices whose capacity is not a pooled
// power-of-two class are dropped silently, so Release is always safe on
// matrices that came from New or FromSlice — it just does nothing for them.
func (m *Dense) Release() {
	if m == nil {
		return
	}
	c := cap(m.data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if b < minSlabBits || b > maxSlabBits {
		return
	}
	slabPools[b].Put(m)
}

// ---- persistent worker pool ----

// matmulParallelThreshold is the amount of per-call work (multiply-adds for
// the matmul kernels, element visits for elementwise ones) above which a
// kernel fans its row range out across the worker pool.
const matmulParallelThreshold = 1 << 17

// kernelKind selects which kernel a queued task runs. Matmul kernels are
// dispatched by kind rather than closure so the single-threaded fast path
// and the per-chunk submissions are allocation-free.
type kernelKind uint8

const (
	kernelMatMulAcc kernelKind = iota
	kernelMatMulTAAcc
	kernelMatMulTB
	kernelFunc
)

// kernelTask is one row-range of work. Tasks travel through the channel by
// value; only the shared WaitGroup is heap-allocated per parallel dispatch.
type kernelTask struct {
	kind    kernelKind
	dst     *Dense
	a, b    *Dense
	seed    *Dense // kernelMatMulAcc and kernelMatMulTAAcc: the row every dst row starts from
	bFinite bool
	f       func(lo, hi int) // kernelFunc only
	lo, hi  int
	wg      *sync.WaitGroup
}

var (
	workerOnce sync.Once
	numWorkers int
	taskCh     chan kernelTask
)

// startWorkers lazily brings up GOMAXPROCS-1 persistent workers (the
// submitting goroutine always computes one chunk itself, so total
// parallelism is GOMAXPROCS). On a single-CPU machine no goroutines are
// created and every kernel runs inline.
func startWorkers() {
	numWorkers = runtime.GOMAXPROCS(0)
	if numWorkers < 1 {
		numWorkers = 1
	}
	if numWorkers == 1 {
		return
	}
	taskCh = make(chan kernelTask, 8*numWorkers)
	for i := 0; i < numWorkers-1; i++ {
		//lint:ignore goroleak process-lifetime kernel worker pool: taskCh is deliberately never closed, the workers die with the process
		go func() {
			for t := range taskCh {
				runKernelRange(t)
				t.wg.Done()
			}
		}()
	}
}

func poolWorkers() int {
	workerOnce.Do(startWorkers)
	return numWorkers
}

func runKernelRange(t kernelTask) {
	switch t.kind {
	case kernelMatMulAcc:
		matmulAccRange(t.dst, t.a, t.b, t.seed, t.lo, t.hi, t.bFinite)
	case kernelMatMulTAAcc:
		matmulTAAccRange(t.dst, t.a, t.b, t.seed, t.lo, t.hi, t.bFinite)
	case kernelMatMulTB:
		matmulTBRange(t.dst, t.a, t.b, t.lo, t.hi)
	case kernelFunc:
		t.f(t.lo, t.hi)
	}
}

// runRows executes t over rows [0, rows), splitting the range across the
// worker pool when rows*rowWork crosses matmulParallelThreshold. The
// submitting goroutine computes the first chunk itself. Every chunk writes a
// disjoint row range and the per-row summation order is fixed by the kernel,
// so results are bitwise identical whether the task runs inline or split.
//
// Queued tasks must never call runRows themselves (workers do not submit),
// which keeps the fixed-size pool deadlock-free.
func runRows(t kernelTask, rows, rowWork int) {
	if poolWorkers() == 1 || rows <= 1 || rows*rowWork < matmulParallelThreshold {
		if rows > 0 {
			t.lo, t.hi = 0, rows
			runKernelRange(t)
		}
		return
	}
	chunks := numWorkers
	if chunks > rows {
		chunks = rows
	}
	chunk := (rows + chunks - 1) / chunks
	var wg sync.WaitGroup
	t.wg = &wg
	for lo := chunk; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		sub := t
		sub.lo, sub.hi = lo, hi
		wg.Add(1)
		taskCh <- sub
	}
	t.lo, t.hi = 0, chunk
	runKernelRange(t)
	wg.Wait()
}

// parallelRowsFunc fans an arbitrary row-range function out across the
// worker pool (used by the large elementwise paths). Callers should only
// reach for it once they know the work is large; the closure allocates.
func parallelRowsFunc(rows, rowWork int, f func(lo, hi int)) {
	runRows(kernelTask{kind: kernelFunc, f: f}, rows, rowWork)
}
