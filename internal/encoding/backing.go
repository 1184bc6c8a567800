package encoding

import (
	"fmt"

	"repro/internal/tensor"
)

// Backing abstracts where a party's encoded training matrix lives: fully
// in memory (DenseBacking) or on disk in a gtvcol file with a bounded
// block cache (the backing returned by OpenOrEncode with Storage set).
// Trainers draw batches through it, so the same training loop runs
// in-core or out-of-core — bit-identically, since gtvcol round-trips
// float64 bit patterns exactly.
type Backing interface {
	// GatherRows returns a pooled batch whose row k is encoded row idx[k].
	// The caller owns the result and must Release it when the training
	// step is done with it.
	//
	//shape:out(N,W)
	GatherRows(idx []int) (*tensor.Dense, error)
	// Dense returns the full encoded matrix with row p placed at row
	// pos[p]; a nil pos keeps the backing's own order. Trainers that keep
	// their row order as a view over an unmoving backing (vfl.LocalClient)
	// pass the view's inverse here, the only time they need the whole
	// matrix in training order (the faithful-real-pass path; see
	// DESIGN.md). owned reports whether the caller must Release the
	// result: only the in-memory backing asked for its own order returns
	// its resident matrix, everything else is a pooled copy.
	//
	//shape:out(R,W)
	Dense(pos []int32) (m *tensor.Dense, owned bool, err error)
	// Shuffle re-orders the backing's own rows so that new row k holds old
	// row perm[k]. Training does not call it — training-with-shuffling is
	// a row-order view held by the trainer, see Dense — it survives as the
	// physical reference the order-view tests compare against and for the
	// bench probes that time it.
	Shuffle(perm []int) error
	// Close releases file handles and caches; the in-memory backing is a
	// no-op.
	Close() error
}

// DenseBacking is the in-memory Backing: a thin wrapper over the encoded
// *tensor.Dense, preserving the pre-gtvcol behavior exactly.
type DenseBacking struct {
	m *tensor.Dense
}

// NewDenseBacking wraps an encoded matrix.
//
//shape:in(N,W)
func NewDenseBacking(m *tensor.Dense) *DenseBacking { return &DenseBacking{m: m} }

// GatherRows implements Backing. The result comes from the tensor pool.
//
//shape:out(N,W)
func (b *DenseBacking) GatherRows(idx []int) (*tensor.Dense, error) {
	return b.m.GatherRows(idx), nil
}

// Dense implements Backing: the resident matrix, not owned by the caller,
// or a pooled copy re-ordered by pos.
//
//shape:out(R,W)
func (b *DenseBacking) Dense(pos []int32) (*tensor.Dense, bool, error) {
	if pos == nil {
		return b.m, false, nil
	}
	if len(pos) != b.m.Rows() {
		return nil, false, fmt.Errorf("encoding: row order of length %d for %d rows", len(pos), b.m.Rows())
	}
	out := tensor.NewPooledUninit(b.m.Rows(), b.m.Cols())
	for p, k := range pos {
		copy(out.RawRow(int(k)), b.m.RawRow(p))
	}
	return out, true, nil
}

// Shuffle implements Backing.
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (b *DenseBacking) Shuffle(perm []int) error {
	b.m = b.m.ShuffleRows(perm)
	return nil
}

// Close implements Backing.
func (b *DenseBacking) Close() error { return nil }
