// Fixture for the tapelifetime rule: pooled buffers and tracked tapes
// must be Released in the acquiring function unless they visibly escape.
package tapelifetime

import (
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/coldata"
	"repro/internal/tensor"
)

func leakBuffer() int {
	buf := tensor.NewPooled(4, 4) // want "tensor.NewPooled buffer is acquired here but never Released"
	return buf.Rows()
}

func releasedBuffer() int {
	buf := tensor.NewPooled(4, 4)
	defer buf.Release()
	return buf.Rows()
}

func escapingBuffer() *tensor.Dense {
	buf := tensor.NewPooled(2, 2)
	return buf // ownership transfers to the caller: no finding
}

func leakConstructedTape(v *ag.Value) {
	tape := ag.Tape{} // want "autograd tape is acquired here but never Released"
	tape.Track(v)
}

func leakZeroValueTape(v *ag.Value) {
	var tape ag.Tape // want "autograd tape is acquired here but never Released"
	tape.Track(v)
}

func releasedTape(v *ag.Value) {
	var tape ag.Tape
	tape.Track(v)
	tape.Release()
}

func untrackedTape() ag.Tape {
	var tape ag.Tape // never tracked, and escapes: no finding
	return tape
}

func leakBlockBuf() int {
	bb := coldata.AcquireBlockBuf(512) // want "coldata.AcquireBlockBuf buffer is acquired here but never Released"
	return len(bb.Bytes())
}

func releasedBlockBuf() int {
	bb := coldata.AcquireBlockBuf(512)
	defer bb.Release()
	return len(bb.Bytes())
}

func escapingBlockBuf() *coldata.BlockBuf {
	bb := coldata.AcquireBlockBuf(64)
	return bb // ownership transfers to the caller: no finding
}

func leakDropoutMask(rng *rand.Rand, x *tensor.Dense) float64 {
	out, mask := tensor.Dropout(rng, x, 0.5) // want "tensor.Dropout mask is acquired here but never Released"
	defer out.Release()
	return out.Sum() + mask.Sum()
}

func releasedDropout(rng *rand.Rand, x *tensor.Dense) float64 {
	out, mask := tensor.Dropout(rng, x, 0.5)
	defer out.Release()
	defer mask.Release()
	return out.Sum() + mask.Sum()
}

// maskOwner stands in for an autograd op that keeps the mask beside its
// node's data and returns it when the node is recycled.
type maskOwner struct{ mask *tensor.Dense }

func opOwnedDropoutMask(rng *rand.Rand, x *tensor.Dense) (*tensor.Dense, *maskOwner) {
	out, mask := tensor.Dropout(rng, x, 0.5)
	return out, &maskOwner{mask: mask} // both change hands: no finding
}
