package coldata

import (
	"math/bits"
	"sync"
)

// BlockBuf is a pooled byte buffer holding one raw block read from a
// gtvcol file. Reads land in recycled buffers instead of churning the GC:
// every block read — a gather's cache miss, a column read, a stripe decode
// — acquires one, validates the block in place, uses the handle that
// aliases it and releases it, all in one function. None outlives the call:
// the cache keeps a block by copying it to exact size (the power-of-two
// classes here would double a full-stripe dense or bitmap block, whose
// framing pushes it just past 2^19 and 2^13 bytes).
//
// The acquire/release pairing is enforced statically by the tapelifetime
// lint rule, exactly like tensor's pooled matrices: a function that
// acquires a BlockBuf must release it or visibly pass ownership on.
type BlockBuf struct {
	b []byte
}

// blockBufPools holds one free list per power-of-two capacity class,
// mirroring tensor's slab pools (classes 2^6 .. 2^22 bytes; larger
// requests bypass the pool).
const (
	minBufBits = 6
	maxBufBits = 22
)

var blockBufPools [maxBufBits + 1]sync.Pool

func bufBucket(n int) int {
	b := bits.Len(uint(n - 1))
	if b < minBufBits {
		b = minBufBits
	}
	return b
}

// AcquireBlockBuf returns a pooled n-byte buffer. Contents are
// unspecified; the caller must fill all n bytes before reading them. The
// caller owns the buffer until it calls Release or hands it to an owner
// that does.
func AcquireBlockBuf(n int) *BlockBuf {
	if n <= 0 {
		return &BlockBuf{}
	}
	b := bufBucket(n)
	if b > maxBufBits {
		return &BlockBuf{b: make([]byte, n)}
	}
	if v := blockBufPools[b].Get(); v != nil {
		buf := v.(*BlockBuf)
		buf.b = buf.b[:cap(buf.b)][:n]
		return buf
	}
	return &BlockBuf{b: make([]byte, n, 1<<b)}
}

// Bytes returns the buffer's contents. The slice is invalidated by
// Release.
func (b *BlockBuf) Bytes() []byte { return b.b }

// Release hands the buffer back to the free list. The caller must be the
// sole owner; the buffer and any slice obtained from Bytes must not be
// used afterwards. Safe on buffers whose capacity is not a pooled class
// (it just drops them) and on nil.
func (b *BlockBuf) Release() {
	if b == nil {
		return
	}
	c := cap(b.b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	if k < minBufBits || k > maxBufBits {
		return
	}
	blockBufPools[k].Put(b)
}
