package tensor

// Int31n over a stretch of math/rand's stream, four draws at a time. The
// end-of-round shuffle draws Int31n(i+1) for every row i in turn (math/rand's
// inside-out Fisher–Yates); its scalar loop does one integer division per
// row. The vector routine answers a whole group of four draws with one
// 4-lane float64 division, and leaves every group it cannot answer exactly
// to that loop.

// Int31nDraws answers the draws rand.Rand.Int31n(lo+k+1) would make from the
// stream values xs[k], for whole groups of four k from the start: js[k] is
// the answer when xs[k] is accepted. It stops before the first group holding
// a value Int31n would reject (that draw takes further values, which moves
// every later pairing of value and bound), before the last len%4, and at the
// shorter of js and xs, and returns how many it answered, a multiple of four.
// lo+len(js) must not exceed 2³¹−1. Where there is no vector routine it
// answers nothing: the caller's own one-draw loop, which must agree with
// int31nDrawsGeneric, is the Go path.
func Int31nDraws(js []uint32, xs []uint64, lo int) (done int) {
	return int31nDraws(js, xs, lo)
}

// int31nDrawsGeneric is the loop int31nAVX2 must agree with, bit for bit.
// Int31n takes v = Int63()>>32, bits 62..32 of a stream value, and accepts v
// when v < n·⌊2³¹/n⌋, which holds exactly when v − v%n ≤ 2³¹ − n; its answer
// is v%n. (For a power of two nothing is rejected and v%n is Int31n's mask.)
//
//lint:ignore deadcode bit-identity oracle of the draw tests
func int31nDrawsGeneric(js []uint32, xs []uint64, lo int) (done int) {
	n := min(len(js), len(xs)) &^ 3
	for ; done < n; done += 4 {
		var q [4]uint32
		for k := range q {
			x, bound := uint32(xs[done+k]>>32)&(1<<31-1), uint32(lo+done+k+1)
			q[k] = x % bound
			if x-q[k] > 1<<31-bound {
				return done
			}
		}
		copy(js[done:done+4], q[:])
	}
	return done
}
