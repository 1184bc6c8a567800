package tensor

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// replaySource hands out xs in order: a rand.Rand over it draws from a
// stream the test wrote.
type replaySource struct {
	xs   []uint64
	used int
}

func (s *replaySource) Uint64() uint64 {
	x := s.xs[s.used]
	s.used++
	return x
}

func (s *replaySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *replaySource) Seed(int64) {}

// mathRandInt31n is rand.Rand.Int31n(bound) drawn from the stream value x,
// and whether it took x: a rejected x makes it draw again (from a 0, which
// every bound accepts).
func mathRandInt31n(x uint64, bound int) (uint32, bool) {
	src := &replaySource{xs: []uint64{x, 0}}
	v := rand.New(src).Int31n(int32(bound))
	return uint32(v), src.used == 1
}

// checkInt31nDraws checks int31nDrawsGeneric against rand.Rand.Int31n, and
// Int31nDraws against int31nDrawsGeneric on every kernel path, for the first
// n draws of xs from bound lo+1 on. Each answered draw must be Int31n's on
// its value; the group after the last answered one, when the input holds a
// whole one, must have a value Int31n rejects; the vector routine must answer
// exactly as many draws with the same bits and write nothing past them; and
// the Go path answers nothing.
func checkInt31nDraws(t *testing.T, xs []uint64, lo, n int) {
	t.Helper()
	want := make([]uint32, n)
	wantDone := int31nDrawsGeneric(want, xs, lo)
	for k := 0; k < wantDone; k++ {
		v, took := mathRandInt31n(xs[k], lo+k+1)
		if !took || v != want[k] {
			t.Fatalf("lo %d, draw %d (value %#x): the definition answers %d, Int31n %d (accepted %v)", lo, k, xs[k], want[k], v, took)
		}
	}
	if wantDone+4 <= min(n, len(xs)) {
		rejected := false
		for k := wantDone; k < wantDone+4; k++ {
			_, took := mathRandInt31n(xs[k], lo+k+1)
			rejected = rejected || !took
		}
		if !rejected {
			t.Fatalf("lo %d: the definition stops at %d of %d, but Int31n accepts the whole group there", lo, wantDone, n)
		}
	}
	const untouched = 0xdead
	for _, path := range KernelPaths() {
		UseKernelPath(t, path)
		js := make([]uint32, n)
		for k := range js {
			js[k] = untouched
		}
		done := Int31nDraws(js, xs, lo)
		wantPath := wantDone
		if path == "go" {
			wantPath = 0
		}
		if done != wantPath {
			t.Fatalf("%s path, lo %d, %d draws from %d values: answered %d, want %d", path, lo, n, len(xs), done, wantPath)
		}
		if !slices.Equal(js[:done], want[:done]) {
			t.Fatalf("%s path, lo %d: draws %v, the definition %v", path, lo, js[:done], want[:done])
		}
		for k := done; k < n; k++ {
			if js[k] != untouched {
				t.Fatalf("%s path, lo %d: wrote draw %d past the %d answered", path, lo, k, done)
			}
		}
	}
}

// streamValues is n values of a seeded math/rand stream.
func streamValues(seed int64, n int) []uint64 {
	src := rand.NewSource(seed).(rand.Source64)
	xs := make([]uint64, n)
	for k := range xs {
		xs[k] = src.Uint64()
	}
	return xs
}

// TestInt31nDrawsMatchDefinitionAndMathRand: stream values at small bounds,
// at bounds where Int31n rejects about half (2³⁰), a quarter (3·2²⁹) and
// none (2²⁰, a power of two) of its values, and up to the largest bound
// 2³¹−1, for every run length from 0 to 9 and for long runs, with fewer
// values than draws and more.
func TestInt31nDrawsMatchDefinitionAndMathRand(t *testing.T) {
	const long = 1000
	los := []int{0, 1, 5, 1<<20 - 1, 1<<30 - 2, 1 << 30, 3 << 29, 1<<31 - 1 - long}
	for li, lo := range los {
		xs := streamValues(int64(li+1), long+8)
		for n := 0; n <= 9; n++ {
			checkInt31nDraws(t, xs[:n], lo, n)
			checkInt31nDraws(t, xs[:n+3], lo, n)
			checkInt31nDraws(t, xs[:n/2], lo, n)
		}
		for start := 0; start+long <= len(xs); start += 4 {
			checkInt31nDraws(t, xs[start:start+long], lo, long)
			if lo < 1<<20 {
				break // nothing to reject: one pass answers every group
			}
		}
	}
}

// TestInt31nDrawsStopAtEachLane puts a value Int31n rejects in each lane of
// the second group and in no other: both paths must answer exactly the first
// group. Bit 63 of every value is set, which Int31n ignores. The values
// beside it are the largest each bound accepts. At a power-of-two bound that
// is the largest value of all, whose v − v%n equals 2³¹ − n, so the runs
// whose bounds start at one must be answered whole: the acceptance is ≤,
// not <.
func TestInt31nDrawsStopAtEachLane(t *testing.T) {
	value := func(v uint32) uint64 { return 1<<63 | uint64(v)<<32 | 0x9e3779b9 }
	largestAccepted := func(bound int) uint32 { return uint32(bound*(1<<31/bound) - 1) }
	for _, lo := range []int{4, 1<<30 - 2, 3 << 29, 1<<31 - 1 - 12} {
		for lane := 0; lane < 4; lane++ {
			xs := make([]uint64, 12)
			for k := range xs {
				xs[k] = value(largestAccepted(lo + k + 1))
			}
			bound := lo + 4 + lane + 1
			if bound&(bound-1) == 0 {
				t.Fatalf("bound %d is a power of two: nothing to reject", bound)
			}
			xs[4+lane] = value(1<<31 - 1)
			checkInt31nDraws(t, xs, lo, len(xs))
			if got := int31nDrawsGeneric(make([]uint32, len(xs)), xs, lo); got != 4 {
				t.Fatalf("lo %d, rejection in lane %d: the definition answers %d draws, want 4", lo, lane, got)
			}
		}
	}
	for _, lo := range []int{0, 1<<20 - 1, 1<<30 - 1} {
		xs := make([]uint64, 8)
		for k := range xs {
			xs[k] = value(largestAccepted(lo + k + 1))
		}
		checkInt31nDraws(t, xs, lo, len(xs))
		if got := int31nDrawsGeneric(make([]uint32, len(xs)), xs, lo); got != len(xs) {
			t.Fatalf("lo %d: the definition answers %d draws of %d", lo, got, len(xs))
		}
	}
}

// FuzzInt31nDraws reads the input as little-endian stream values and checks
// them from a bound the fuzzer picks, and from 2³⁰ on (rejection-heavy).
func FuzzInt31nDraws(f *testing.F) {
	seed := func(xs ...uint64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		return b
	}
	f.Add(uint32(0), seed(1, 2, 3, 4, 5))
	f.Add(uint32(1<<20-1), seed(^uint64(0), ^uint64(0), 0, 0, 1<<62, 1<<62, 1<<62, 1<<62, 7))
	f.Add(uint32(1<<31-10), seed(1<<63, 1<<62, 1<<61, 1<<60, 1<<59, 1<<58, 1<<57, 1<<56, 1<<55))
	f.Fuzz(func(t *testing.T, lo uint32, raw []byte) {
		xs := make([]uint64, len(raw)/8)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		n := len(xs)
		top := 1<<31 - 1 - n
		if top < 0 {
			return
		}
		checkInt31nDraws(t, xs, int(lo)%(top+1), n)
		checkInt31nDraws(t, xs, min(1<<30, top), n)
	})
}

// BenchmarkInt31nDraws is one stretch of 400 000 draws at the rows-* bounds
// (1 to 400 000, where Int31n rejects almost nothing) in ns a draw, on each
// kernel path; the Go path is the definition.
func BenchmarkInt31nDraws(b *testing.B) {
	const n = 400_000
	xs := streamValues(1, n)
	js := make([]uint32, n)
	for _, path := range KernelPaths() {
		b.Run(path, func(b *testing.B) {
			UseKernelPath(b, path)
			draw := Int31nDraws
			if path == "go" {
				draw = int31nDrawsGeneric
			}
			b.ResetTimer()
			done := 0
			for i := 0; i < b.N; i++ {
				for done = 0; done < n; done++ {
					done += draw(js[done:], xs[done:], done)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/draw")
		})
	}
}
