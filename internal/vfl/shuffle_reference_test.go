package vfl

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// shuffleViewReference is the parent's shuffleView, kept verbatim as the
// oracle for the in-package draws: the same Fisher–Yates through
// rand.Rand.Intn, one call chain per row.
func shuffleViewReference(next, prev []int32, r *rand.Rand) {
	for i := range next {
		j := r.Intn(i + 1)
		next[i] = next[j]
		if prev != nil {
			next[j] = prev[i]
		} else {
			next[j] = int32(i)
		}
	}
}

// newSource64 is a freshly seeded math/rand source, the kind the
// coordinator reseeds every round.
func newSource64(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// requireSameView compares shuffleView with the reference on one seed and
// one previous view (nil = the identity), and with rand.Perm composed over
// prev. It returns the new view.
func requireSameView(t testing.TB, seed int64, prev []int32, rows int) []int32 {
	t.Helper()
	got := make([]int32, rows)
	shuffleView(got, prev, newSource64(seed))
	want := make([]int32, rows)
	shuffleViewReference(want, prev, rand.New(rand.NewSource(seed)))
	if k := firstDiff(got, want); k >= 0 {
		t.Fatalf("seed %d, %d rows, prev nil %v: row %d holds %d, the reference %d",
			seed, rows, prev == nil, k, got[k], want[k])
	}
	for k, p := range rand.New(rand.NewSource(seed)).Perm(rows) {
		old := int32(p)
		if prev != nil {
			old = prev[p]
		}
		if got[k] != old {
			t.Fatalf("seed %d, %d rows: row %d holds %d, rand.Perm composed over prev %d", seed, rows, k, got[k], old)
		}
	}
	return got
}

func firstDiff(a, b []int32) int {
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}

// TestFastShuffleMatchesMathRand pins shuffleView to math/rand's stream:
// on both sides of the first 607-value refill and the block boundary, at
// the 500 k rows of the large-table benchmarks, from the identity and from
// a shuffled view, on several seeds (negative, zero and beyond 2³¹ among
// them), every order equals the reference's and rand.Perm's.
func TestFastShuffleMatchesMathRand(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 255, 256, 257, 606, 607, 608, 609, 1 << 16, 500_000}
	seeds := []int64{0, 1, -7, 42, 1<<31 - 1, 1 << 40, math.MinInt64, NewShuffleCoordinator(9).SeedForRound(3)}
	for _, rows := range sizes {
		for si, seed := range seeds {
			if rows == 500_000 && si > 2 {
				break
			}
			prev := requireSameView(t, seed, nil, rows)
			requireSameView(t, seed^0x5eed, prev, rows)
		}
	}
}

// TestInt31nMatchesMathRand draws from one stream with fibStream.fill, one
// value at a time, and from the same stream through rand.Rand.Int31n, cycling through bounds where
// Int31n's rejection fires about half (2³⁰+1) and a quarter (3·2²⁹) of the
// time, the largest bound (2³¹−1), small bounds and powers of two. Every
// answer must be equal, and both sides must consume the same values.
func TestInt31nMatchesMathRand(t *testing.T) {
	bounds := []uint32{1<<30 + 1, 3 << 29, 1<<31 - 1, 1, 2, 3, 7, 1 << 20, 1 << 30}
	const draws = 30_000
	for _, seed := range []int64{3, 1 << 33} {
		var s fibStream
		s.seed(newSource64(seed))
		r := rand.New(rand.NewSource(seed))
		draw := func(n uint32) uint32 {
			var j [1]uint32
			s.fill(j[:], int(n)-1)
			return j[0]
		}
		consumed := 0
		for k := 0; k < draws; k++ {
			n := bounds[k%len(bounds)]
			before := s.next
			if got, want := draw(n), uint32(r.Int31n(int32(n))); got != want {
				t.Fatalf("seed %d, draw %d: Int31n(%d) drawn in-package = %d, through rand.Rand %d", seed, k, n, got, want)
			}
			consumed += (s.next - before + fibLen) % fibLen
		}
		if consumed <= draws {
			t.Fatalf("seed %d: %d values for %d draws: the rejection never fired", seed, consumed, draws)
		}
		for k := 0; k < 3*fibLen; k++ {
			if got, want := draw(1<<31-1), uint32(r.Int31n(1<<31-1)); got != want {
				t.Fatalf("seed %d: the streams part %d draws after the mixed bounds", seed, k)
			}
		}
	}
}

// TestShuffleKeyIs31Bits pins a finding, not a wish: rngSource.Seed
// reduces its seed modulo 2³¹−1, so every round's order, and every
// publication order, is one of at most 2³¹−1, whatever the 64-bit secret.
// Widening the key changes bits (ROADMAP 16).
func TestShuffleKeyIs31Bits(t *testing.T) {
	const rows, m = 1000, 1<<31 - 1
	seed := NewShuffleCoordinator(77).SeedForRound(0) / 2
	a, b, c := make([]int32, rows), make([]int32, rows), make([]int32, rows)
	shuffleView(a, nil, newSource64(seed))
	shuffleView(b, nil, newSource64(seed+m))
	shuffleView(c, nil, newSource64(seed+1))
	if !slices.Equal(a, b) {
		t.Fatal("seeds s and s+(2³¹−1) gave different orders: the key is wider than 31 bits now; update DESIGN.md")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds s and s+1 gave the same order")
	}
}

// TestShuffleRefusesInt32Overflow: a table the int32 views cannot index is
// refused by name before anything is allocated.
func TestShuffleRefusesInt32Overflow(t *testing.T) {
	_, err := NewShuffleCoordinator(1).orderAfter(rowOrder{}, math.MaxInt32+1, 1)
	if err == nil || !strings.Contains(err.Error(), "2147483648 rows exceed the int32 row-index space") {
		t.Fatalf("orderAfter over 2³¹ rows: %v", err)
	}
	if _, err := NewShuffleCoordinator(1).orderAfter(rowOrder{}, 10, 1); err != nil {
		t.Fatalf("orderAfter over 10 rows: %v", err)
	}
}

// FuzzShuffleView: any seed and up to 4 096 rows, from the identity or
// from a shuffled view, give the reference's order.
func FuzzShuffleView(f *testing.F) {
	f.Add(int64(1), uint16(607), false)
	f.Add(int64(-3), uint16(4096), true)
	f.Add(int64(1<<31-1), uint16(1), true)
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shuffled bool) {
		n := int(rows) % 4097
		var prev []int32
		if shuffled {
			prev = make([]int32, n)
			shuffleViewReference(prev, nil, rand.New(rand.NewSource(^seed)))
		}
		requireSameView(t, seed, prev, n)
	})
}
