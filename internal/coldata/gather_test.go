package coldata

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// writeEncodedLike writes a cols-column one-hot-heavy file of the given
// stripe heights (encodedLike, a stripe at a time so the whole matrix never
// exists) and returns its bytes.
func writeEncodedLike(t testing.TB, cols, blockRows int, stripeRows ...int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gtvcol")
	w, err := Create(path, cols, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	for s, rows := range stripeRows {
		if err := w.AppendRows(encodedLike(rows, cols, int64(100+s))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func openBytes(t testing.TB, raw []byte, cacheBytes int64) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw), int64(len(raw)), cacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// uniformBatch draws n rows uniformly from [lo, hi).
func uniformBatch(rng *rand.Rand, idx []int32, lo, hi int) {
	for k := range idx {
		idx[k] = int32(lo + rng.Intn(hi-lo))
	}
}

// stripeBatch returns one row from each of the stripes [lo, hi) plus extra
// uniform rows of that range: a gather that sweeps exactly those stripes.
func stripeBatch(rng *rand.Rand, r *Reader, lo, hi, extra int) []int32 {
	idx := make([]int32, 0, hi-lo+extra)
	for s := lo; s < hi; s++ {
		idx = append(idx, int32(s*r.blockRows+rng.Intn(r.stripeRows(s))))
	}
	first, end := lo*r.blockRows, min(hi*r.blockRows, r.rows)
	for k := 0; k < extra; k++ {
		idx = append(idx, int32(first+rng.Intn(end-first)))
	}
	return idx
}

// gather runs one GatherRowsInto and returns the lookups it hit and missed.
func gather(t testing.TB, r *Reader, idx []int32, dst *tensor.Dense) (hits, misses int64) {
	t.Helper()
	before := r.CacheStats()
	if err := r.GatherRowsInto(idx, dst); err != nil {
		t.Fatalf("GatherRowsInto: %v", err)
	}
	after := r.CacheStats()
	return after.Hits - before.Hits, after.Misses - before.Misses
}

// sweepWeight is what the blocks of stripes [lo, hi) weigh in a cache that
// holds them all.
func sweepWeight(t testing.TB, raw []byte, lo, hi int) int64 {
	t.Helper()
	r := openBytes(t, raw, 1<<40)
	idx := stripeBatch(rand.New(rand.NewSource(1)), r, lo, hi, 0)
	gather(t, r, idx, tensor.New(len(idx), r.Cols()))
	return r.CacheStats().ResidentBytes
}

// TestBlockWeighsWhatItRetains: the cache charges a block the capacity it
// actually holds for it, whatever the layout, and a store's blocks together
// weigh about what its file does.
func TestBlockWeighsWhatItRetains(t *testing.T) {
	m := layoutMix(1500, 11)
	raw, err := os.ReadFile(writeFile(t, t.TempDir(), m, 512, nil))
	if err != nil {
		t.Fatal(err)
	}
	r := openBytes(t, raw, 0)
	idx := stripeBatch(rand.New(rand.NewSource(2)), r, 0, r.stripes, 0)
	gather(t, r, idx, tensor.New(len(idx), r.Cols()))
	layouts := map[byte]bool{}
	var sum int64
	for b, e := range r.cache.entries {
		if e == nil {
			t.Fatalf("block %d not resident after a sweep under the default budget", b)
		}
		layouts[e.layout] = true
		held := int64(cap(e.payload)) + int64(cap(e.skip))*skipEntrySize + cacheEntrySize
		if e.weight != held {
			t.Errorf("block %d (layout %d) weighs %d, retains %d", b, e.layout, e.weight, held)
		}
		if onDisk := int64(r.blockLen[b]); int64(cap(e.payload)) > onDisk {
			t.Errorf("block %d (layout %d) retains %d payload bytes, the file holds %d", b, e.layout, cap(e.payload), onDisk)
		}
		sum += e.weight
	}
	if len(layouts) != int(numLayouts) {
		t.Fatalf("layouts resident: %v, want all %d", layouts, numLayouts)
	}
	if st := r.CacheStats(); st.ResidentBytes != sum {
		t.Fatalf("ResidentBytes %d, entries weigh %d", st.ResidentBytes, sum)
	}

	// An encoded client's shape at the default stripe height: two full
	// stripes and a partial one.
	raw = writeEncodedLike(t, 33, 0, DefaultBlockRows, DefaultBlockRows, 20000)
	got, size := sweepWeight(t, raw, 0, 3), int64(len(raw))
	t.Logf("33-column store: %d bytes on disk, %d in cache (%.3fx)", size, got, float64(got)/float64(size))
	if 10*got > 11*size {
		t.Fatalf("the store weighs %d bytes in cache, its file is %d: more than 1.10x", got, size)
	}
}

// TestCyclicSweepOverBudget: gathers that sweep the same blocks over and
// over, the blocks weighing 1.5 times the budget. LRU never hits on that;
// the sweep rule keeps what it admitted first and hits on about budget /
// working set of the lookups from the second gather on. A budget no block
// fits serves every gather from transient loads.
func TestCyclicSweepOverBudget(t *testing.T) {
	raw := writeEncodedLike(t, 33, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 300)
	weight := sweepWeight(t, raw, 0, 12)
	rng := rand.New(rand.NewSource(3))

	r := openBytes(t, raw, weight*2/3)
	dst := tensor.New(12+20, r.Cols())
	var hits, misses int64
	for g := 0; g < 8; g++ {
		h, m := gather(t, r, stripeBatch(rng, r, 0, r.stripes, 20), dst)
		if g >= 2 {
			hits, misses = hits+h, misses+m
		}
	}
	rate := float64(hits) / float64(hits+misses)
	t.Logf("working set 1.5x the budget: hit rate %.3f", rate)
	if rate < 0.55 {
		t.Fatalf("hit rate %.3f from the third gather on (%d hits, %d misses), want >= 0.55", rate, hits, misses)
	}
	st := r.CacheStats()
	if st.ResidentBytes > st.BudgetBytes || st.Evictions != 0 {
		t.Fatalf("a sweep that does not move should evict nothing and stay in budget: %+v", st)
	}
	if st.BytesRead == 0 || st.TransientLoads == 0 {
		t.Fatalf("the blocks over budget should have been read again: %+v", st)
	}

	r = openBytes(t, raw, 8) // below any block
	for g := 0; g < 3; g++ {
		if h, m := gather(t, r, stripeBatch(rng, r, 0, r.stripes, 20), dst); h != 0 || m != int64(len(r.blockLen)) {
			t.Fatalf("gather %d under an 8-byte budget: %d hits, %d misses", g, h, m)
		}
	}
	if st := r.CacheStats(); st.ResidentBytes != 0 || st.TransientLoads != st.Misses {
		t.Fatalf("nothing fits 8 bytes: %+v", st)
	}
}

// TestCacheFollowsMovedRegion: when gathers move to other stripes, the
// blocks they left go stale after two sweeps, the third replaces them, and
// it hits from then on. A block that comes back after being evicted is read
// and validated again: a byte of it changed in the meantime is caught.
func TestCacheFollowsMovedRegion(t *testing.T) {
	raw := writeEncodedLike(t, 33, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 512, 300)
	r := openBytes(t, raw, sweepWeight(t, raw, 0, 4)+sweepWeight(t, raw, 0, 1)/2)
	rng := rand.New(rand.NewSource(4))
	dst := tensor.New(4+12, r.Cols())
	region := int64(4 * r.cols)

	gather(t, r, stripeBatch(rng, r, 0, 4, 12), dst)
	if h, m := gather(t, r, stripeBatch(rng, r, 0, 4, 12), dst); h != region || m != 0 {
		t.Fatalf("second gather of a region that fits: %d hits, %d misses", h, m)
	}
	var moved [4]int64
	for g := range moved {
		moved[g], _ = gather(t, r, stripeBatch(rng, r, 8, 12, 12), dst)
	}
	if moved[0] != 0 || moved[2] == 0 || moved[3] != region {
		t.Fatalf("hits per gather after moving to other stripes: %v, want none at first, some by the third, all %d by the fourth", moved, region)
	}
	if st := r.CacheStats(); st.Evictions == 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("moving should have evicted the old region within budget: %+v", st)
	}

	// Block (0, 0) is no longer resident; damage it in the "file".
	if r.cache.entries[0] != nil {
		t.Fatal("block 0 still resident")
	}
	raw[r.blockOff[0]+int64(r.blockLen[0])/2] ^= 0x40
	if err := r.GatherRowsInto(stripeBatch(rng, r, 0, 4, 12), dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gather over a block damaged after its eviction returned %v, want ErrCorrupt", err)
	}
}

// TestBudgetNeverChangesResult: whatever the cache keeps, passes on or
// evicts, a gather returns the file's bits.
func TestBudgetNeverChangesResult(t *testing.T) {
	const rows = 4000
	m := layoutMix(rows, 12)
	raw, err := os.ReadFile(writeFile(t, t.TempDir(), m, 256, nil))
	if err != nil {
		t.Fatal(err)
	}
	weight := sweepWeight(t, raw, 0, (rows+255)/256)
	for _, budget := range []int64{1 << 40, weight / 2, weight / 20, 8} {
		r := openBytes(t, raw, budget)
		rng := rand.New(rand.NewSource(5))
		idx := make([]int32, 48)
		dst := tensor.NewPooledUninit(len(idx), r.Cols())
		for g := 0; g < 30; g++ {
			lo := 0
			if g%10 >= 5 { // move between the whole file and its last quarter
				lo = 3 * rows / 4
			}
			uniformBatch(rng, idx, lo, rows)
			if err := r.GatherRowsInto(idx, dst); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			for k, row := range idx {
				for j := 0; j < r.Cols(); j++ {
					sameBits(t, "gather", dst.At(k, j), m.At(int(row), j))
				}
			}
		}
		dst.Release()
		if st := r.CacheStats(); st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("budget %d: %+v", budget, st)
		}
	}
}

// poolRecycles reports whether a sync.Pool hands back what it was given.
// Under the race detector it does not — a quarter of all Puts are dropped
// at random to shake out reuse bugs — and an allocation count over pooled
// buffers means nothing.
func poolRecycles() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}

// TestGatherAllocatesNothing: in steady state neither a gather that hits
// nor one whose every lookup is a transient load allocates.
func TestGatherAllocatesNothing(t *testing.T) {
	raw := writeEncodedLike(t, 33, 512, 512, 512, 512, 300)
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		name      string
		budget    int64
		transient bool
	}{{"all hits", 1 << 40, false}, {"all transient", 8, true}} {
		if tc.transient && !poolRecycles() {
			continue
		}
		r := openBytes(t, raw, tc.budget)
		idx := stripeBatch(rng, r, 0, r.stripes, 28)
		dst := tensor.New(len(idx), r.Cols())
		gather(t, r, idx, dst) // fills the cache, or the pools
		allocs := testing.AllocsPerRun(20, func() {
			uniformBatch(rng, idx, 0, r.Rows())
			if err := r.GatherRowsInto(idx, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per gather", tc.name, allocs)
		}
		st := r.CacheStats()
		if tc.transient && (st.Hits != 0 || st.TransientLoads != st.Misses) ||
			!tc.transient && st.Misses != int64(len(r.blockLen)) {
			t.Errorf("%s: not the gathers this test is about: %+v", tc.name, st)
		}
	}
}

// BenchmarkGatherRows gathers 64-row uniform batches from a 33-column,
// 8-stripe one-hot-heavy file (an encoded adult client at 500 k rows) under
// three budgets: one that holds the file, half of what the file weighs and
// a tenth. hit_rate counts the timed gathers only.
func BenchmarkGatherRows(b *testing.B) {
	const batch = 64
	heights := []int{DefaultBlockRows, DefaultBlockRows, DefaultBlockRows, DefaultBlockRows,
		DefaultBlockRows, DefaultBlockRows, DefaultBlockRows, 41248}
	raw := writeEncodedLike(b, 33, 0, heights...)
	whole := openBytes(b, raw, 0)
	rows := whole.Rows()
	idx := make([]int32, batch)
	dst := tensor.New(batch, whole.Cols())
	for k := range idx {
		idx[k] = int32(k * (rows / batch)) // every stripe
	}
	if err := whole.GatherRowsInto(idx, dst); err != nil {
		b.Fatal(err)
	}
	weight := whole.CacheStats().ResidentBytes
	blocks := int64(len(whole.blockLen))
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"fits", 2 * weight}, {"half", weight / 2}, {"tenth", weight / 10}} {
		b.Run(bc.name, func(b *testing.B) {
			r := openBytes(b, raw, bc.budget)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 3; i++ { // fill the cache and the pools
				uniformBatch(rng, idx, 0, rows)
				if err := r.GatherRowsInto(idx, dst); err != nil {
					b.Fatal(err)
				}
			}
			if st := r.CacheStats(); bc.name == "fits" && st.Misses != blocks {
				b.Fatalf("%d misses loading %d blocks into a cache that holds them all", st.Misses, blocks)
			}
			before := r.CacheStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				uniformBatch(rng, idx, 0, rows)
				if err := r.GatherRowsInto(idx, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := r.CacheStats()
			hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit_rate")
			if bc.name == "fits" && misses != 0 {
				b.Fatalf("%d misses after every block was loaded once", misses)
			}
		})
	}
}
