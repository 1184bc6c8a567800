package coldata

import "unsafe"

// DefaultCacheBytes is the block-cache budget readers use when the caller
// passes 0.
const DefaultCacheBytes = 256 << 20

// CacheStats counts what a Reader's block cache has done for its gathers
// since Open. Every block lookup of a gather is a hit or a miss; every miss
// reads, checksums and validates the block again, and ends with the block
// either resident or served once from a pooled buffer (a transient load).
type CacheStats struct {
	Hits, Misses   int64
	Evictions      int64
	TransientLoads int64
	BytesRead      int64 // file bytes the misses read
	ResidentBytes  int64 // weight of the blocks held now
	BudgetBytes    int64 // the bound on ResidentBytes
}

// cacheEntry is a resident block: a handle whose payload and skip table are
// exact-size copies the entry owns, linked into the cache's recency ring.
type cacheEntry struct {
	blockHandle
	block      int    // stripe*cols + column
	sweep      uint64 // the last gather that looked the block up
	weight     int64
	prev, next *cacheEntry
}

const (
	cacheEntrySize = int64(unsafe.Sizeof(cacheEntry{}))
	skipEntrySize  = int64(unsafe.Sizeof(skipEntry{}))
)

// residentBytes is what keeping the block costs the cache: the payload and
// skip table copied to exact size, and the entry that holds them.
func (h *blockHandle) residentBytes() int64 {
	return int64(len(h.payload)) + int64(len(h.skip))*skipEntrySize + cacheEntrySize
}

// blockCache keeps compact block handles for GatherRowsInto, its only
// consumer, within a byte budget. A resident block weighs the bytes it
// retains — its payload as the file holds it, a quarter of a byte per
// nonzero of skip table, the entry — so the budget is a bound on about that
// many file bytes, for every layout.
//
// The policy is built for the traffic: a gather is a sweep, numbered, and
// every sweep visits its blocks in the same stripe-major order, a uniform
// batch touching all of them. Under LRU such a cycle over more than the
// budget evicts each block just before its next use and never hits. Here a
// full cache makes room only out of blocks that neither this sweep nor the
// one before looked up; when there are none, the missed block is served
// from the caller's pooled buffer and not kept. So the resident set stays
// put while the same region is swept — the hit rate over a working set
// larger than the budget is about budget ÷ working set — and when gathers
// move to other blocks the old ones go stale after two sweeps and are
// replaced in the third. Protecting the current sweep alone would not do:
// mid-sweep, the resident blocks further along the order have not been
// touched yet.
//
// Not synchronized: the Reader serialises gathers.
type blockCache struct {
	limit   int64
	used    int64
	sweep   uint64
	entries []*cacheEntry // by block number; nil when not resident
	ring    cacheEntry    // sentinel: ring.next is the most recently looked up, ring.prev the least
	stats   CacheStats
}

func (c *blockCache) init(limit int64, blocks int) {
	if limit <= 0 {
		limit = DefaultCacheBytes
	}
	c.limit = limit
	c.entries = make([]*cacheEntry, blocks)
	c.drop()
}

func (c *blockCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}

// get returns block b's resident handle, marking it used by the current
// sweep, or nil on a miss.
func (c *blockCache) get(b int) *blockHandle {
	e := c.entries[b]
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	e.sweep = c.sweep
	c.unlink(e)
	c.pushFront(e)
	return &e.blockHandle
}

// offer is called with the freshly parsed handle of a block that missed.
// If the block fits the budget — after evicting, least recently used
// first, only blocks the last two sweeps did not touch — the cache keeps a
// copy of it; t itself stays the caller's either way.
func (c *blockCache) offer(b int, t *blockHandle) {
	w := t.residentBytes()
	for c.used+w > c.limit {
		lru := c.ring.prev
		if w > c.limit || lru == &c.ring || lru.sweep+1 >= c.sweep {
			c.stats.TransientLoads++
			return
		}
		c.unlink(lru)
		c.entries[lru.block] = nil
		c.used -= lru.weight
		c.stats.Evictions++
	}
	e := &cacheEntry{blockHandle: *t, block: b, sweep: c.sweep, weight: w}
	e.payload = append(make([]byte, 0, len(t.payload)), t.payload...)
	e.skip = append(make([]skipEntry, 0, len(t.skip)), t.skip...)
	c.entries[b] = e
	c.pushFront(e)
	c.used += w
}

// drop forgets every resident block.
func (c *blockCache) drop() {
	clear(c.entries)
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	c.used = 0
}
