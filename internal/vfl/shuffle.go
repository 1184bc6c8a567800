package vfl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// rowOrder is the row order a client trains in after some number of
// end-of-round shuffles (§3.1.5). Training-with-shuffling only needs the
// ORDER to change, so the order is a value of its own and the rows never
// move: the raw table, the CV sampler's index and the encoded matrix stay
// in the physical order they were built in, and LocalClient translates row
// indices at its boundary. A rowOrder is immutable once the coordinator
// has handed it out, which is what lets every in-process client of one
// coordinator hold the same two arrays.
type rowOrder struct {
	// shuffles counts the end-of-round shuffles applied. With the
	// coordinator's round-derived seeds it fully determines view and pos,
	// which is how a checkpoint captures "shuffle state" without ever
	// serializing rows: restore replays the order locally.
	shuffles int
	// view maps a logical row — the position an idx_p names — to the
	// physical row holding it; nil is the identity (no shuffle yet). Like
	// the secret it is drawn from, the order must stay client-side: a
	// server holding it could undo the shuffle.
	//privacy:source row order derived from the shared shuffle secret
	view []int32
	// pos is view's inverse, physical to logical.
	//privacy:source inverse row order derived from the shared shuffle secret
	pos []int32
}

// ShuffleCoordinator derives the shared per-round shuffle seeds of
// training-with-shuffling (§3.1.5) and the row order they produce. All
// clients construct a coordinator from the same secret — negotiated among
// clients before training — and the server never holds one, so it cannot
// reproduce the permutations and cannot join conditional vectors with row
// indices across rounds. Clients living in one process share one
// coordinator and with it one copy of the order: the first EndRound of a
// round computes it, the others pick it up. A coordinator is safe for
// concurrent use.
type ShuffleCoordinator struct {
	// secret seeds every shuffle permutation; a server holding it could
	// invert training-with-shuffling and re-join idx_p across rounds.
	//privacy:source shared shuffle secret
	secret int64

	mu sync.Mutex
	// last memoizes the most recently computed order.
	last rowOrder // guarded by mu
	// src is reseeded for every shuffle, so a round allocates the two new
	// index arrays and nothing else.
	src rand.Source64 // guarded by mu
}

// NewShuffleCoordinator returns a coordinator for the given shared secret.
func NewShuffleCoordinator(secret int64) *ShuffleCoordinator {
	return &ShuffleCoordinator{secret: secret}
}

// SeedForRound returns the deterministic shuffle seed for a training round.
// Seeds are derived by hashing (secret, round) so no inter-client
// communication is needed once the secret is shared.
func (c *ShuffleCoordinator) SeedForRound(round int) int64 {
	return c.derive(0, round)
}

// PublicationSeed returns the seed used to shuffle synthetic data before
// publication (§3.1.7), namespaced away from training-round seeds.
func (c *ShuffleCoordinator) PublicationSeed(batch int) int64 {
	return c.derive(1, batch)
}

func (c *ShuffleCoordinator) derive(namespace byte, round int) int64 {
	var buf [17]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(c.secret))
	buf[8] = namespace
	binary.BigEndian.PutUint64(buf[9:17], uint64(round))
	sum := sha256.Sum256(buf[:])
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// orderAfter returns the order of rows rows after shuffles end-of-round
// shuffles. from is an order the caller already holds over the same rows
// with no more shuffles than that (the zero rowOrder, the identity, always
// qualifies): EndRound passes its current order and pays one O(rows) step,
// Restore passes the identity and replays from the start. Whatever the
// starting point, the result depends on (secret, rows, shuffles) only, so
// a memoized order is as good as a computed one.
func (c *ShuffleCoordinator) orderAfter(from rowOrder, rows, shuffles int) (rowOrder, error) {
	if shuffles == 0 {
		return rowOrder{}, nil
	}
	if err := checkShuffleRows(rows); err != nil {
		return rowOrder{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last.shuffles == shuffles && len(c.last.view) == rows {
		return c.last, nil
	}
	if c.src == nil {
		c.src = rand.NewSource(0).(rand.Source64)
	}
	// Only the final view is handed out, so a replay of several rounds
	// ping-pongs between two arrays and the spare one becomes pos.
	view, spare := from.view, []int32(nil)
	for round := from.shuffles; round < shuffles; round++ {
		next := spare
		if next == nil {
			next = make([]int32, rows)
		}
		c.src.Seed(c.SeedForRound(round))
		shuffleView(next, view, c.src)
		if round > from.shuffles {
			// from.view belongs to its holders; only our own arrays recycle.
			spare = view
		}
		view = next
	}
	pos := spare
	if pos == nil {
		pos = make([]int32, rows)
	}
	for k, p := range view {
		pos[p] = int32(k)
	}
	c.last = rowOrder{shuffles: shuffles, view: view, pos: pos}
	return c.last, nil
}

// checkShuffleRows refuses a table the shuffle cannot order: its draws are
// Int31n's, and its orders are int32 row indices.
func checkShuffleRows(rows int) error {
	if rows > math.MaxInt32 {
		return fmt.Errorf("vfl: %d rows exceed the int32 row-index space of the shuffle", rows)
	}
	return nil
}

// publicationOrder is the order Publish ships rows synthetic rows in,
// rand.New(rand.NewSource(seed)).Perm(rows), drawn by shuffleView.
// privflow gives an index no taint, so an order built by index swaps does
// not inherit the seed's; the order is a source in its own right.
//
//privacy:source publication order derived from the shared shuffle secret
func publicationOrder(seed int64, rows int) ([]int, error) {
	if err := checkShuffleRows(rows); err != nil {
		return nil, err
	}
	perm := make([]int32, rows)
	shuffleView(perm, nil, rand.NewSource(seed).(rand.Source64))
	return ints(perm), nil
}

// ints widens row indices to the []int the table methods take.
func ints(rows []int32) []int {
	out := make([]int, len(rows))
	for k, r := range rows {
		out[k] = int(r)
	}
	return out
}

// shuffleView writes into next the view one shuffle after prev (nil = the
// identity): next[k] = prev[perm[k]] for perm = rand.New(src).Perm(len(next)),
// i.e. new row k holds old row perm[k], where src is freshly seeded. It is
// math/rand's inside-out Fisher–Yates run directly over prev — the same
// Intn(i+1) draws, storing prev[i] where Perm stores i — so no permutation
// is materialised and every order is the one rand.Perm-based shuffling
// produced. The draws come from a fibStream, not through rand.Rand, and
// are taken a block ahead of the swaps, so that the swaps' random loads
// overlap instead of waiting on the draw chain.
func shuffleView(next, prev []int32, src rand.Source64) {
	var s fibStream
	s.seed(src)
	var js [shuffleBlock]uint32
	for lo := 0; lo < len(next); lo += shuffleBlock {
		block := js[:min(shuffleBlock, len(next)-lo)]
		s.fill(block, lo)
		if prev == nil {
			for k, j := range block {
				next[lo+k] = next[j]
				next[j] = int32(lo + k)
			}
			continue
		}
		for k, j := range block {
			next[lo+k] = next[j]
			next[j] = prev[lo+k]
		}
	}
}

// shuffleBlock is how many draws shuffleView takes ahead of its swaps.
const shuffleBlock = 256

// math/rand's rngSource is the additive lagged Fibonacci generator
// x_m = x_{m−fibLen} + x_{m−fibTap} (mod 2⁶⁴), and Go 1 compatibility
// freezes the stream it produces.
const (
	fibLen = 607
	fibTap = 273
)

// fibStream continues a seeded rngSource's Uint64 stream in-package: it
// reads the source's first fibLen values and computes every later one by
// the recurrence, fibLen at a time, with no call per value. vec[k] holds
// the latest x_m with m ≡ k (mod fibLen); vec[next] is the next to draw.
type fibStream struct {
	vec  [fibLen]uint64
	next int
}

// seed starts the stream at src's next value; src must be an rngSource,
// the Source64 rand.NewSource returns.
func (s *fibStream) seed(src rand.Source64) {
	for k := range s.vec {
		s.vec[k] = src.Uint64()
	}
	s.next = 0
}

// advance replaces vec with the stream's next fibLen values. x_{m−fibTap}
// is last cycle's vec[k+fibLen−fibTap] for k < fibTap and this cycle's
// vec[k−fibTap] from there on.
func (s *fibStream) advance() {
	v := &s.vec
	for k := 0; k < fibTap; k++ {
		v[k] += v[k+fibLen-fibTap]
	}
	for k := fibTap; k < fibLen; k++ {
		v[k] += v[k-fibTap]
	}
	s.next = 0
}

// fill sets js[k] to what rand.Rand.Int31n(lo+k+1) returns at the same
// stream position, for every k, consuming the same values; lo+len(js) must
// not exceed 2³¹−1. Int31n draws v = Int63()>>32, the value's bits 62..32,
// until v < n·⌊2³¹/n⌋, and answers v%n. That bound holds exactly when
// v − v%n ≤ 2³¹ − n, so one unsigned division both decides and answers.
// For a power of two nothing is rejected and v%n is Int31n's mask.
func (s *fibStream) fill(js []uint32, lo int) {
	v, next := &s.vec, s.next
	for k := range js {
		n := uint32(lo + k + 1)
		for {
			if next == fibLen {
				s.advance()
				next = 0
			}
			x := uint32(v[next]>>32) & math.MaxInt32
			next++
			if q := x % n; x-q <= 1<<31-n {
				js[k] = q
				break
			}
		}
	}
	s.next = next
}
