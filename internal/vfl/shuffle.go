package vfl

import (
	"crypto/sha256"
	"encoding/binary"
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
	// rnd is reseeded for every shuffle, so a round allocates the two new
	// index arrays and nothing else.
	rnd *rand.Rand // guarded by mu
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
func (c *ShuffleCoordinator) orderAfter(from rowOrder, rows, shuffles int) rowOrder {
	if shuffles == 0 {
		return rowOrder{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last.shuffles == shuffles && len(c.last.view) == rows {
		return c.last
	}
	if c.rnd == nil {
		c.rnd = rand.New(rand.NewSource(0))
	}
	// Only the final view is handed out, so a replay of several rounds
	// ping-pongs between two arrays and the spare one becomes pos.
	view, spare := from.view, []int32(nil)
	for round := from.shuffles; round < shuffles; round++ {
		next := spare
		if next == nil {
			next = make([]int32, rows)
		}
		c.rnd.Seed(c.SeedForRound(round))
		shuffleView(next, view, c.rnd)
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
	return c.last
}

// shuffleView writes into next the view one shuffle after prev (nil = the
// identity): next[k] = prev[perm[k]] for perm = r.Perm(len(next)), i.e. new
// row k holds old row perm[k]. It is math/rand's inside-out Fisher–Yates
// run directly over prev — the same r.Intn(i+1) draws, storing prev[i]
// where Perm stores i — so no permutation is materialised and every order
// is the one rand.Perm-based shuffling produced.
func shuffleView(next, prev []int32, r *rand.Rand) {
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
