// Fixture for the lockorder rule: lock-acquisition cycles, self-deadlock,
// and blocking operations performed while a mutex is held.
package lockorder

import (
	"context"
	"net"
	"sync"
	"time"
)

type alpha struct {
	mu sync.Mutex
}

type beta struct {
	mu sync.Mutex
}

// lockAB and lockBA take the two locks in opposite orders: a cycle.
func lockAB(a *alpha, b *beta) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle alpha.mu -> beta.mu -> alpha.mu: goroutines taking these locks in different orders can deadlock"
	b.mu.Unlock()
	a.mu.Unlock()
}

func lockBA(a *alpha, b *beta) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// Re-acquiring the same mutex on the same receiver is an immediate hang.
func double(a *alpha) {
	a.mu.Lock()
	a.mu.Lock() // want "double acquires a.mu while already holding it: guaranteed self-deadlock"
	a.mu.Unlock()
	a.mu.Unlock()
}

// Same field on two different instances: distinct locks, no finding.
func twoInstances(x, y *alpha) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

type gamma struct {
	mu sync.Mutex
}

type delta struct {
	mu sync.Mutex
}

// The gamma->delta edge is discovered through the callee: transGD holds
// gamma.mu while calling lockDelta, which acquires delta.mu. The cycle
// is canonicalized to start at its smallest lock name (delta.mu), so the
// report lands on the delta->gamma edge in transDG.
func transGD(g *gamma, d *delta) {
	g.mu.Lock()
	lockDelta(d)
	g.mu.Unlock()
}

func lockDelta(d *delta) {
	d.mu.Lock()
	d.mu.Unlock()
}

func transDG(g *gamma, d *delta) {
	d.mu.Lock()
	g.mu.Lock() // want "lock-order cycle delta.mu -> gamma.mu -> delta.mu: goroutines taking these locks in different orders can deadlock"
	g.mu.Unlock()
	d.mu.Unlock()
}

type conn struct {
	mu sync.Mutex
	ch chan int
}

func (c *conn) badSend() {
	c.mu.Lock()
	c.ch <- 1 // want "channel send \\(c.ch\\) while conn.badSend holds conn.mu: a stalled peer blocks every goroutine contending for the lock"
	c.mu.Unlock()
}

func (c *conn) badSleep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep \\(time.Sleep\\) while conn.badSleep holds conn.mu"
}

func (c *conn) badDial() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return net.Dial("tcp", "nowhere:0") // want "network I/O \\(net.Dial\\) while conn.badDial holds conn.mu"
}

func (c *conn) badSelect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "select without default \\(select\\) while conn.badSelect holds conn.mu"
	case <-c.ch:
	}
}

// A select with a default never blocks: clean.
func (c *conn) goodSelectDefault() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case v := <-c.ch:
		_ = v
	default:
	}
}

// Blocking after the explicit unlock: the lock is released, no finding.
func (c *conn) goodAfterUnlock() {
	c.mu.Lock()
	c.mu.Unlock()
	c.ch <- 1
}

// A function literal runs on its own goroutine's schedule: locks held at
// its definition site are not held when it runs.
func (c *conn) goodLiteral() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		time.Sleep(time.Millisecond)
	}
}

// RLock/RUnlock participate like Lock/Unlock; a consistent order is clean.
type cache struct {
	mu sync.RWMutex
}

func (s *cache) goodRead(a *alpha) {
	s.mu.RLock()
	defer s.mu.RUnlock()
}

// ---- where lockorder and cancelflow classify blocking differently ----

// Awaiting cancellation is still a wait: under a lock it blocks every
// contender until the context ends (cancelflow exempts it).
func (c *conn) badDoneWait(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	<-ctx.Done() // want "channel receive \\(ctx.Done\\(\\)\\) while conn.badDoneWait holds conn.mu"
}

// Ranging over a channel waits for every value and for the close
// (cancelflow does not look at range statements).
func (c *conn) badDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.ch { // want "range over channel \\(c.ch\\) while conn.badDrain holds conn.mu"
	}
}

// A select with a default never blocks, and lockorder leaves what runs in
// its clauses to the select (cancelflow still reports a sleep there).
func (c *conn) goodSleepInSelect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.ch:
		time.Sleep(time.Millisecond)
	default:
	}
}
