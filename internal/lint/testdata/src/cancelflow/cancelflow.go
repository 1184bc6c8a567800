// Fixture for the cancelflow rule: a function holding a deadline carrier
// (context.Context or CallPolicy) must propagate it into every blocking
// operation, and fan-out callbacks must not block directly.
package cancelflow

import (
	"context"
	"net"
	"sync"
	"time"
)

// CallPolicy mirrors the module's deadline carrier; cancelflow matches it
// by type name so fixtures stay self-contained.
type CallPolicy struct {
	Timeout time.Duration
}

func doCtx(ctx context.Context) error { _ = ctx; return nil }
func doPolicy(p CallPolicy) error     { _ = p; return nil }

// Severing the incoming context with a fresh one.
func badBackground(ctx context.Context) {
	_ = doCtx(context.Background()) // want "badBackground passes context.Background to doCtx despite holding a context parameter: the cancellation signal is severed here"
}

func badTODO(ctx context.Context) {
	_ = doCtx(context.TODO()) // want "badTODO passes context.TODO to doCtx despite holding a context parameter"
}

// Forwarding the context it holds: clean.
func goodForward(ctx context.Context) {
	_ = doCtx(ctx)
}

// Severing the module's own deadline carrier.
func badZeroPolicy(p CallPolicy) {
	_ = doPolicy(CallPolicy{}) // want "badZeroPolicy passes a zero CallPolicy to doPolicy despite holding a CallPolicy parameter: the deadline is severed here"
}

func goodPolicyForward(p CallPolicy) {
	_ = doPolicy(p)
}

// Unscoped callers owe nothing: a fresh context is fine at the top.
func unscopedRoot() {
	_ = doCtx(context.Background())
}

// Naked blocking operations under a deadline.
func badSleep(ctx context.Context) {
	time.Sleep(time.Millisecond) // want "time.Sleep in badSleep, which holds a context parameter: it ignores the deadline"
}

func badWait(p CallPolicy) {
	var wg sync.WaitGroup
	wg.Wait() // want "WaitGroup.Wait in badWait, which holds a CallPolicy parameter: it ignores the deadline"
}

func badDial(p CallPolicy) (net.Conn, error) {
	return net.Dial("tcp", "nowhere:0") // want "unbounded net.Dial in badDial, which holds a CallPolicy parameter: use net.DialTimeout bounded by the deadline"
}

// DialTimeout carries its own bound: clean.
func goodDialTimeout(p CallPolicy) (net.Conn, error) {
	return net.DialTimeout("tcp", "nowhere:0", p.Timeout)
}

func badRecv(ctx context.Context, ch chan int) int {
	return <-ch // want "naked channel receive in badRecv, which holds a context parameter: a missing sender blocks past the deadline"
}

func badSend(ctx context.Context, ch chan int) {
	ch <- 1 // want "naked channel send in badSend, which holds a context parameter: a missing receiver blocks past the deadline"
}

// Selecting on the cancellation signal alongside the channel op: clean.
func goodRecvSelect(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// Awaiting cancellation itself is deadline-respecting by definition.
func goodDoneWait(ctx context.Context) {
	<-ctx.Done()
}

// A method on a struct carrying a CallPolicy field is in scope too.
type client struct {
	policy CallPolicy
}

func (c *client) badFieldSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep in badFieldSleep, which holds a CallPolicy field"
}

// No deadline promised, no obligation.
func unscoped(ch chan int) int {
	return <-ch
}

// Function literals are separate goroutines/callbacks, audited at their
// own sites — the scoped body check does not descend.
func goodLiteral(ctx context.Context) func() {
	return func() {
		time.Sleep(time.Millisecond)
	}
}

// ---- fan-out callbacks ----

type Client interface{ Step() error }

func fanClients(clients []Client, parallelism int, fn func(int, Client) error) error {
	for i, c := range clients {
		if err := fn(i, c); err != nil {
			return err
		}
	}
	return nil
}

// A callback that blocks directly escapes first-error cancellation.
func badCallback(clients []Client) error {
	return fanClients(clients, 4, func(i int, c Client) error {
		time.Sleep(time.Millisecond) // want "fanClients callback performs time.Sleep directly: first-error cancellation cannot interrupt it"
		return c.Step()
	})
}

func badCallbackRecv(clients []Client, ch chan int) error {
	return fanClients(clients, 4, func(i int, c Client) error {
		<-ch // want "fanClients callback performs channel receive directly"
		return c.Step()
	})
}

// Routing all waiting through the client call: clean.
func goodCallback(clients []Client) error {
	return fanClients(clients, 4, func(i int, c Client) error {
		return c.Step()
	})
}

// ---- where cancelflow and lockorder classify blocking differently ----

func fanOut(n int, fn func(int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// A send inside a select is the select's concern, and awaiting
// cancellation is the point; a sleep in a select clause still blocks the
// callback (lockorder leaves calls inside a select alone).
func selectCallback(ctx context.Context, ch chan int) error {
	return fanOut(2, func(i int) error {
		select {
		case ch <- i:
			time.Sleep(time.Millisecond) // want "fanOut callback performs time.Sleep directly"
		case <-ctx.Done():
		}
		<-ctx.Done()
		return nil
	})
}

// Ranging over a channel is not a cancelflow concern (lockorder reports it
// under a lock).
func goodDrain(ctx context.Context, ch chan int) {
	for range ch {
	}
}
