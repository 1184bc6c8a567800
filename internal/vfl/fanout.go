package vfl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// fanClients runs fn(i, clients[i]) for every client, driving at most
// `parallelism` clients concurrently (<=0 or >len means all at once, 1
// reproduces the plain sequential loop). Callers collect per-client results
// in index-addressed slices they own, so result ordering is deterministic
// regardless of scheduling; fn must only write slots for its own index.
//
// Error handling follows the first-error-cancellation contract: once any
// fn returns an error, no further client work is started (already-running
// calls finish on their own — bounding their duration is the transport
// policy's job, see CallPolicy), and the error for the lowest client index
// that failed is returned.
//
// fn is server code: a panic in it outside any client call (guardCalls
// takes those) becomes the error of its client index on either path,
// rather than ending the process from a worker goroutine.
func fanClients(clients []Client, parallelism int, fn func(i int, c Client) error) error {
	n := len(clients)
	if n == 0 {
		return nil
	}
	p := parallelism
	if p <= 0 || p > n {
		p = n
	}
	if p == 1 {
		for i, c := range clients {
			if err := fanCall(fn, i, c); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg   sync.WaitGroup
		next int64 = -1
		once sync.Once
	)
	errs := make([]error, n)
	quit := make(chan struct{})
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				select {
				case <-quit:
					return
				default:
				}
				if err := fanCall(fn, i, clients[i]); err != nil {
					errs[i] = err
					once.Do(func() { close(quit) })
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanCall runs fn(i, c) and turns a panic in it into an error naming the
// client index.
func fanCall(fn func(i int, c Client) error, i int, c Client) (err error) {
	defer stopPanic(&err, func(v any) error {
		return fmt.Errorf("vfl: server step for client %d panicked: %v", i, v)
	})
	return fn(i, c)
}
