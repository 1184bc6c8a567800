// Fixture for the deadcode rule: a package main, so its main is a root and
// everything main, init and the package-level var initialisers reach is
// live.
package main

import "fmt"

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached through the interface call in main.
func (s square) area() float64 { return s.side * s.side }

type circle struct{ r float64 }

// area is reached too, although main never builds a circle: an interface
// call reaches every implementation (no "only constructed types" pruning).
func (c circle) area() float64 { return 3 * c.r * c.r }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// double is reached as a method value, never called by name.
func (c *counter) double() { c.n *= 2 }

func (c *counter) reset() { c.n = 0 } // want "counter.reset is reachable from no main, init, package-level var or external interface"

// String is a root: fmt may call it through fmt.Stringer.
func (c *counter) String() string { return fmt.Sprint(c.n) }

type box[T any] struct{ v T }

// get is reached through the instantiation box[int].
func (b box[T]) get() T { return b.v }

// maxOf is reached through the instantiation maxOf[int].
func maxOf[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// hook's initialiser is a root, so onStart is reached.
var hook = onStart

func onStart() string { return "start" }

func init() { register() }

func register() {}

func main() {
	var s shape = square{2}
	c := &counter{}
	c.inc()
	f := c.double
	f()
	fmt.Println(s.area(), c, maxOf(1, 2), box[int]{3}.get(), used())
}

func orphan() int { return orphanHelper() } // want "main.orphan is reachable from no main"

func orphanHelper() int { return 1 } // want "main.orphanHelper is reachable from no main"

// entry is what only a test would call.
//
//lint:ignore deadcode fixture: an entry point kept on purpose
func entry() int { return helper() }

// helper is reached through the suppressed entry, so it needs no comment.
func helper() int { return 7 }

// used is called from main, so its suppression silences nothing.
//
//lint:ignore deadcode fixture: main calls this // want "unused //lint:ignore deadcode suppression"
func used() int { return 0 }
