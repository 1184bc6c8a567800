// Package archsplit is a loader fixture: one declaration of Lanes per
// architecture, the way internal/tensor splits its kernels. Loaded with
// every .go file it is a redeclaration error; loaded as the compiler sees
// it, it is this file plus exactly one of the other two.
package archsplit

// Width is the vector width in bytes on this architecture.
func Width() int { return 8 * Lanes }
