//go:build !amd64

package archsplit

// Lanes is the number of float64 lanes of the widest kernel (selected by
// build constraint).
const Lanes = 1
