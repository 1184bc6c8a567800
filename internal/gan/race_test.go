//go:build race

package gan

// raceBuild is true under the race detector, whose sync.Pool drops a
// random share of what is put back, so allocation bounds do not hold.
const raceBuild = true
