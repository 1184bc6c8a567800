//go:build !race

package gan

const raceBuild = false
