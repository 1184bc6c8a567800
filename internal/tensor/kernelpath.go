package tensor

// asmKernels is useAsm's start-up value: whether this build and CPU have the
// vector routines.
var asmKernels = useAsm

// SetKernelPath makes every kernel entry point take the vector routines
// ("asm") or the Go loops ("go") from now on, and reports whether this build
// and CPU have that path; where they have not, nothing changes. It is the
// switch core's determinism matrix and the path-equivalence tests of other
// packages flip useAsm with: they must not run in parallel, and they set
// "asm" again when they end, which restores the start-up choice. Production
// code never calls it.
//
//lint:ignore deadcode kernel-path switch of core's determinism matrix and the gan and vfl path-equivalence tests
func SetKernelPath(path string) bool {
	switch {
	case path == "go":
		useAsm = false
	case path == "asm" && asmKernels:
		useAsm = true
	default:
		return false
	}
	return true
}
