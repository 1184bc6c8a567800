package tensor

import "testing"

// The kernel-path switch, for tests only: production code never writes
// useAsm after start-up.

// HasAsmKernels reports whether this build and CPU have vector kernels.
var HasAsmKernels = asmKernels

// KernelPaths names the kernel paths this machine can run: always "go", and
// "asm" where HasAsmKernels.
func KernelPaths() []string {
	if HasAsmKernels {
		return []string{"asm", "go"}
	}
	return []string{"go"}
}

// UseKernelPath runs the rest of the test on the named path and restores the
// start-up choice when the test ends. Tests that call it must not be
// parallel.
func UseKernelPath(tb testing.TB, path string) {
	tb.Helper()
	if !SetKernelPath(path) {
		tb.Skip("no vector kernels on this build/CPU")
	}
	tb.Cleanup(func() { useAsm = HasAsmKernels })
}

// EachKernelPath runs f once per available kernel path as a subtest.
func EachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range KernelPaths() {
		t.Run(path, func(t *testing.T) {
			UseKernelPath(t, path)
			f(t)
		})
	}
}
