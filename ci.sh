#!/bin/sh
# ci.sh — the checks every change must pass, cheapest first. The Makefile
# targets are the steps; the lines here are the ones no target owns.
set -eux

make vet
# The Go loops define the encoded bits, the kernels' bits, the trajectory
# and every reported metric on every build, so no compiler may fuse them:
# arm64 turns x*y + z into one instruction unless the product is written
# float64(x*y). -a defeats the build cache, which prints no listing for a
# cached package; the STEXT greps prove the listings came out.
asm=$(mktemp)
GOARCH=arm64 go build -a -gcflags=-S ./... 2>"$asm"
grep -q 'datasets\.dot STEXT' "$asm"
grep -q 'gmm\.posterior STEXT' "$asm"
grep -q 'tensor\.axpy4Generic STEXT' "$asm"
grep -q 'vfl\.SplitWidths STEXT' "$asm"
grep -q 'gan\.interpolate STEXT' "$asm"
grep -q 'ml\.meanStd STEXT' "$asm"
grep -q 'stats\.JSD STEXT' "$asm"
grep -q 'shapley\.SplitByImportance STEXT' "$asm"
grep -q 'main\.buildCustomers STEXT' "$asm"
if grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$asm"; then exit 1; fi
rm "$asm"
# gofmt, except the lint fixtures, which are malformed on purpose.
test -z "$(gofmt -l . | grep -v /testdata/)"
# No Go file at the module root: a root package is how a second benchmark
# system beside bench/ grows back.
test -z "$(ls ./*.go 2>/dev/null)"
make lint-json
# The committed report must match a fresh run; on drift, print the findings.
git diff --exit-code -- LINT_findings.json || { make lint; exit 1; }
make build
make test
# The Adam step's reference tests from a GOAMD64=v3 build: its explicit
# float64 roundings must keep any toolchain from fusing the reference loop.
GOAMD64=v3 go test -count=1 -run 'Adam' ./internal/tensor
make race
make fuzz
