#!/bin/sh
# ci.sh — the checks every change must pass, cheapest first. The Makefile
# targets are the steps; the lines here are the ones no target owns.
set -eux

make vet
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
