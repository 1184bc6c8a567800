#!/bin/sh
# ci.sh — the checks every change must pass, in increasing cost order:
# vet (on amd64, where asmdecl checks the AVX2 kernels' frames against their
# Go declarations, and again with GOARCH=arm64 plus a build, so the portable
# kernel file set cannot rot), a gofmt gate over everything but the lint
# fixtures, a guard that the module root holds no Go file (a root package is
# how a second benchmark system beside bench/ and `make bench-layers` grows
# back), the repo's own static analyzers (gtv-lint: lifetimes, determinism,
# guarded fields, dropped errors, the privflow privacy-boundary taint
# analysis, the concurrency suite — lockorder, goroleak, cancelflow — and
# deadcode, reachability from the binaries; see DESIGN.md "Static
# analysis", "Privacy boundary", "Concurrency rules" and "Reachability")
# run once, as a regenerate-and-diff of the committed
# LINT_findings.json (the machine-readable report, including shapeflow's
# proved-ops coverage stats, must match a fresh run — stats drift or new
# findings fail here, after printing the findings in text form), build,
# full tests (the lint fixture packages run even under
# -short), the Adam step's reference tests once more from a GOAMD64=v3
# build (the first check of a reference loop on a build other than the
# default one: its explicit float64 roundings must keep any toolchain from
# fusing it), plus vet and the self-test of the benchmark program —
# bench/_gtvbench hides from `./...` behind its underscore, so nothing else
# would notice a refactor that stops it compiling — then the race detector
# over the whole module in short mode
# (GAN-training tests skip themselves; every concurrency path still runs)
# and in full mode over the concurrency-critical packages (the vfl
# protocol driver and its teardown tests — goroutine counts must return
# to baseline after Close — the gtvwire pipelined transport with its
# demux goroutine, per-connection server goroutines, and shared
# frame-buffer pool, and the tensor/autograd substrate — worker pool,
# buffer free lists, and both kernel paths, which the tensor tests run
# through their test-only switch — it fans out over). Last, a short-budget pass over
# every fuzzer in the module (shared byte-layer reader, snapshot decoder,
# wire frame decoder, wire matrix round trip under the cost-exact layout
# chooser, stored spec/transformer blob decoders, matmul kernel, Adam step
# against the loop it replaced, masked-form pack/unpack kernels,
# row-restricted backward pass against the full one, Log and Exp against
# math.Log and math.Exp, gtvcol decoder and round trip, gtvcol block parser
# against the parser it replaced, GMM fit against its reference loops) so
# decoder defenses and the bit-equality contracts regress loudly, not
# silently.
set -eux

go vet ./...
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...
test -z "$(gofmt -l . | grep -v /testdata/)"
test -z "$(ls ./*.go 2>/dev/null)"
make lint-json
git diff --exit-code -- LINT_findings.json || { make lint; exit 1; }
go build ./...
go test ./...
GOAMD64=v3 go test -count=1 -run 'Adam' ./internal/tensor
go vet ./bench/_gtvbench
go test ./bench/_gtvbench
go test -race -short ./...
go test -race ./internal/vfl/... ./internal/tensor/... ./internal/autograd/...
make fuzz
