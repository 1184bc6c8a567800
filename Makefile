GO ?= go

.PHONY: all build vet lint lint-json test race fuzz ci bench bench-round bench-kernels bench-setup bench-comm bench-data

# Per-fuzzer budget for the `fuzz` target; override with
# `make fuzz FUZZTIME=1m` for longer local hunts.
FUZZTIME ?= 5s

all: ci

build:
	$(GO) build ./...

# The second pair keeps the non-amd64 file set compiling: internal/tensor
# has AVX2 kernels on amd64 (whose assembly frames vet's asmdecl checks
# there) and plain Go loops everywhere else, and nothing else in CI builds
# the latter.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# Domain-specific static analysis (internal/lint): pool/tape lifetimes,
# seeded-randomness discipline, map-order determinism, float comparison
# hygiene, mutex-guard annotations, dropped errors, the privflow
# privacy-boundary taint analysis, and the concurrency suite — lockorder
# (lock-acquisition cycles, blocking ops under a held lock), goroleak
# (every spawned goroutine needs a provable exit path), and cancelflow
# (deadlines propagate into every blocking callee on the fan-out path) —
# plus shapeflow, interprocedural tensor shape inference over //shape:
# contracts that proves runtime shape panics unreachable.
# For people: findings as text, and -timing's per-rule cost table. ci.sh
# runs the analysis once, through lint-json.
lint:
	$(GO) run ./cmd/gtv-lint -timing ./...

# Machine-readable findings for tooling; exit status 1 (findings exist)
# still writes the report, only a lint crash (exit 2) fails the target.
# No -timing: the report is committed and drift-checked by ci.sh, so it
# must be byte-deterministic (wall times are not).
lint-json:
	$(GO) run ./cmd/gtv-lint -json ./... > LINT_findings.json || [ $$? -eq 1 ]

# bench/_gtvbench is outside ./... (the underscore hides it from the go
# tool's package patterns and from gtv-lint's walk), so it is vetted and
# self-tested by name, ~2 s.
test:
	$(GO) test ./...
	$(GO) vet ./bench/_gtvbench
	$(GO) test ./bench/_gtvbench

# Race-detector runs: short mode across the module (heavy GAN-training
# tests skip themselves; everything concurrency-relevant still runs),
# full mode for the concurrency-critical packages — including the
# teardown tests that assert goroutine counts return to baseline after
# Close. internal/core stays off the full-mode list on purpose: its
# non-short tests are race-instrumented GAN training (~90s of matmul)
# with no goroutine coverage the vfl/tensor passes don't already have.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/vfl/... ./internal/tensor/... ./internal/autograd/...

# Short-budget runs of every fuzzer in the module: the shared byte-layer
# reader under a script of reads chosen by the input (internal/binfmt; the
# primitive sweep the three format fuzzers used to carry each), the gtvsnap
# checkpoint container and its section composites, the gtvwire frame
# decoder, the stored spec/transformer blob decoders of the gtvcol store,
# the blocked-matmul kernel, the gtvcol columnar file decoder (hostile
# bytes + encode/decode round-trip) and its block parser against the parser
# it replaced (CRC-valid frames around fuzzed payloads: accept/reject and
# every bit read out must agree), and the GMM fit against its reference
# loops (bit equality of every fitted parameter, log-likelihood and sampled
# mode).
# Each guards a byte-level or numeric contract that unit tests only sample.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/binfmt
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime $(FUZZTIME) ./internal/vfl
	$(GO) test -run '^$$' -fuzz FuzzStoredBlobDecode -fuzztime $(FUZZTIME) ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzMatMulAgainstNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzColFileDecode -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzColRoundTrip -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzBlockParse -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzFitMatchesReference -fuzztime $(FUZZTIME) ./internal/gmm

ci: vet lint build test race fuzz

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# The sequential-vs-concurrent round benchmarks behind the numbers recorded
# in CHANGES.md.
bench-round:
	$(GO) test -run xxx -bench 'BenchmarkGTVTrainingRound(Latency)?$$' -benchtime 5x .

# Kernel microbenchmarks (every matmul variant over one shape table — square
# sizes and the paper-scale federated shapes — on each kernel path, /asm and
# /go, with GFLOP/s; elementwise ops, backward passes), recorded as JSON in
# BENCH_kernels.json. The raw go test output is echoed to stderr by the
# converter. One thread, like the repository's benchmark.
bench-kernels:
	$(GO) test -run xxx -bench . -cpu 1 ./internal/tensor ./internal/autograd \
		| $(GO) run ./cmd/benchjson > BENCH_kernels.json

# Set-up and data-plane layer benchmarks: one GMM fit (ns per row per EM
# iteration), the streamed encode of an adult client's columns (ns per row),
# one default-height gtvcol stripe of a one-hot-heavy matrix (MiB/s), and
# 64-row gathers from an 8-stripe file of that shape under a block-cache
# budget that holds it, half of it and a tenth (ns/row, hit rate,
# allocs/op). One thread, like the repository's benchmark; EXPERIMENTS.md
# "Where cold set-up goes" and "Where the warm round goes" quote them.
bench-setup:
	$(GO) test -run xxx -bench 'BenchmarkFit|BenchmarkTransformTo|BenchmarkWriterStripe|BenchmarkGatherRows' -cpu 1 \
		./internal/gmm ./internal/encoding ./internal/coldata

# Transport benchmarks: gtvwire round-trip latency, allocs/op and framed
# bytes at paper-scale payloads (f64 and f32), plus the delayed-round
# latency comparison. Writes BENCH_comm.json — whose committed copy is the
# PR 7 record that still has the deleted gob transport's rows in it, so
# running this replaces history with a file that has nothing to compare
# against; ROADMAP 1(c) decides that file's fate.
bench-comm:
	{ $(GO) test -run xxx -bench BenchmarkWireRoundTrip -benchtime 50x ./internal/vfl ; \
	  $(GO) test -run xxx -bench 'BenchmarkGTVTrainingRoundLatency$$' -benchtime 5x . ; } \
		| $(GO) run ./cmd/benchjson > BENCH_comm.json

# Data-plane benchmarks: whole-process gtv-train runs (in-memory vs gtvcol
# streamed, centralized and federated, up to 10M rows) measuring training
# throughput, peak RSS, and on-disk store size. Recorded as JSON in
# BENCH_data.json. Subprocess-driven so peak RSS is the real number.
bench-data:
	$(GO) build -o /tmp/gtv-train-bench ./cmd/gtv-train
	GTV_TRAIN_BIN=/tmp/gtv-train-bench $(GO) test -run xxx -bench BenchmarkDataPlane -benchtime 1x -timeout 120m . \
		| $(GO) run ./cmd/benchjson > BENCH_data.json
