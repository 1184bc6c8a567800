GO ?= go

.PHONY: all build vet lint lint-json test race fuzz ci bench-layers

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
# contracts that proves runtime shape panics unreachable, and deadcode,
# every function reachable from a main, an init, a package-level var or
# an external interface (bench/_gtvbench, which lint cannot see, keeps
# its callees through reasoned suppressions).
# For people: findings as text, and -timing's per-rule cost table. ci.sh
# runs the analysis once, through lint-json.
lint:
	$(GO) run ./cmd/gtv-lint -timing ./...

# Machine-readable findings for tooling; exit status 1 (findings exist)
# still writes the report, anything else (exit 2: a load error or a lint
# crash) fails the target and leaves LINT_findings.json as it was. The
# binary is built first because `go run` reports every non-zero exit as 1;
# the report goes to a .tmp file renamed only on success.
# No -timing: the report is committed and drift-checked by ci.sh, so it
# must be byte-deterministic (wall times are not).
lint-json:
	$(GO) build -o .lint_build/gtv-lint ./cmd/gtv-lint
	.lint_build/gtv-lint -json ./... > LINT_findings.json.tmp; [ $$? -le 1 ]
	mv LINT_findings.json.tmp LINT_findings.json

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
# decoder and its matrix codec (a matrix built from the input must round-trip
# bit for bit under the shortest layout that admits it), the stored
# spec/transformer blob decoders of the gtvcol store, the blocked-matmul
# kernel, the Adam step against the loop it replaced (bit equality of every
# weight and moment, both kernel paths), the masked-form counting, pack and
# unpack kernels against their element-at-a-time definition on both kernel
# paths, the row-restricted
# backward pass against the backward pass over every row (bit equality of
# every parameter gradient, both kernel paths), Log and Exp against
# math.Log and math.Exp (bit equality on both kernel paths, on the input's
# bit patterns and on a view of them spread over Exp's finite range), the
# gtvcol columnar
# file decoder (hostile bytes + encode/decode round-trip) and its block
# parser against the parser it replaced (CRC-valid frames around fuzzed
# payloads: accept/reject and every bit read out must agree), and the GMM
# fit against its reference loops (bit equality of every fitted parameter,
# log-likelihood and sampled mode).
# Each guards a byte-level or numeric contract that unit tests only sample.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/binfmt
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime $(FUZZTIME) ./internal/vfl
	$(GO) test -run '^$$' -fuzz FuzzWireMatrixRoundTrip -fuzztime $(FUZZTIME) ./internal/vfl
	$(GO) test -run '^$$' -fuzz FuzzStoredBlobDecode -fuzztime $(FUZZTIME) ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzMatMulAgainstNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzAdamStep -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzMaskedPackUnpack -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzRestrictedBackward -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzLogExp -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzColFileDecode -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzColRoundTrip -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzBlockParse -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzFitMatchesReference -fuzztime $(FUZZTIME) ./internal/gmm

# The one CI definition is ci.sh; the targets above are its steps for
# running one at a time.
ci:
	./ci.sh

# Per-package micro-benchmarks of the layers under a training round, one
# thread like the repository's benchmark (bench/run.sh, the end-to-end door):
# every matmul variant on each kernel path with GFLOP/s, elementwise ops,
# backward passes, the zero-class scan and the masked form's pack and unpack,
# and Log and Exp on each kernel path, and the Gumbel-softmax's SoftmaxRows
# (tensor, autograd); one GMM fit, the streamed
# encode and the two-party column split, the sampler's index built from a
# table in memory and from its gtvcol file, one gtvcol stripe write and
# 64-row gathers under three block-cache budgets (gmm, encoding, condvec,
# coldata); gtvwire round trips per payload class with
# framed bytes, the coordinator's shuffle step, the delayed-round fan-out
# comparison and BackwardDisc after the faithful mode's full-table forward
# pass, batch 500 in 5 000 and in 50 000 rows (vfl). cmd/benchjson stamps the
# record with commit, Go version, CPU model and GOMAXPROCS and echoes the raw
# output to stderr; the record replaces BENCH_layers.json only when the run
# got that far.
bench-layers:
	$(GO) test -run '^$$' -bench . -cpu 1 ./internal/tensor ./internal/autograd \
		./internal/gmm ./internal/encoding ./internal/condvec ./internal/coldata ./internal/vfl \
		| $(GO) run ./cmd/benchjson > BENCH_layers.json.tmp
	mv BENCH_layers.json.tmp BENCH_layers.json
