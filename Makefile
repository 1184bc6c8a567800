GO ?= go

.PHONY: all build vet lint lint-json test race fuzz ci bench-layers

# Per-fuzzer budget for the `fuzz` target; `make fuzz FUZZTIME=1m` hunts longer.
FUZZTIME ?= 5s

all: ci

build:
	$(GO) build ./...

# amd64 vet (asmdecl checks the AVX2 kernels' frames), then arm64 vet and
# build, so the portable kernel file set keeps compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# gtv-lint's rules (`gtv-lint -list` prints them), findings as text plus the
# per-rule cost table.
lint:
	$(GO) run ./cmd/gtv-lint -timing ./...

# The committed, drift-checked report. No -timing: it must be
# byte-deterministic. Exit 1 (findings) still writes it; a load error or a
# crash fails the target and leaves LINT_findings.json as it was.
lint-json:
	$(GO) build -o .lint_build/gtv-lint ./cmd/gtv-lint
	.lint_build/gtv-lint -json ./... > LINT_findings.json.tmp; [ $$? -le 1 ]
	mv LINT_findings.json.tmp LINT_findings.json

# bench/_gtvbench hides from ./... behind its underscore, so it is vetted and
# tested by name.
test:
	$(GO) test ./...
	$(GO) vet ./bench/_gtvbench
	$(GO) test ./bench/_gtvbench

# Short mode over the module (GAN-training tests skip themselves), full mode
# over the concurrency-critical packages.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/vfl/... ./internal/tensor/... ./internal/autograd/...

# Every fuzzer in the module, each for FUZZTIME.
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

# ci.sh is the one CI definition; the targets above are its steps.
ci:
	./ci.sh

# Every package micro-benchmark, one thread, into a stamped BENCH_layers.json
# (cmd/benchjson); the record replaces the committed one only when the run
# completes.
bench-layers:
	$(GO) test -run '^$$' -bench . -cpu 1 ./internal/tensor ./internal/autograd \
		./internal/gmm ./internal/encoding ./internal/condvec ./internal/coldata ./internal/vfl \
		| $(GO) run ./cmd/benchjson > BENCH_layers.json.tmp
	mv BENCH_layers.json.tmp BENCH_layers.json
