GO ?= go

.PHONY: all build vet lint lint-json test race fuzz ci bench-layers profile cover

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
	$(GO) run ./cmd/gtv-lint -timing

# The committed, drift-checked report. No -timing: it must be
# byte-deterministic. Exit 1 (findings) still writes it; a load error or a
# crash fails the target and leaves LINT_findings.json as it was.
lint-json:
	$(GO) build -o .lint_build/gtv-lint ./cmd/gtv-lint
	.lint_build/gtv-lint -json > LINT_findings.json.tmp; [ $$? -le 1 ]
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
	$(GO) test -run '^$$' -fuzz FuzzShuffleView -fuzztime $(FUZZTIME) ./internal/vfl
	$(GO) test -run '^$$' -fuzz FuzzSamplerIndex -fuzztime $(FUZZTIME) ./internal/condvec
	$(GO) test -run '^$$' -fuzz FuzzStoredBlobDecode -fuzztime $(FUZZTIME) ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzSpanCodedImage -fuzztime $(FUZZTIME) ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzMatMulAgainstNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzAdamStep -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzMaskedPackUnpack -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzRestrictedBackward -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzLogExp -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzInt31nDraws -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzColFileDecode -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzColRoundTrip -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzBlockParse -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzAppendBlockMatchesReference -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzBlockCodes -fuzztime $(FUZZTIME) ./internal/coldata
	$(GO) test -run '^$$' -fuzz FuzzFitMatchesReference -fuzztime $(FUZZTIME) ./internal/gmm
	$(GO) test -run '^$$' -fuzz FuzzPosteriorBlock -fuzztime $(FUZZTIME) ./internal/gmm

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

# CPU profiles of gtv-train at each bench/ workload's shape
# (bench/_gtvbench/workloads.go), on one thread, split by the phase labels
# gtv-train sets (setup, train, synth) and the label core.New gives the
# loopback clients' serve loops (serve: wire-4c's client side, empty
# elsewhere) into a stamped BENCH_profile.json: per
# workload, phase and order (flat, cum), pprof's top 20 functions with their
# shares of the phase's samples (cmd/benchjson). How the runs differ
# from bench/'s:
#   - gtv-train trains on an 80 % split, so -rows is 1.25 times the
#     workload's rows and training sees the workload's row count;
#   - it synthesizes train.Rows() rows in one call (bench/: synthN per call);
#   - it runs the rounds once, untimed, with no warm-up rounds and no
#     repeated set-up;
#   - rows-warm opens the store the rows-cold run before it wrote, which is
#     its cold first run;
#   - rows-warm's set-up phase is merged from that run and
#     PROFILE_WARM_OPENS more warm opens of the same store (pprof merges the
#     profiles it is given): one open is a few 10 ms samples, too few to
#     rank functions. The extra runs train one round and synthesize
#     nothing, so they add almost no train or synth samples, and only the
#     setup tables read them;
#   - in wire-4c the clients' work in the rounds and in synthesis is the
#     serve phase, and train and synth hold the server's side only.
PROFILE_DIR := .profile_build
PROFILE_WORKLOADS := paper-fed wire-4c rows-cold rows-warm
PROFILE_COMMON := -dataset adult -seed 1 -log-every 0 -skip-eval -synth-out /dev/null
PROFILE_paper-fed := -rows 50000 -clients 2 -plan D2_0G0_2 -rounds 24 -disc-steps 5 -batch 250 -block 256 -noise 128 -lr 2e-4 -pac 10
PROFILE_wire-4c := -rows 6250 -clients 4 -plan D0_2G0_2 -rounds 100 -batch 500 -pac 10 -faithful-real-pass -wire binary
PROFILE_rows-cold := -rows 625000 -clients 2 -plan D2_0G0_2 -rounds 400 -data-dir $(PROFILE_DIR)/store
PROFILE_rows-warm := $(PROFILE_rows-cold) -block-cache 8
PROFILE_WARM_OPENS := 50

profile:
	rm -rf $(PROFILE_DIR)
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/gtv-train ./cmd/gtv-train
	$(foreach w,$(PROFILE_WORKLOADS),GOMAXPROCS=1 $(PROFILE_DIR)/gtv-train $(PROFILE_COMMON) $(PROFILE_$(w)) \
		-cpuprofile $(PROFILE_DIR)/$(w).prof > $(PROFILE_DIR)/$(w).log &&) true
	for i in $$(seq $(PROFILE_WARM_OPENS)); do \
		GOMAXPROCS=1 $(PROFILE_DIR)/gtv-train -dataset adult -seed 1 -log-every 0 -skip-eval $(PROFILE_rows-warm) -rounds 1 \
			-cpuprofile $(PROFILE_DIR)/rows-warm-open-$$i.prof > /dev/null || exit 1; \
	done
	for w in $(PROFILE_WORKLOADS); do for p in setup train serve synth; do for o in flat cum; do \
		echo "profile: $$w $$p $$o"; \
		profs=$(PROFILE_DIR)/$$w.prof; \
		if [ $$w.$$p = rows-warm.setup ]; then profs="$$profs $(PROFILE_DIR)/rows-warm-open-*.prof"; fi; \
		$(GO) tool pprof -top -relative_percentages -unit=ms -nodecount=20 -tagfocus=phase=$$p \
			$$(test $$o = cum && echo -cum) $(PROFILE_DIR)/gtv-train $$profs 2>/dev/null; \
	done; done; done | GOMAXPROCS=1 $(GO) run ./cmd/benchjson > BENCH_profile.json.tmp
	mv BENCH_profile.json.tmp BENCH_profile.json

# The coverage census (DESIGN.md "Coverage census"): per function, the
# share of its statements the tests ran and the share the four workloads
# ran, into a stamped COVER.json (cmd/benchjson). The workload half is
# gtv-train built with -cover at `make profile`'s shapes, at GOMAXPROCS 1
# as bench/ runs them, with the store in COVER_DIR and two rounds each:
# coverage is a set, not a time, and the instrumented binary is never timed.
# rows-warm reopens the store rows-cold wrote. A reference record, not a
# gate: concurrent tests move its margins.
COVER_DIR := .cover_build

cover:
	rm -rf $(COVER_DIR)
	mkdir -p $(COVER_DIR)/tests $(COVER_DIR)/workloads
	$(GO) test -count=1 -cover -coverpkg=./... ./... -args -test.gocoverdir=$(CURDIR)/$(COVER_DIR)/tests
	$(GO) build -cover -coverpkg=./... -o $(COVER_DIR)/gtv-train ./cmd/gtv-train
	$(foreach w,$(PROFILE_WORKLOADS),GOMAXPROCS=1 GOCOVERDIR=$(COVER_DIR)/workloads $(COVER_DIR)/gtv-train $(PROFILE_COMMON) \
		$(subst $(PROFILE_DIR)/,$(COVER_DIR)/,$(PROFILE_$(w))) -rounds 2 > /dev/null &&) true
	$(GO) tool covdata func -i=$(COVER_DIR)/tests > $(COVER_DIR)/tests.txt
	$(GO) tool covdata func -i=$(COVER_DIR)/workloads > $(COVER_DIR)/workloads.txt
	$(GO) list ./... > $(COVER_DIR)/packages.txt
	for h in tests workloads packages; do echo "cover: $$h"; cat $(COVER_DIR)/$$h.txt; done \
		| $(GO) run ./cmd/benchjson > COVER.json.tmp
	mv COVER.json.tmp COVER.json
