GO ?= go

.PHONY: all build vet fmt-check test race check chaos fuzz-smoke bench bench-smoke bench-sweep bench-all bench-diff generate generate-check test-noasm bench-module serve-smoke tcp-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file in the tree, the benchmark module's included, must be as
# gofmt prints it; the ones that are not are listed.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The concurrency-heavy packages (the rank goroutine substrate, the
# telemetry layer every rank records into, the intra-rank worker pool,
# and the gather-scatter + solver paths that drive the pool under
# rank-level concurrency) additionally run under the race detector. The
# TCP send path shares each socket between the sending rank's inline
# write and the writer goroutine's backlog drain, and each inbound
# stream passes between the waiting rank and the reader goroutine;
# repetition is what catches a bad hand-over between them. A blocked receive polls before it
# parks only when every rank has a CPU of its own, so the mailbox wake-up
# table repeats under -race and the comm tests also run on one P, where
# every wait takes the park-only path; the option matrix runs there too,
# to show that which wait path runs never reaches physics or clocks.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/pool/... ./internal/gs/... ./internal/sem/...
	$(GO) test -race -count=50 -run 'TestMailboxAwait|TestSpinGate' ./internal/comm/
	GOMAXPROCS=1 $(GO) test ./internal/comm/...
	GOMAXPROCS=1 $(GO) test -run TestOptionMatrixInvariance .
	$(GO) test -race -run 'TestWorkers|TestStraggler|TestOverlap|TestFacePairing' ./internal/solver/...
	$(GO) test -race -count=10 -run 'TestVolumeGolden/workers=3|TestSurfaceGolden/workers=3' ./internal/solver/
	$(GO) test -race -count=5 -run 'TestChargeGolden/workers=3|TestViscousRHSGolden/workers=3' ./internal/solver/
	$(GO) test -race -count=20 -run 'TestTCPIsendIrecvStorm|TestStreamHandOff|TestConformance(InProcess|TCP)/eager-send-backlog' ./internal/comm/...
	$(GO) test -race ./internal/loadbal/... ./internal/fault/... ./internal/serve/...

# Fixed-seed chaos suite under the race detector: crash/recovery across 5
# seeds, a crash under the load balancer, message-fault bit-identity,
# dead-sender detection, shrink, and the remapped-restore path (element
# records, costs included). Deterministic — same seeds every run.
chaos:
	$(GO) test -race -run 'TestChaos|TestLoadbalCrash|TestMessageFaults|TestStall|TestWaitErr|TestKill|TestShrink|TestBlockingRecv|TestDrop|TestCorruption|TestDelay|TestRehome|TestRestoreRemapped|TestRestoreCarriesCosts' \
		./internal/fault/... ./internal/comm/... ./internal/checkpoint/...

# 10-second fuzz smoke per target (one target per invocation, as go
# test requires): the binary parsers plus the differential kernel
# fuzzers (every mxm variant vs MxMBasic; every r/s derivative kernel vs
# the hand loops and each other, bit-exact — without -race, which builds
# the AVX2 r/s kernels out; every gs entry point vs a map-based
# gather-scatter; gs discovery vs the map-based discovery).
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDecodeOwnershipWire$$' -fuzztime 10s ./internal/mesh/
	$(GO) test -race -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/fault/
	$(GO) test -race -run '^$$' -fuzz '^FuzzMxMVariants$$' -fuzztime 10s ./internal/sem/
	$(GO) test -run '^$$' -fuzz '^FuzzDerivKernels$$' -fuzztime 10s ./internal/sem/
	$(GO) test -race -run '^$$' -fuzz '^FuzzGSLocal$$' -fuzztime 10s ./internal/gs/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDiscover$$' -fuzztime 10s ./internal/gs/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/comm/tcptransport/

# Re-run the kernel generator (internal/sem/gen) over the committed
# generated sources.
generate:
	$(GO) generate ./...

# Drift check: the committed generated kernels (mxm_gen.go,
# deriv_gen.go and the AVX2 assembly deriv_avx2_amd64.s with its
# declarations deriv_avx2_gen.go) must match what the generator
# emits today, it must emit no file that is not committed, and no file
# carrying its header may be one it no longer emits (a deleted emitter's
# old output would otherwise keep compiling unnoticed).
generate-check: generate
	git diff --exit-code -- internal/sem
	test -z "$$(git ls-files --others --exclude-standard -- internal/sem)"
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	(cd internal/sem && $(GO) run ./gen -dir "$$tmp" >/dev/null) && \
	stale=$$(for f in $$(grep -l '^// Code generated by repro/internal/sem/gen' internal/sem/*.go internal/sem/*.s); do \
		[ -e "$$tmp/$${f##*/}" ] || echo "$$f"; done) && \
	if [ -n "$$stale" ]; then echo "generated by internal/sem/gen but no longer emitted:" $$stale; exit 1; fi

# The pure-Go fallback build: the semnoasm tag disables the AVX2
# assembly backend; the kernel packages and their consumers must build
# and pass bit-exactness tests without it (the r/s kernel table and
# fuzz corpus, the volume-pipeline and viscous right-hand-side goldens,
# the allocation ceiling, the kernel-path golden and the option matrix
# run on the generated Go kernels here). The arm64 cross-build compiles
# the same fallback file set the way a non-amd64 host selects it, by
# GOARCH rather than by the tag.
test-noasm:
	$(GO) build -tags semnoasm ./...
	$(GO) test -tags semnoasm ./internal/sem/... ./internal/solver/... ./internal/bench/...
	$(GO) test -tags semnoasm -run 'TestKernelPathGolden|TestOptionMatrixInvariance' .
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# The wall-clock benchmark harness is a Go module of its own
# (benchmark/go.mod, `replace repro => ../`), so the root `go build
# ./...` and `go test ./...` never compile it. It imports the sem,
# solver, gs and comm APIs; vet and test it whenever those change.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Quick worker-sweep smoke: the derivative kernel across pool widths
# (1..NumCPU) plus the gs zero-alloc benches. Fast enough for check/CI;
# the full table is `go run ./cmd/kernelbench -workersweep`.
bench-sweep:
	$(GO) test -run xxx -bench 'WorkerSweep|GSAlloc' -benchmem -benchtime 20x . ./internal/gs/

# One-iteration pass over every benchmark in the repo: catches compile
# errors and panics in bench harnesses without timing anything.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# End-to-end smoke of the simulation job server: start cmtserve, submit
# a job over HTTP, poll to completion, stream steps, SIGINT, and assert
# a clean shutdown with the telemetry snapshot flushed.
serve-smoke:
	./scripts/serve_smoke.sh

# Multi-process transport smoke: cmtbone legs (plain, load balancing,
# message faults, crash recovery with and without load balancing,
# diagnostics) run in-process and as 4 OS processes over localhost TCP
# must print byte-identical summaries, wall time masked.
tcp-smoke:
	./scripts/tcp_smoke.sh

check: vet fmt-check build test race chaos fuzz-smoke test-noasm bench-module bench-sweep bench-smoke serve-smoke tcp-smoke

bench:
	$(GO) test -bench=. -benchmem .

# Record the one committed baseline, BENCH_trajectory.json: the
# modeled loadbal and overlap studies (traced, so rows carry
# critical-path summaries and regressions get blame lines), the
# hierarchical-collectives study and the gs allocation guard. Only rows
# the gate compares are recorded: deterministic modeled metrics and
# allocs/op at its absolute floor.
bench-all:
	$(GO) run ./cmd/benchdiff -record BENCH_trajectory.json

# The regression gate: re-run the same suites and diff against the
# baseline. Modeled metrics gate at 2%, allocs/op at one per op, and a
# baseline row the fresh run no longer produces fails too. Exit 1 on
# failure, with critical-path blame lines naming the responsible rank
# and phase. The full critical-path reports go to the untracked
# critpath-report.txt (CI uploads it as an artifact).
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold 0.02 -critpath critpath-report.txt BENCH_trajectory.json
