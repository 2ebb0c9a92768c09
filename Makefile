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
# stream passes between the waiting rank and the reader goroutine, and a
# broker's check-ins race its Close; repetition is what catches a bad
# hand-over between them. A blocked receive polls before it
# parks only when every rank has a CPU of its own, so the mailbox wake-up
# table repeats under -race and the comm tests also run on one P, where
# every wait takes the park-only path; the option matrix runs there too,
# to show that which wait path runs never reaches physics or clocks.
# The collective-traffic golden, the collectives' allocation ceilings
# (which skip themselves under -race, whose runtime drops pooled
# envelopes at random) and the member-scoped death checks of split
# groups repeat too. So do the posted-receive contracts on both
# backends and the TCP storm: senders and reader goroutines only
# enqueue, and each rank matches its own receives in posting order.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/pool/... ./internal/gs/... ./internal/sem/...
	$(GO) test -race -count=50 -run 'TestMailboxAwait|TestSpinGate' ./internal/comm/
	$(GO) test -race -count=10 -run 'TestCollectiveTraceGolden|TestCollectiveAllocs|TestGroupCollectiveScopedToMembers' ./internal/comm/
	GOMAXPROCS=1 $(GO) test ./internal/comm/...
	GOMAXPROCS=1 $(GO) test -run TestOptionMatrixInvariance .
	$(GO) test -race -run 'TestWorkers|TestStraggler|TestOverlap|TestFacePairing' ./internal/solver/...
	$(GO) test -race -count=10 -run 'TestVolumeGolden/workers=3|TestSurfaceGolden/workers=3' ./internal/solver/
	$(GO) test -race -count=5 -run 'TestChargeGolden/workers=3|TestViscousRHSGolden/workers=3|TestTailGolden/workers=3' ./internal/solver/
	$(GO) test -race -count=10 -run 'TestFaceTraceStore|FuzzFaceGradient' ./internal/solver/
	$(GO) test -race -count=10 -run 'TestOptionMatrixInvariance/^(workers=3|overlap\+workers=3|viscous\+workers=3)$$' .
	$(GO) test -race -count=10 -run 'TestOptionMatrixInvariance/^viscous\+overlap' .
	$(GO) test -race -count=20 -run 'TestTCPIsendIrecvStorm|TestStreamHandOff|TestBroker|TestBootstrap|TestConformance(InProcess|TCP)/eager-send-backlog' ./internal/comm/...
	$(GO) test -race -count=10 -run 'TestConformance(InProcess|TCP)/posted-|TestTCPPostedReceive|TestTCPIsendIrecvStorm' ./internal/comm/...
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
# fuzzers (every kernel MxM can pick vs mxmBasic; every r/s derivative
# kernel vs the hand loops and each other, bit-exact; every pointwise solver
# kernel's AVX2 loop vs its Go loop, bit-exact; the viscous face pass's
# gradients and flux traces vs the volume pass's at the face points,
# bit-exact — these three without -race, which builds the AVX2 kernels
# out; every gs entry point vs a map-based gather-scatter; gs discovery
# vs the map-based discovery).
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDecodeOwnershipWire$$' -fuzztime 10s ./internal/mesh/
	$(GO) test -race -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/fault/
	$(GO) test -race -run '^$$' -fuzz '^FuzzMxMKernels$$' -fuzztime 10s ./internal/sem/
	$(GO) test -run '^$$' -fuzz '^FuzzDerivKernels$$' -fuzztime 10s ./internal/sem/
	$(GO) test -run '^$$' -fuzz '^FuzzPointwiseKernels$$' -fuzztime 10s ./internal/solver/
	$(GO) test -run '^$$' -fuzz '^FuzzFaceGradient$$' -fuzztime 10s ./internal/solver/
	$(GO) test -race -run '^$$' -fuzz '^FuzzGSLocal$$' -fuzztime 10s ./internal/gs/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDiscover$$' -fuzztime 10s ./internal/gs/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/comm/tcptransport/

# Re-run the kernel generator (internal/sem/gen) over the committed
# generated sources.
generate:
	$(GO) generate ./...

# Drift check: the committed generated kernels must match what the
# generator emits today — in internal/sem mxm_gen.go, deriv_gen.go and
# the AVX2 assembly deriv_avx2_amd64.s with its declarations
# deriv_avx2_gen.go; in internal/solver the pointwise kernels'
# pointwise_gen.go (Go loops), pointwise_avx2_amd64.s with
# pointwise_avx2_gen.go (AVX2 loops and wrappers), pointwise_noasm_gen.go
# (the other builds' wrappers) and pointwise_avx2_gen_test.go (the
# differential tests' table). It must emit no file that is not
# committed, and no file carrying its header may be one it no longer
# emits (a deleted emitter's old output would otherwise keep compiling
# unnoticed).
GEN_DIRS = internal/sem internal/solver
generate-check: generate
	git diff --exit-code -- $(GEN_DIRS)
	test -z "$$(git ls-files --others --exclude-standard -- $(GEN_DIRS))"
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/sem" "$$tmp/solver" && \
	(cd internal/sem && $(GO) run ./gen -sem "$$tmp/sem" -solver "$$tmp/solver" >/dev/null) && \
	stale=$$(for d in $(GEN_DIRS); do for f in $$(grep -l '^// Code generated by repro/internal/sem/gen' $$d/*.go $$d/*.s); do \
		[ -e "$$tmp/$${d##*/}/$${f##*/}" ] || echo "$$f"; done; done) && \
	if [ -n "$$stale" ]; then echo "generated by internal/sem/gen but no longer emitted:" $$stale; exit 1; fi

# The pure-Go fallback build: the semnoasm tag disables the AVX2
# assembly backend; the kernel packages and their consumers must build
# and pass bit-exactness tests without it (the r/s kernel table and
# fuzz corpus, the face-gradient seed corpus, the volume-pipeline and
# viscous right-hand-side goldens, the allocation ceiling, the
# kernel-path golden and the option matrix run on the generated Go
# kernels here). The arm64 cross-build compiles
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
