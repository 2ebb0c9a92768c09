GO ?= go

.PHONY: all build vet test race check chaos fuzz-smoke bench bench-smoke bench-sweep bench-workers bench-loadbal bench-overlap bench-serve bench-hier bench-all bench-diff generate generate-check test-noasm bench-module serve-smoke tcp-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages (the rank goroutine substrate, the
# telemetry layer every rank records into, the intra-rank worker pool,
# and the gather-scatter + solver paths that drive the pool under
# rank-level concurrency) additionally run under the race detector.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/pool/... ./internal/gs/... ./internal/sem/...
	$(GO) test -race -run 'TestWorkers|TestStraggler|TestOverlap' ./internal/solver/...
	$(GO) test -race -count=10 -run 'TestVolumeGolden/workers=3|TestSurfaceGolden/workers=3' ./internal/solver/
	$(GO) test -race ./internal/loadbal/... ./internal/fault/... ./internal/serve/...

# Fixed-seed chaos suite under the race detector: crash/recovery across 5
# seeds, message-fault bit-identity, dead-sender detection, shrink, and
# the remapped-restore path. Deterministic — same seeds every run.
chaos:
	$(GO) test -race -run 'TestChaos|TestMessageFaults|TestStall|TestWaitErr|TestKill|TestShrink|TestBlockingRecv|TestDrop|TestCorruption|TestDelay|TestRehome|TestRestoreRemapped' \
		./internal/fault/... ./internal/comm/... ./internal/checkpoint/...

# 10-second fuzz smoke per target (one target per invocation, as go
# test requires): the binary parsers plus the differential kernel
# fuzzers (every mxm variant vs MxMBasic; every r/s derivative kernel vs
# the hand loops and each other, bit-exact — without -race, which builds
# the AVX2 r/s kernels out; every gs entry point vs a map-based
# gather-scatter).
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadParticles$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDecodeOwnershipWire$$' -fuzztime 10s ./internal/mesh/
	$(GO) test -race -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/fault/
	$(GO) test -race -run '^$$' -fuzz '^FuzzMxMVariants$$' -fuzztime 10s ./internal/sem/
	$(GO) test -run '^$$' -fuzz '^FuzzDerivKernels$$' -fuzztime 10s ./internal/sem/
	$(GO) test -race -run '^$$' -fuzz '^FuzzGSLocal$$' -fuzztime 10s ./internal/gs/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/comm/tcptransport/

# Re-run the kernel generator (internal/sem/gen) over the committed
# generated sources.
generate:
	$(GO) generate ./...

# Drift check: the committed generated kernels (mxm_gen.go,
# mxmbt_gen.go, grad3_gen.go, deriv_gen.go and the AVX2 assembly
# deriv_avx2_amd64.s with its declarations deriv_avx2_gen.go) must
# match what the generator emits today, and it must emit no file that is
# not committed.
generate-check: generate
	git diff --exit-code -- internal/sem
	test -z "$$(git ls-files --others --exclude-standard -- internal/sem)"

# The pure-Go fallback build: the semnoasm tag disables the AVX2
# assembly backend; the kernel packages and their consumers must build
# and pass bit-exactness tests without it (the r/s kernel table and
# fuzz corpus, the volume-pipeline goldens and the allocation ceiling
# run on the generated Go kernels here).
test-noasm:
	$(GO) build -tags semnoasm ./...
	$(GO) test -tags semnoasm ./internal/sem/... ./internal/solver/... ./internal/bench/...
	$(GO) test -tags semnoasm -run TestKernelPathGolden .

# The wall-clock benchmark harness is a Go module of its own
# (benchmark/go.mod, `replace repro => ../`), so the root `go build
# ./...` and `go test ./...` never compile it. It imports the sem,
# solver, gs and comm APIs; vet and test it whenever those change.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Quick worker-sweep smoke: the derivative kernel across pool widths
# (1..NumCPU) plus the gs zero-alloc benches. Fast enough for check/CI;
# full baselines come from `make bench-workers`.
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

# Multi-process transport smoke: the canonical scalebench scenario run
# in-process and as 4 OS processes over localhost TCP must produce
# byte-identical diagnostics (physics scalars, per-rank virtual clocks,
# collectively-computed makespan).
tcp-smoke:
	./scripts/tcp_smoke.sh

check: vet build test race chaos test-noasm bench-module bench-sweep bench-smoke serve-smoke tcp-smoke

bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the worker-sweep + mxm-sweep baseline
# (BENCH_workers_baseline.json): the derivative kernel across pool
# widths plus every mxm variant (generated/SIMD/auto included) across
# the k range, with effective-kernel labels.
bench-workers:
	$(GO) run ./cmd/kernelbench -n 9 -nel 64 -steps 200 -workersweep -mxm -json BENCH_workers_baseline.json

# Regenerate the dynamic load-balancing baseline
# (BENCH_loadbal_baseline.json): balanced vs skewed vs skewed+loadbal
# makespans on the one-hot-rank scenario.
bench-loadbal:
	$(GO) run ./cmd/scalebench -n 5 -maxranks 8 -loadbal -loadbal-json BENCH_loadbal_baseline.json

# Regenerate the compute/communication overlap baseline
# (BENCH_overlap_baseline.json): blocking vs split-phase exchange
# makespans on a communication-bound (GigE) configuration.
bench-overlap:
	$(GO) run ./cmd/scalebench -n 5 -maxranks 8 -net gige -overlap -overlap-json BENCH_overlap_baseline.json

# Regenerate the job-server load baseline (BENCH_serve_baseline.json):
# sustained jobs/sec, time-to-first-step percentiles, preemption
# latency, and the warm/cold artifact-cache setup split, from the
# open-loop generator against an in-process server.
bench-serve:
	$(GO) run ./cmd/serveload -steps 30 -json BENCH_serve_baseline.json

# Regenerate the hierarchical-collectives scaling baseline
# (BENCH_hier_baseline.json): flat vs two-level collectives on modeled
# fat-tree and dragonfly fabrics at 256..4096 ranks. Entirely modeled
# (virtual clocks), so the file is bit-reproducible on any host.
bench-hier:
	$(GO) run ./cmd/scalebench -maxranks 1 -hier -hier-json BENCH_hier_baseline.json

# Run every bench suite in-process (loadbal + overlap studies traced,
# kernel worker sweep, allocation guard, job-server load generation)
# and write the unified schema-versioned trajectory plus the
# critical-path reports. This is the single file future benchdiff runs
# compare against — it carries critical-path summaries, so regressions
# get blame lines.
bench-all:
	$(GO) run ./cmd/benchdiff -record BENCH_trajectory.json -critpath CRITPATH_REPORT.txt

# The regression gate: re-run every suite the committed baselines
# cover and diff. Deterministic modeled metrics gate at 2%; wall-clock
# metrics are report-only (CI hosts differ from the recording host).
# Exit 1 on regression, with critical-path blame lines naming the
# responsible rank and phase. The gate writes no tracked file: only
# bench-all (the -record run) rewrites CRITPATH_REPORT.txt.
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold 0.02 BENCH_loadbal_baseline.json BENCH_overlap_baseline.json BENCH_workers_baseline.json BENCH_serve_baseline.json BENCH_hier_baseline.json
	$(GO) run ./cmd/benchdiff -threshold 0.02 BENCH_trajectory.json
