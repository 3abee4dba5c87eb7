# Tier-1 verification plus a race pass over the concurrent packages.

GO ?= go

# Packages with real goroutine concurrency (live PS path + fault layer,
# parallel sweep runner, probe observers, and schedule's Planner, whose
# locked memo of read-only plans concurrent runs share) plus the shared
# drive layer both execution paths schedule through, and the simulator's
# cluster: the race build poisons their pools (the driver's pieces and
# ranges, pull messages, PS rounds) on release.
RACE_PKGS := ./internal/transport ./internal/ps ./internal/emu ./internal/drive ./internal/fault ./internal/experiments/runner ./internal/probe ./internal/collective ./internal/cluster ./internal/schedule

# Native fuzz targets and their packages (go runs one target per invocation).
FUZZTIME ?= 10s

# Per-package coverage floors (percent) for the scheduling core and the
# live wire beneath it: the strategies themselves, the drive layer, the one
# simulated executor on top of it (PS and collective wires) and the live
# collective, the strategy registry, the PS + frame transport packages the
# emulation runs over, the observability stack (probe events, stall
# attribution, prediction audit), and the kernels and MLP every live worker
# computes its gradients with.
COVER_PKGS  := ./internal/schedule ./internal/drive ./internal/cluster ./internal/strategy ./internal/ps ./internal/transport ./internal/collective ./internal/probe ./internal/probe/attrib ./internal/probe/predict ./internal/tensor ./internal/nn
COVER_FLOOR ?= 80

.PHONY: check tier1 build vet test lint race bench bench-results bench-scale fuzz conformance conformance-live cover benchmark-smoke loc

# Each check runs once. conformance and conformance-live are not
# prerequisites: race has just run the full ./internal/drive, ./internal/emu
# and ./internal/collective suites under -race, of which those two targets
# are -run subsets for focused runs. The run document's gate is
# cmd/prophet-run's TestEveryExportParses, inside test; the prediction
# audit's are its tests, which test and race run, and the full ext-predict
# run inside test's TestBenchResultsCurrent golden. That golden renders
# every experiment once, at the default -j, against bench_results.txt;
# internal/experiments' TestSerialParallelIdentical is the one check that
# Jobs 1 and Jobs 8 render the same, at its smaller test config.
check: tier1 lint race cover benchmark-smoke loc

# The figure a simplicity change is counted by: Go lines outside the frozen
# benchmark/ module, non-test and test.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines outside benchmark/:     $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"

tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Formatting gate, the offline reachability gate (reach_test.go: every
# function declared in a non-test file is referenced from one, or is
# allowlisted with a reason, and every type is named by one — stdlib only,
# so it runs where nothing can be installed), a vet of the kernel packages
# for arm64, which keeps the portable path (no accumulate_amd64.s) compiling,
# plus staticcheck and deadcode when the tools are installed
# (the gate must not require network access to fetch them; CI installs
# both). deadcode prints functions no main package or test reaches; any
# output fails the gate. Tests count as callers (-test) because the frozen
# benchmark/ module, which that analysis cannot see, compiles against API
# that only tests use inside this module.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -count=1 -run '^TestEveryFunctionIsReferenced$$' .
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v deadcode >/dev/null 2>&1; then \
		out=$$(deadcode -test ./...); if [ -n "$$out" ]; then \
			echo "unreachable functions:"; echo "$$out"; exit 1; fi; \
		else echo "deadcode not installed; skipping"; fi

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The (strategy × transport) conformance table under the race detector: every
# registry strategy against every backend's chunk schedule through one Driver.
conformance:
	$(GO) test -race -count=1 -run 'TestSchedulerConformance' ./internal/drive

# The live counterpart over real sockets: every registry strategy across
# {per-worker PS pipes, shared PS pipe, ring, tree}, plus the sim≡live collective mirror,
# the one failure contract on ring/tree (seeded drop/stall/corrupt on the
# fabric pipe, the per-op bound, no goroutine left behind by emu.Run or
# Fabric.Close), and the engine seam's contract (every policy trains to the
# same bits on every transport, one observed send per fused collective
# group whose bytes the fabric's meter accounts for, per-shard writers that
# overlap on private pipes), under the race detector.
conformance-live:
	$(GO) test -race -count=1 -run 'TestLiveTransportConformance|TestMirrorCollectiveTransports|TestCollectiveAckIsZero|TestCollectiveChaos|TestCollectiveOpBound|TestAllPoliciesIdenticalTrajectory|TestCollectiveObserverContract|TestShardLanesOverlapOnPrivatePipes' ./internal/emu
	$(GO) test -race -count=1 -run 'TestBadFrameUnblocksEveryPeer|TestCloseWaitsForReaders' ./internal/collective

# Coverage gate over the scheduling core: each package in COVER_PKGS must
# individually clear COVER_FLOOR percent of statements.
cover:
	@fail=0; for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg | tail -n 1); echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; fail=1; \
		elif awk "BEGIN{exit !($$pct < $(COVER_FLOOR))}"; then \
			echo "coverage $$pct% below floor $(COVER_FLOOR)% for $$pkg"; fail=1; fi; \
	done; exit $$fail

# Reproducible single-shot benchmark pass: the three core microbenchmarks
# in bench_test.go (Algorithm 1, the profiler, one simulated iteration)
# plus each package's own benchmarks. The evaluation itself is not
# benchmarked; bench-results records it.
bench:
	$(GO) test -bench=. -benchtime=1x -count=1 -run '^$$' ./...

# Rewrite the committed full-evaluation record. TestBenchResultsCurrent
# (cmd/prophet-bench, inside `go test ./...`) fails when a default run no
# longer matches it outside the wall-clock masks: refresh it here and commit
# the diff with the change that moved the numbers.
bench-results:
	$(GO) run ./cmd/prophet-bench > bench_results.txt

# The scaling sweep — the one perf record BENCHMARK.json cannot express
# (its workloads stop at 64 workers): worker counts 8→1000 over 1 and 4
# shards on the multiplexed transport, plus an unmuxed reference point. The
# raw `go test -bench` output lands in the committed BENCH_scale.txt under a
# one-line "commit date" stamp.
bench-scale:
	@echo "$$(git rev-parse --short HEAD) $$(date -u +%Y-%m-%d)" > BENCH_scale.txt
	$(GO) test -bench='Emu_Scale' -benchmem -benchtime=1x -count=1 -run '^$$' ./internal/emu >> BENCH_scale.txt
	@cat BENCH_scale.txt

# The frozen benchmark is its own module (benchmark/go.mod), which the root
# build does not compile: vet and test it against the current API, then run
# every workload and layer replay once with its output checks.
benchmark-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh -quick

# Short fixed-budget fuzzing smoke: each target gets $(FUZZTIME).
fuzz:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadFrameFaultStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeFloats$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzMuxReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzMuxCombinedWrites$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzPipe$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ps -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/collective -run '^$$' -fuzz '^FuzzFabricDeliver$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzAccumulate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME)
