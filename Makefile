GO ?= go
BENCH_OUT ?= BENCH_PR18.json

.PHONY: check build vet bench-vet bench-test fmt-check equivalence serve-smoke sweep-smoke chaos-smoke sample-smoke load-smoke test race fuzz bench bench-smoke

# Tier-1 gate: everything must build, `go vet ./...` clean, be
# gofmt-formatted, pass under -race, the batched pipeline must remain
# bit-identical to the legacy per-Ref path, per-PE cache probes to
# dedicated per-configuration machines, the paged directory to a naive
# map-of-sets model, and the profiler's compaction to its pinned counts
# (short-mode equivalence run),
# the v1 HTTP server must boot, answer /v1/experiments with valid
# JSON, and drain (serve-smoke), a parameter-lattice sweep must run
# end to end over HTTP including its grain advice (sweep-smoke), the
# seeded chaos schedules must hold their invariants with every
# failpoint test-covered (chaos-smoke), one full-scale sampled kernel
# profile must land inside the smoke wall-clock budget (sample-smoke),
# a 2-node peer cluster must hold the load contract under a short
# measured wsload run (load-smoke), every benchmark must still run for
# one iteration (bench-smoke), the bench/ module must still compile
# against the names it uses (bench-vet), and every benchmark workload
# must pass its own checks at toy size (bench-test).
check: build vet bench-vet bench-test fmt-check race equivalence serve-smoke sweep-smoke chaos-smoke sample-smoke load-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is its own module, so the root `go test ./...` never compiles it.
bench-vet:
	cd bench && $(GO) vet ./...

# The benchmark's own tests: every workload at toy size, end to end
# through the serve, store and cluster paths, held to its own output
# checks.
bench-test:
	cd bench && $(GO) test ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Block/fan-out delivery must produce the same statistics — and, with a
# Recorder attached, the same per-stage metric counters — as per-Ref
# delivery for every kernel (see internal/core/equivalence_test.go).
# The sharded fanout is held to Tee on every kernel (including under
# GOMAXPROCS=1 and 2), the region-sharded machine engine to the serial
# memory system (bit-identical statistics, run-to-run determinism, and
# byte-identical sharing1024 reports at GOMAXPROCS=1 and 2), and cache
# probes on one machine to a dedicated machine per cache configuration
# on both engines. The paged coherence directory is held to a naive
# map-of-sets model (statistics, sharers, dirty bits and every PE's exact
# invalidation sequence, at P = 4, 64 and 1024, on both sides of the line
# table's dense bound), and the stack profiler's compaction to the counts
# of its known phantom slot, which the golden report hashes depend on.
equivalence:
	$(GO) test -short -run 'TestBlockEquivalence|TestFanoutMatchesTee|TestMetricsEquivalence|TestShardedMachineMatchesSerial|TestShardedDeterminism|TestSamplingEquivalenceRateOne|TestProbesMatchDedicatedMachines' ./internal/core/
	$(GO) test -short -run 'TestDirectoryMatchesReference|TestCompactionPhantomSlot' ./internal/coherence/ ./internal/cache/

# Boot the real serving path (store + v1 API exactly as `wsstudy serve`
# wires it), GET /v1/experiments and a report, assert 200 + valid JSON,
# then drain gracefully.
serve-smoke:
	$(GO) test -race -count 1 -run TestServeSmoke ./cmd/wsstudy/

# Boot the same serving path, POST a 2x2 gridlu lattice to /v1/sweeps,
# poll the status resource to Done, and read the §8 grain advice — the
# sweep surface end to end over HTTP.
sweep-smoke:
	$(GO) test -race -count 1 -run TestSweepSmoke ./cmd/wsstudy/

# Seeded chaos schedules under -race (termination, no faulted result
# cached, post-disarm recovery to the byte-exact fault-free baseline),
# the SIGKILL crash-resume drills (suite journal and sweep lattice),
# and the failpoint lint (every registered failpoint referenced by at
# least one test).
chaos-smoke:
	$(GO) test -race -count 1 -run 'TestChaos|TestEveryFailpointExercised' .
	$(GO) test -race -count 1 -run 'TestCrashResumeSIGKILL|TestSuiteResumesFromJournal' ./internal/core/
	$(GO) test -race -count 1 -run TestSweepCrashResumeSIGKILL ./internal/sweep/

# The paper-scale promise of the sampling axis: a full-scale Figure 6
# profile at opt.sample=16 must complete inside the smoke budget (it
# runs in seconds; the 120s ceiling only catches a sampling path that
# silently fell back to exact-scale cost).
sample-smoke:
	timeout 120 $(GO) run ./cmd/wsstudy fig6 -opt sample=16 > /dev/null

# Boot a 2-node consistent-hash cluster in-process and hold it to the
# load contract: a short warmed wsload run must sustain a nonzero
# cached rate with zero wrong responses (each key computed exactly once
# cluster-wide, the second copy arriving by peer-fill), and an uncached
# overload storm must shed cleanly with 429 + Retry-After.
load-smoke:
	$(GO) test -race -count 1 -run 'TestLoadSmoke|TestLoadOverloadSheds' ./cmd/wsload/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Longer-running decoder fuzz (30s per target), as used in CI's
# extended job: the trace replayer, the v1 query decoder, the
# follower's peer-response gate (digest and schema) and the owner's
# parse of the hold a peer names.
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzReplay -fuzztime=30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeRequestV1 -fuzztime=30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz=FuzzPeerResponse -fuzztime=30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz=FuzzHoldHeader -fuzztime=30s ./internal/serve/

# Delivery, sweep-engine, and serving-tier benchmarks (ring lookup,
# warm peer-fill, wsload cached-RPS and overload shedding); results are
# archived in $(BENCH_OUT) for comparison against the numbers quoted in
# DESIGN.md (BENCH_PR2.json holds the pre-sharding baseline). Three counted runs
# per benchmark so the archived file shows the spread — shared hosts
# swing several percent run to run; compare medians, not single samples.
bench:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkRefDelivery|BenchmarkFanout|BenchmarkAblationLRUBank|BenchmarkDirectoryShardScaling|BenchmarkMemsysSharded|BenchmarkSampledProfiler|BenchmarkClusterRingOwner|BenchmarkClusterPeerFetch|BenchmarkWsloadCachedRPS|BenchmarkWsloadOverloadShed' \
		-benchmem -benchtime 10x -count 3 -json . ./internal/cluster/ > $(BENCH_OUT)
	@grep -o '"Output":"[^"]*ns/op[^"]*"' $(BENCH_OUT) | head -40

# One iteration of every benchmark: proves the benchmark set still
# compiles and runs end to end without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkRefDelivery|BenchmarkFanout|BenchmarkAblationLRUBank|BenchmarkDirectoryShardScaling|BenchmarkMemsysSharded|BenchmarkSampledProfiler|BenchmarkClusterRingOwner|BenchmarkClusterPeerFetch|BenchmarkWsloadCachedRPS|BenchmarkWsloadOverloadShed' \
		-benchtime 1x -count 1 . ./internal/cluster/ > /dev/null
