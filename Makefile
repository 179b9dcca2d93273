GO ?= go

.PHONY: check build vet bench-vet bench-test fmt-check equivalence cost serve-smoke sweep-smoke chaos-smoke sample-smoke load-smoke test race fuzz

# Tier-1 gate: everything must build, `go vet ./...` clean, be
# gofmt-formatted, pass under -race, the batched pipeline must remain
# bit-identical to the legacy per-Ref path, per-PE cache probes to
# dedicated per-configuration machines, the paged directory to a naive
# map-of-sets model, the flat caches to the map-based caches they
# replaced, the profiler's compaction to its pinned counts and its
# occupancy index to a []bool model, and the largest experiment's report
# to itself at GOMAXPROCS=1 and 2 (short-mode equivalence run), the
# profiled experiments must do the work and allocate no more than their
# quick-scale cost table allows (cost), the v1 HTTP server must boot,
# answer /v1/experiments with valid JSON, and drain (serve-smoke), a
# parameter-lattice sweep must run
# end to end over HTTP including its grain advice (sweep-smoke), the
# seeded chaos schedules must hold their invariants with every
# failpoint test-covered (chaos-smoke), one full-scale sampled kernel
# profile must land inside the smoke wall-clock budget (sample-smoke),
# a 2-node peer cluster must hold the load contract under a short
# measured wsload run (load-smoke), the bench/ module must still compile
# against the names it uses (bench-vet), and every benchmark workload
# must pass its own checks at toy size (bench-test). Performance is
# recorded by the bench/ ledger alone (`bash bench/run.sh`).
check: build vet bench-vet bench-test fmt-check race equivalence cost serve-smoke sweep-smoke chaos-smoke sample-smoke load-smoke

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
# Recorder attached, the same per-stage metric counters, with profilers,
# LRU and 4-way caches — as per-Ref delivery for every kernel (see
# internal/core/equivalence_test.go), and a machine's published counters
# must follow the publication contract (per block, then exact at Close).
# The fanout's worker pool is held to Tee on every kernel (including
# under GOMAXPROCS=1 and 2), the sharing1024 report (P=1024, the largest
# machine) to byte-identical JSON at GOMAXPROCS=1 and 2, and cache probes
# on one machine to a dedicated machine per cache configuration. The
# paged coherence directory is held to a naive
# map-of-sets model (statistics, sharers, dirty bits and every PE's exact
# invalidation sequence, at P = 4, 64 and 1024, on both sides of the line
# table's dense bound), the flat LRU and set-associative caches to the
# map-based caches they replaced (a seeded stress test of reads, writes,
# invalidations and a statistics reset, compared after every operation;
# a one-set SetAssoc is also held to the LRU of its capacity, on every
# outcome and statistic),
# the stack profiler's compaction to the counts of its known phantom
# slot, which the golden report hashes depend on, and the profiler's
# occupancy index to a []bool model (random adds, removes and range
# counts at sizes that cross its word, block and superblock edges).
equivalence:
	$(GO) test -short -run 'TestBlockEquivalence|TestFanoutMatchesTee|TestMetricsEquivalence|TestShardedDeterminism|TestSamplingEquivalenceRateOne|TestProbesMatchDedicatedMachines' ./internal/core/
	$(GO) test -short -run 'TestDirectoryMatchesReference|TestCompactionPhantomSlot|TestOccupancyMatchesModel|TestFlatCachesMatchOracles' ./internal/coherence/ ./internal/cache/
	$(GO) test -short -run 'TestPublicationContract' ./internal/memsys/

# Each profiled experiment (fig2, fig4, fig5, fig6, fig6dm, fig7) runs
# once at quick scale in a process of its own: its obs work counters must
# equal internal/core/testdata/cost.json, and its allocated bytes and
# allocation count may exceed the table by at most 5%. The race target
# skips this test, because the race runtime changes what a run allocates.
cost:
	$(GO) test -count 1 -run '^TestCostTable$$' ./internal/core/

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
# follower's peer-response gate (digest and schema), the owner's
# parse of the hold a peer names, the suite journal's opener (every
# open syncs a file, so this target runs a few hundred inputs a second),
# the store's schema gate for persisted and peer-filled reports, and
# sweep spec canonicalization (idempotent and order-insensitive).
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzReplay -fuzztime=30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeRequestV1 -fuzztime=30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz=FuzzPeerResponse -fuzztime=30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz=FuzzHoldHeader -fuzztime=30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz=FuzzOpenJournal -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeResult -fuzztime=30s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzSpecCanonicalize -fuzztime=30s ./internal/sweep/
