# Development targets for the webreason reproduction.
#
#   make test             run the full tier-1 suite (build + all tests)
#   make test-race        the same suite under the race detector
#   make test-procs1      the store, reasoner and engine tests and the root
#                         Test*Allocs gates at GOMAXPROCS=1, where the
#                         goroutines of a bulk build cannot overlap and run
#                         one after another, and one pooled engine scratch
#                         serves every execution, so a dedup set that kept
#                         an earlier execution's rows would show (-count=1:
#                         the test cache does not key on GOMAXPROCS)
#   make vet              static checks
#   make lint             vet plus the project invariant analyzers: builds
#                         tools/analyzers/webreasonvet and runs it over the
#                         main module and the tools module (hotpath,
#                         frozenmut, ctxblock, errtaxonomy, atomicfield)
#   make fuzz             run each fuzz target briefly (parsers, the
#                         persistence snapshot/WAL decoders and the store
#                         index codec: panic hunt; chain recovery of a
#                         damaged data directory: the mirror's against the
#                         undamaged history and against Open's; the store's
#                         bulk builder: against per-triple Add; the compiled
#                         RDFS closure: maintained G∞ against the generic
#                         rule engine; query reformulation: the plain and the
#                         minimised union, under a drawn projection, against
#                         the projected query over G∞, and each as served,
#                         its product-shaped runs of branches joined as atom
#                         unions, against one plan per branch; backward
#                         chaining's source, pattern shape by pattern shape,
#                         against G∞'s matches; a plan's distinct execution, over
#                         the store and over a source that repeats its
#                         matches, against a brute-force evaluator)
#   make test-chaos       seeded fault-injection sweep under the race
#                         detector: CHAOS_SEEDS (default 200) full server
#                         rounds over a scripted faulty filesystem, each
#                         crash-copied or closed and then recovered
#                         (reproduce one round with
#                         go test -run TestChaos -chaos.seed=N .)
#   make bench            the repository's one benchmark (BENCHMARK.json):
#                         bash benchmark/run.sh once per workload — sat.read,
#                         ref.read, sat.update, fig3.batch — at BENCH_SEED
#                         (default 1), each printing its named end-to-end
#                         metrics; see benchmark/README.md for traced runs.
#                         The Go Benchmark* functions remain runnable with
#                         plain go test -bench.
#   make bench-smoke      run every Go Benchmark* function once
#                         (-benchtime 1x), so the micro-benchmarks that
#                         results and open items cite keep compiling and
#                         running (seconds; no timing is read)
#   make ab               paired A/B of the benchmark between two versions:
#                         tools/ab.sh AB_BASE AB_HEAD (default: HEAD and the
#                         working tree) on AB_WORKLOAD (default sat.update)
#                         for AB_PAIRS (default 10) alternating pairs at fresh
#                         seeds, every run under GODEBUG=gctrace=1; prints
#                         medians, quartiles, wins and a gain / no regression
#                         / unresolved verdict per end-to-end metric by
#                         BENCHMARK.json's bounds, killed runs per side, and
#                         each side's peak live heap, GC count and GC CPU
#   make test-benchmark   vet and smoke-test the benchmark module against
#                         this checkout's root module, so a facade change
#                         that breaks the benchmark fails here
#   make test-replica-chaos
#                         seeded replication chaos under the race detector:
#                         REPLICA_CHAOS_SEEDS (default 24) rounds of
#                         concurrent durable writes with follower
#                         kill/restart and a final failover promotion
#                         (reproduce one round with
#                         go test -run TestReplicaChaos -replica.chaos.seed=N .)
#   make test-store-stress
#                         high-iteration randomized store sweep under the
#                         race detector: the differential battery (store,
#                         its snapshots and the clones it leaves behind,
#                         which the battery keeps writing, vs a brute-force
#                         oracle) plus
#                         the structural-sharing properties, at
#                         STORE_ROUNDS (default 1000) seeded rounds
#                         (reproduce one round with
#                         go test -run TestDifferentialBattery -store.seed=N
#                         -store.rounds=1 ./internal/store/)

GO ?= go
BENCH_SEED ?= 1
FUZZTIME ?= 30s
CHAOS_SEEDS ?= 200
REPLICA_CHAOS_SEEDS ?= 24
STORE_SEED ?= 1
STORE_ROUNDS ?= 1000
STORE_STEPS ?= 300
AB_BASE ?= HEAD
AB_HEAD ?= .
AB_WORKLOAD ?= sat.update
AB_PAIRS ?= 10

.PHONY: test test-race test-procs1 test-chaos test-replica-chaos test-store-stress test-benchmark vet lint fuzz bench bench-smoke ab

test:
	$(GO) build ./...
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-procs1:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/store ./internal/reason ./internal/engine
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Allocs$$' .

test-chaos:
	$(GO) test -race -run 'TestChaos$$' -chaos.seeds=$(CHAOS_SEEDS) .

test-replica-chaos:
	$(GO) test -race -run TestReplicaChaos -replica.chaos.seeds=$(REPLICA_CHAOS_SEEDS) .

test-store-stress:
	$(GO) test -race -run 'TestDifferentialBattery|TestSnapshotStructuralSharing|TestSnapshotO1' \
		-timeout 30m ./internal/store/ \
		-store.seed=$(STORE_SEED) -store.rounds=$(STORE_ROUNDS) -store.steps=$(STORE_STEPS)

vet:
	$(GO) vet ./...
	$(GO) -C tools/analyzers vet ./...

# lint implies vet, then runs the invariant analyzers over both modules
# (the tools module is dogfooded).
lint: vet
	$(GO) -C tools/analyzers build -o bin/webreasonvet ./webreasonvet
	tools/analyzers/bin/webreasonvet ./...
	tools/analyzers/bin/webreasonvet -C tools/analyzers ./...

# FuzzCompiledClosure finds new interesting inputs often, and minimising each
# one for the default 60s would spend most of a short window at 0 execs/s.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzNTriples -fuzztime $(FUZZTIME) ./internal/ntriples/
	$(GO) test -run '^$$' -fuzz FuzzTurtle -fuzztime $(FUZZTIME) ./internal/turtle/
	$(GO) test -run '^$$' -fuzz FuzzSPARQL -fuzztime $(FUZZTIME) ./internal/sparql/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzChainRecover -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzHAMTNodeDecode -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzBuild -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzCompiledClosure -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/reason/
	$(GO) test -run '^$$' -fuzz FuzzReformulate -fuzztime $(FUZZTIME) ./internal/reformulate/
	$(GO) test -run '^$$' -fuzz FuzzBackwardSource -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzPlanExec -fuzztime $(FUZZTIME) ./internal/engine/

test-benchmark:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

bench:
	for w in sat.read ref.read sat.update fig3.batch; do \
		bash benchmark/run.sh -workload $$w -seed $(BENCH_SEED) || exit 1; \
	done

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

ab:
	tools/ab.sh $(AB_BASE) $(AB_HEAD) -workload $(AB_WORKLOAD) -pairs $(AB_PAIRS) -gctrace
