# Developer entry points. `make ci` is the full gate; the chaos soak
# runs under the race detector because that is where fan-out bugs live,
# and the differential fuzz soak cross-checks the engine against the
# row-at-a-time oracle across the full acceleration matrix.
#
# Replaying a fuzz divergence: every report prints its seed. Re-run
# that exact world with
#
#	go test ./internal/oracle -run TestDifferential -seed=<n> -v
#
# (add -trials/-queries to match a longer soak). To watch the harness
# catch planted engine bugs — a flipped pruning comparison, an
# off-by-one direct-address grouping slot and an off-by-one piece
# offset — run
#
#	make fuzz-bug
#
# which builds with `-tags oraclebug` and must FAIL the differential
# test while PASSING TestForcedBugCaught with a minimized report, then
# with `-tags oraclebug_dense` (the grouping bug alone) and must PASS
# TestForcedDenseBugCaught, then with `-tags oraclebug_sel` (the offset
# bug alone) and must PASS TestForcedSelBugCaught.

GO ?= go

.PHONY: all vet build test race chaos fuzz fuzz-bug crash txn serve integrity gatecheck bench bench-smoke benchmark benchmark-compare obs gclean systables ci

all: build

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l internal cmd)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, then the statement cache's
# shared templates hit and missed by many goroutines at once, ten times
# over.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestShapeCacheConcurrent' ./internal/engine/

# The chaos soak: TPC-H under injected object-store faults, race-clean.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/resilience/

# The differential soak: ≥200 generated queries through every
# {cache, DPP, prune granularity, faults} × {pre/post compaction}
# cell, engine vs oracle, bit-identical or the build fails — the star
# family among them, which must keep reaching every join strategy and
# grouping kernel, and single-table LIMITs with no ORDER BY, whose
# answer is any n rows of the unlimited one and which a cold engine
# must answer row for row as the warm one does. Then ten seconds of native fuzzing on each of the
# column codec's decoders — the one parser a Read API client points at
# bytes with no checksum in front of them: an error or a column that
# re-encodes to itself, never a panic — and ten on the file writer over
# random float bit patterns, integers near ±2^53 and the int64 extremes,
# NULL runs and non-UTF-8 strings: every value reads back bit for bit
# (NaN as NaN), every chunk's Distinct stat is its typed distinct count,
# and the footer the writer hands over is the one a reader parses; then
# ten on the statement cache: any text, and the same text with fresh
# literals, parse through Engine.Parse exactly as sqlparse.Parse parses
# them, errors byte for byte; then ten on the exact float SUM: random
# float64 bit patterns spread over random morsel, worker, group and Add
# layouts sum to the math/big reference's bits (the seed corpora alone
# run in every plain `go test`).
fuzz:
	$(GO) test -run 'TestDifferential|TestIcebergExportEquality|TestStarFamilyReachesKernels' -v ./internal/oracle/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeColumn' -fuzztime=10s ./internal/vector/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatch' -fuzztime=10s ./internal/vector/
	$(GO) test -run '^$$' -fuzz 'FuzzWriteFileRoundTrip' -fuzztime=10s ./internal/colfmt/
	$(GO) test -run '^$$' -fuzz 'FuzzShapeCache' -fuzztime=10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzExactSum' -fuzztime=10s ./internal/vector/

# Demonstrate the harness catches each planted bug, one build tag each
# — a flipped pruning comparison (oraclebug), an off-by-one
# direct-address grouping slot (oraclebug_dense) and an off-by-one
# piece offset in a join's pass-through (oraclebug_sel) — (not in ci:
# the tagged builds are intentionally broken).
fuzz-bug:
	$(GO) test -tags oraclebug -run 'TestForcedBugCaught' -v ./internal/oracle/
	$(GO) test -tags oraclebug_dense -run 'TestForcedDenseBugCaught' -v ./internal/oracle/
	$(GO) test -tags oraclebug_sel -run 'TestForcedSelBugCaught' -v ./internal/oracle/

# The crash-point sweep: kill a core.New lakehouse at every labeled
# step of the flush/batch-commit/compaction/Iceberg-export protocols,
# restart it through Lakehouse.Recover (the deployment's one restart
# path: journal replay, every in-memory service rebuilt), and diff
# against the oracle; then the restart path itself on every surface it
# rebuilds — engine, Read API, resumed write stream, transactions, one
# registry — and on lakehouses that share a control plane: a sibling
# restarted alone, an Omni region restarted under its CCMV replica, and
# CCMV refreshes that fail partway (nothing of them seals, the next one
# copies every missing file). Prints the seed and a replay command on
# failure; re-run one world with
#
#	go test ./internal/oracle -run TestCrashSweep -seed=<n> -v
crash:
	$(GO) test -race -run 'TestCrashSweep' -v ./internal/oracle/
	$(GO) test -race -run 'TestRecoverRewiresEveryService|TestControlPlaneDeploysSiblings' ./internal/core/
	$(GO) test -race -run 'TestCCMVFailed|TestRegionRecover' ./internal/omni/

# Observability gate: registry/span tests under the race detector,
# the EXPLAIN ANALYZE goldens, the one-registry tests (a core.New
# lakehouse shows every layer — store, Big Metadata, Storage API, write
# path retries, Read API detections, repair outcomes — in
# system.metrics; a log re-pointed while it commits, a Storage API
# server while it reads through faults), the zero-alloc
# disabled-span benchmark, and the obslint sweep that keeps new
# counters in the registry, documented and dotted.
obs:
	$(GO) vet ./internal/obs/ ./internal/engine/
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'TestExplainAnalyze|TestQuerySpanTree|TestChromeTrace|TestEngineRegistryCounters' ./internal/engine/
	$(GO) test -race -run 'TestSystemMetrics' ./internal/core/
	$(GO) test -race -count=10 -run 'TestLogUseObsWhileCommitting' ./internal/bigmeta/
	$(GO) test -race -count=10 -run 'TestServerUseObsWhileReadRowsRetries' ./internal/storageapi/
	$(GO) test -run '^$$' -bench BenchmarkSpanDisabled -benchtime 100000x ./internal/obs/
	./scripts/obslint.sh

# The transaction gate: the interactive-transaction package under the
# race detector, plus the interleaved-schedule serializability oracle
# (sessions, autocommit statements and Optimize passes interleaved) and
# its crash sweep (kill the process at every labeled step of the one
# commit protocol, restart through Lakehouse.Recover, re-drive the
# schedule, and require a serializable, orphan-free state), then the
# committers that used to seal unvalidated — autocommit DML and
# Optimize, raced against each other ten times over — and the
# post-commit Iceberg export and Write API intent every committer now
# shares. Replay one world with
#
#	go test ./internal/oracle -run TestTxnCrashSweep -seed=<n> -v
txn:
	$(GO) test -race ./internal/txn/
	$(GO) test -race -run 'TestTxn' -v ./internal/oracle/
	$(GO) test -race -run 'TestAutocommitRewriteLoses|TestEveryCommitterExportsIceberg' ./internal/oracle/
	$(GO) test -race -count=10 -run 'TestConcurrentAutocommitUpdates|TestOptimizeRacesCommittedDML' ./internal/oracle/
	$(GO) test -race -run 'TestWriteAPIFlushDeclaresIntent' ./internal/core/

# The query-service gate: admission control, weighted fair queuing,
# cancellation, and the seeded load harness under the race detector —
# with one open transaction per principal across both of a lakehouse's
# doors (Lakehouse.Query and a session) — then every door recording one
# job per statement (Lakehouse.Query, a session, Omni single-region and
# cross-cloud) and a repeated cross-cloud query over the shared cached
# AST, a short deterministic soak (E18 overload shape + same-seed
# bit-identical replay) and the serve-path differential diff.
serve:
	$(GO) test -race ./internal/serve/...
	$(GO) test -race -run 'TestEveryDoorRecordsOneJob|TestCrossCloudQueryRepeats' ./internal/omni/
	$(GO) test -race -run 'TestE18' -v ./internal/exp/
	$(GO) test -run 'TestDifferentialServe' ./internal/oracle/

# The integrity gate: checksums end to end under injected silent
# corruption. Format-level bit-flip detection, WAL torn-write recovery,
# the one verified reader (internal/scan) and each of its callers — the
# engine's scan-cache poisoning guard and quarantine containment, a
# LIMIT's stop (its files fetched in waves, none after the prefix that
# holds its rows, and never under a row policy, a mask, a transaction
# overlay or a WHERE the scan does not enforce exactly), the
# Read API's quarantine and partition columns, rewrites that never
# commit unverified bytes, the budgeted scrubber — column projection
# through it (the column-resident cache under concurrent fills, the
# engine's column sets and the Read API's, both under governance),
# ranged reads through Big Metadata's chunk map (damage to one range's
# response heals on the refetch, a stored flip in a fetched chunk
# quarantines, one in a chunk no read fetches is the scrubber's), Read
# API aggregate sessions (every acquisition of a reused session answers
# once, a float SUM is the engine's at any stream count, reuse keys on
# the stream cap), read-session lifetimes raced ten times over (each
# acquisition reads under its own retry budget, a drained stream's
# state goes, an expired or never-read session is reclaimed, ReadAll
# drains the splits too — and all of it from several clients at once), the
# corruption-injection determinism suite, the oracle corruption sweep
# with its Read API and DML arms (zero silent wrong answers), the E19
# detect -> contain -> repair experiment, and the scanlint sweep that
# keeps a second fetch -> verify -> decode path, a second intent -> PUT
# -> seal commit path, a whole-file decode on a query path and a second
# footer parse beside the chunk map from growing back.
integrity:
	$(GO) test -run 'TestRoundTrip|TestVerify' ./internal/colfmt/
	$(GO) test -race -run 'TestRecover' ./internal/wal/
	$(GO) test -race ./internal/scan/
	$(GO) test -race -count=10 -run 'TestCacheConcurrentFills' ./internal/scan/
	$(GO) test -race -count=3 -run 'TestRangedRead' ./internal/scan/
	$(GO) test -race -run 'TestScanCache|TestQuarantined|TestProjection|TestLimitStop' ./internal/engine/
	$(GO) test -race -count=10 -run 'TestReusedAggregateSession|TestLifetime|TestReadAllDrainsSplitStreams' ./internal/storageapi/
	$(GO) test -race -run 'TestAggregateFloatSumMatchesEngine|TestSessionReuseKeysOnStreamCap' ./internal/storageapi/
	$(GO) test -race -run 'TestReadRowsQuarantines|TestReadPartitionedTable|TestReadRowsProjects' ./internal/storageapi/
	$(GO) test -race ./internal/scrub/
	$(GO) test -run 'TestCorruption' ./internal/objstore/
	$(GO) test -run 'TestQuarantineLifecycle' ./internal/bigmeta/
	$(GO) test -run 'TestIntegrity|TestRewritesNeverCommit' -v ./internal/oracle/
	$(GO) test -race -run 'TestE19' -v ./internal/exp/
	./scripts/scanlint.sh

# Every `-run '<pattern>' <package>` above and below must select at
# least one test: a test that moves (say from internal/engine to
# internal/scan) would otherwise empty its gate without a sound.
gatecheck:
	./scripts/gatecheck.sh

# The arena-lifetime + alloc-budget gate: pooled kernels agree with
# their heap-allocating form (bit-exact masks/batches including
# late-materialized dictionaries), per-kernel allocs/op budgets (a
# kernel that starts allocating again fails the build; zero for the
# N:1 joins, the dictionary and dense groupings and top-K), every join
# and grouping path
# against the string-keyed reference under the race detector (the
# N:1 probe's shared match slots five times over), arena lifetime
# safety under the race detector (query results, LIMIT prefixes and
# columns a join passed through included, must survive arena
# recycling; serve cursors copy out), the small-join alloc budget, the
# column codec and the Read API's masking and partial aggregates against
# their byte-reader / boxed references with per-column (never per-value)
# alloc budgets, a governed ReadRows that allocates the same at 1k and
# 8k rows, a point lookup over a cache-resident sorted column that finds
# its row by binary search (a handful of allocator elements, not a mask
# the width of the file) and windowed results that outlive their arena
# and their scan-cache entry under the race detector, a metadata prune
# that keeps what the per-file reference keeps and allocates the same
# at 10^2 and 10^4 files (BenchmarkPrune run once, so it keeps
# compiling and running), the scan merge at workers {1, 2, 3, 8} on a
# recycled arena full of garbage against the serial heap merge under
# the race detector (BenchmarkScanMerge run once), the worker sweep over
# warm scans whose selects and merge fan out, raced three times, a file
# write whose allocations grow per chunk, not per row
# (BenchmarkWriteFile run once), the fused aggregate walk under an
# allocation budget and the float SUM over dyadic and non-dyadic input
# (BenchmarkFloatSum run once), the direct-address grouping and N:1
# join and the typed top-K at zero allocations on one worker
# (BenchmarkGroupKeys, BenchmarkHashJoinN1 and BenchmarkTopK run once),
# a warm scan's selections grouped and folded where they lie against
# the same after a copy (BenchmarkScanSelect run once),
# a point lookup served from the
# statement cache in a handful of allocations with a lexer that
# allocates nothing per token (BenchmarkParse, miss and hit, run once),
# and the E20 experiment smoke: the star join's heap
# allocs/bytes/GC per query under committed budgets, mixed-traffic QPS,
# variance cells.
# BENCH_E15.json / BENCH_E20.json are the committed full-scale
# snapshots (they also record the removed row-at-a-time and eager-heap
# arms); a plain `benchlake e20` fails if any variance cell regresses
# beyond the noise band recorded in BENCH_E20.json.
gclean:
	$(GO) test -run 'TestGCLean' ./internal/vector/
	$(GO) test -race -run 'TestJoinGroupPathParity|TestDictKeyDuplicateEntries' ./internal/vector/
	$(GO) test -race -count=5 -run 'TestN1ProbeConcurrentWriters' ./internal/vector/
	$(GO) test -race -run 'TestGCLean|TestArena' ./internal/engine/
	$(GO) test -run 'TestGCLeanSmallJoinAllocs' ./internal/engine/
	$(GO) test -run 'TestWire|TestMaskKernel|TestAggregateKernel|TestDecodedStringsShareOneBuffer' ./internal/vector/
	$(GO) test -run 'TestGCLeanReadRowsAllocs' ./internal/storageapi/
	$(GO) test -run 'TestGCLeanSortedPointLookup' ./internal/scan/
	$(GO) test -run 'TestGCLeanPruneAllocs|TestPruneKernelMatchesReference' ./internal/bigmeta/
	$(GO) test -run '^$$' -bench BenchmarkPrune -benchtime 1x ./internal/bigmeta/
	$(GO) test -race -run 'TestScanMerge' ./internal/vector/
	$(GO) test -run '^$$' -bench BenchmarkScanMerge -benchtime 1x ./internal/vector/
	$(GO) test -run '^$$' -bench BenchmarkFloatSum -benchtime 1x ./internal/vector/
	$(GO) test -run '^$$' -bench 'BenchmarkGroupKeys|BenchmarkHashJoinN1|BenchmarkTopK|BenchmarkScanSelect' -benchtime 1x ./internal/vector/
	$(GO) test -run 'TestGCLeanWriteFile' ./internal/colfmt/
	$(GO) test -run '^$$' -bench BenchmarkWriteFile -benchtime 1x ./internal/colfmt/
	$(GO) test -run 'TestGCLeanParseHit' ./internal/engine/
	$(GO) test -run '^$$' -bench BenchmarkParse -benchtime 1x ./internal/engine/
	$(GO) test -race -count=3 -run 'TestVectorizedWorkerCountInvarianceWarm' ./internal/engine/
	$(GO) test -race -run 'TestWindowOutlivesArenaAndCache' ./internal/scan/
	$(GO) test -race ./internal/arena/
	$(GO) test -race -run 'TestCursorSurvivesArenaRecycle' ./internal/serve/
	$(GO) test -run 'TestE20' -v ./internal/exp/

# The queryable-telemetry gate: the systables rings/trackers and the
# obs registry under the race detector, the direct-engine system.* SQL
# path (which records no job: the engine only executes), the
# serve-session system.* SQL paths (including the self-observation
# regression, and DML rows timed from their own statement — through a
# session and through Lakehouse.Query), one job row with its SQL text
# per statement through every door (an Omni row with what its region
# runs scanned), the E21 overhead gate (recording on vs off must take
# bit-identical trajectories), system.metrics over the production
# assembly (core.New: every layer's counters in the one registry), and
# the obslint sweep that keeps every registered metric name documented
# in DESIGN.md.
systables:
	$(GO) test -race ./internal/systables/
	$(GO) test -race -run 'TestHistogramObserveConcurrent|TestSnapshotUnderConcurrentWriters' ./internal/obs/
	$(GO) test -race -run 'TestSystem' ./internal/engine/
	$(GO) test -run 'TestSystemMetrics' ./internal/core/
	$(GO) test -race -run 'TestQueryDMLReportsElapsed' ./internal/core/
	$(GO) test -race -run 'TestSelfObservation|TestServe|TestSystem' ./internal/serve/
	$(GO) test -race -run 'TestEveryDoorRecordsOneJob' ./internal/omni/
	$(GO) test -run 'TestE21|TestRunTop' -v ./internal/exp/
	./scripts/obslint.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Default-scale end-to-end run of the CPU-bound experiments (E2's
# vectorized reader at 60k rows, E15's execution kernels at 400k). No
# -json: this only guards that the measured paths run end to end; it
# enforces no timing threshold and must not overwrite the committed
# BENCH_*.json.
bench-smoke:
	$(GO) run ./cmd/benchlake e2 e15

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): all five
# workloads at their fixed op counts, every answer checked, every
# metric printed; results land in benchmark/out/. BENCH_FLAGS passes
# flags through, e.g. BENCH_FLAGS='-seed 3 -seconds 15'.
benchmark:
	$(GO) run ./benchmark $(BENCH_FLAGS)

# make benchmark-compare BASE=<git-ref> [PAIRS=n] [BENCH_FLAGS=...]
# builds the benchmark at BASE (unpacked with `git archive` into a
# temporary directory: no worktree, no .git needed) and at the
# working tree, runs the suite PAIRS times on each (seeds 1..PAIRS),
# alternating which side goes first, then applies the BENCHMARK.json
# bounds to every pair with -compare and fails if any pair is worse.
# Neither target joins ci: they take minutes and measure the host as
# much as the code (claim a gain only from >= 10 pairs; see ROADMAP).
PAIRS ?= 1
benchmark-compare:
	@test -n "$(BASE)" || { echo "usage: make benchmark-compare BASE=<git-ref> [PAIRS=n] [BENCH_FLAGS=...]"; exit 2; }
	@set -e; head=$$(pwd); tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	git rev-parse --verify --quiet "$(BASE)^{commit}" >/dev/null || { echo "benchmark-compare: unknown ref $(BASE)"; exit 2; }; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-base" ./benchmark); \
	$(GO) build -o "$$tmp/bench-head" ./benchmark; \
	run() { (cd "$$2" && "$$tmp/bench-$$1" -seed "$$3" -out "$$tmp/out-$$1" $(BENCH_FLAGS) >"$$tmp/out-$$1-seed$$3.log" 2>&1) || \
		{ cat "$$tmp/out-$$1-seed$$3.log"; exit 1; }; echo "ran $$1 seed $$3"; }; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then run base "$$tmp/base" $$i; run head "$$head" $$i; \
		else run head "$$head" $$i; run base "$$tmp/base" $$i; fi; \
	done; \
	worse=0; for i in $$(seq 1 $(PAIRS)); do \
		echo "== pair $$i: $(BASE) -> working tree =="; \
		"$$tmp/bench-head" -compare "$$tmp/out-base/result-seed$$i.json" "$$tmp/out-head/result-seed$$i.json" || worse=1; \
	done; exit $$worse

# The closing step fails if a gate modified a committed baseline or
# left a new one untracked.
ci: vet build gatecheck test race obs chaos fuzz crash txn serve integrity gclean systables bench-smoke
	@test -z "$$(git status --porcelain -- 'BENCH_*.json')" || \
		{ echo "BENCH_*.json modified or left untracked:"; git status --porcelain -- 'BENCH_*.json'; exit 1; }
