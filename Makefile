# CI entry points. `make ci` is what a clean checkout must pass:
# gofmt + vet + build + full test suite under the race detector (the scan
# planner, result cache, commitlog, and store are all concurrent), a
# cache-defeating plain test run, a one-iteration smoke of the
# durable-engine benchmarks (so the WAL path and the two codec generations,
# v8 fixture vs v9, cannot rot unexercised) and of the watch hub's notify
# benchmark, the linker check that every function is reachable (reach),
# and the benchmark's own tests (bench-test) — the one performance entry
# point.

GO ?= go

.PHONY: ci vet build test test-fresh race bench-smoke alloc-guard fmt-check \
	test-wire cluster-smoke metrics-lint tier-smoke fault-smoke reach bench-test loc arch-cap

# alloc-guard runs inside the plain (non-race) test pass, but is also
# listed explicitly so the allocation budgets cannot rot out of CI.
# test-wire re-runs the v1 wire-protocol suites (api contract, client
# SDK, server surface, SDK-vs-engine corpus equality) by name so a
# filtered test invocation cannot silently drop them.
# metrics-lint checks the /v1/metrics exposition stays parseable,
# internally consistent and shows mid-traffic activity; cluster-smoke
# proves the multi-process replicated cluster survives a kill -9;
# bench-test drives every benchmark workload at small scale.
ci: fmt-check vet build race test-fresh alloc-guard test-wire metrics-lint bench-smoke cluster-smoke tier-smoke fault-smoke reach bench-test arch-cap

# The benchmark is a module of its own (bench/, contract in
# BENCHMARK.json), so the root test run never reaches it. Its tests drive
# all four workloads at 1/50 scale — the only consumer of Flush, Compact
# and TierSweep at thousands of segments per node. Performance claims are
# made with paired `bash bench/run.sh` runs (see bench/README.md).
bench-test:
	$(GO) test -C bench -count=1 ./...

# Tiered-storage smoke: force-evict every sealed segment to a local-fs
# object store and prove the engine corpus stays byte-identical through
# Merkle-verified read-through (including across a reopen), crash images
# cut by the recording FS before the operation that ends each
# upload/eviction stage recover without losing acked rows —
# for single-segment objects and for round objects of many sections —
# a flipped object byte falls back to a replica, the sections of one round
# object never read each other's cached blocks and outlive a retired
# sibling, a round costs one file and a sweep one object and one stub,
# a stub keeps the dead marks of the file it replaces and a crash never
# revives a retired section through its object, the background sweep
# takes mostly cold round files whole, a histogram or transfer-entropy
# fold that takes evicted blocks from their footers without fetching them
# answers exactly as the row path (TestHistogramTakesBlocksExactly/tiered),
# word count and TF-IDF through evicted templates answer exactly as over
# the reassembled messages (TestTextFoldsTemplatesMatchStrings/tiered),
# and the tiered scan benchmark still runs (resident / cached / cold-fetch).
tier-smoke:
	$(GO) test -count=1 -run TestTieredEngineCorpus ./internal/enginetest/
	$(GO) test -count=1 -run 'TestHistogramTakesBlocksExactly/tiered|TestTextFoldsTemplatesMatchStrings/tiered' ./internal/analytics/
	$(GO) test -count=1 -run 'TestTieredCrashRecovery|TestTieredRoundObjectCrashRecovery|TestTieredCorruptionFallsBackToReplica' ./internal/store/
	$(GO) test -count=1 -run 'TestRoundObjectSectionsReadTheirOwnBlocks|TestRetiringOneSectionKeepsSiblings|TestCompactingOnePartitionLeavesNoDeadSection|TestRoundSyncBudget|TestEvictedFileKeepsItsDeadMarks|TestCrashBeforeEntryDropKeepsSectionDead|TestTierSweepColdPolicyAcrossRoundFiles' ./internal/store/persist/
	$(GO) test -run XXX -bench BenchmarkTieredScan -benchtime 1x .

# Fault smoke: the commitlog, the object store and the segment store reach
# the disk only through internal/fsys (no `os` import, and a failed open
# is a nil File), and under a recording FS that fails one operation: a
# failed fsync or rotation poisons the commitlog and loses no acked
# record; a failed flush round (write, fsync or rename) publishes nothing
# and keeps its rows; a failed tier-manifest write or catalog commit
# leaves them as they were; a retired object outlives the scan that holds
# it, and one a crash or a failed delete strands is collected at open.
# The commitlog and the tier manifest are one log (internal/wal) and read
# their frames with one reader: a torn tail is cut; damage, the segment
# header included, with a whole valid frame after it refuses to open (the
# damage tests and the recovery fuzzers' seeds over each). A manifest
# record lost after its stub was written fails the open, one torn before
# any stub does not, a snapshot stands once its image is durable, and a
# predecessor manifest file is carried over, crash states (computed from
# the trace, or failed between two operations) and its retires' leftover
# stubs included (./internal/store/persist/ TestManifest*).
# The one replica read fails whole: a scan that breaks off after some rows
# never answers a Get (another replica does) and fails a Repair, and a
# remote scan fails when its peer makes no progress within the RPC
# timeout but not when a flowing stream outlasts it, and is retried when
# turned away before it opens (./internal/dist/). A reconciling read
# replaces a replica that breaks off after batches were handed out with a
# spare, read from after the last key it delivered, and holds a few
# batches a replica however long the partition (TestFaultQuorumRead*).
# A full memtable's flush is a node round, the one flush protocol: the
# write path hands the memtable over as a readable flushing run and runs
# the round with no partition lock held, so a Get or a PutBatch of the
# partition returns while the round is held mid-way; crash states —
# computed after the run from the recording FS's trace
# (./internal/fsys/fsystest/, its model itself tested: an unsynced write,
# and a create, rename, remove or mkdir before its directory's fsync, are
# gone after power loss; torn states are prefixes) at the operation that
# ends each stage of the write path's round, of Flush's and of a
# compaction round, at every create, fsync, rename, directory fsync and
# remove of a flush, a compaction and a sweep, and at every boundary of
# an ingest — recover every acked row, as kill -9 leaves them and as
# power loss does (only what was fsynced, and torn states between), and
# at least one power-loss state equals no kill -9 state; rounds back to
# back with concurrent writers and scanners hide no acked row
# (./internal/store/ round and crash tests, named); so do the
# persist-level compaction and sweep states (named); the same flush and
# compaction rounds write the same bytes, run after run
# (./internal/store/persist/ TestRoundFilesReproducible). A batch at the
# flush threshold is a round of its own and no commitlog record: at every
# boundary of it, acked means whole, and before the ack whole or absent
# (TestOwnRoundBatchCrashStates). A write's in-process replicas append to
# the process's one commitlog and share one fsync
# (TestLocalReplicasShareOneSync), and a truncation that comes while a
# write's records are appended but not yet in the memtables waits for
# them and keeps their segment (TestTruncateWhileWriting); a store written
# with per-node commitlogs recovers every row from them, and the first
# truncation after they are flushed removes them, crash states at every
# boundary included (TestPredecessorNodeLogs). The line scanners of
# internal/parse are fuzzed for 10 s against the regexps they replace
# (FuzzMatchText).
fault-smoke:
	$(GO) test -count=1 -run 'TestDurableLayersDoNotImportOS|TestOSFailedOpenIsNilFile' ./internal/fsys/
	$(GO) test -count=1 ./internal/fsys/fsystest/
	$(GO) test -count=1 -run 'TestInlineFlushCrashImages|TestFlushRoundCrashImages|TestCompactRoundCrashImages|TestCompactRoundRehomesSurvivorsCrashImages|TestCrashRecoveryAckedBatches|TestOwnRoundBatchCrashStates|TestCrashStatesAtEveryOperation|TestNodeRoundFilesReproducible|TestFlushRoundsConcurrentWritersAndScanners|TestThresholdFlushBlocksNoReader|TestLocalReplicasShareOneSync|TestPredecessorNodeLogs|TestTruncateWhileWriting' ./internal/store/
	$(GO) test -count=1 -run 'TestFault' ./internal/wal/ ./internal/objstore/ ./internal/store/ ./internal/dist/
	$(GO) test -count=1 -run 'TestFault|TestRetiredObject|TestManifest|TestRoundFilesReproducible|TestDeadSectionsStayDeadCrashImages|TestMixedGenerationCrashImages|TestReconcileReAdoptsLocalFile|TestReconcileMidUploadImage' ./internal/store/persist/
	$(GO) test -count=1 -run 'TestTorn|TestCorrupt|TestMidSegment|TestMultiRecord|TestZero|TestSealedSegmentDamage|TestDamagedHeader|FuzzCommitlogRecovery' ./internal/wal/
	$(GO) test -count=1 -run 'TestManifestRejectsCorruption|TestManifestLogTornTailAndCorruption|TestManifestEmptySnapshot|FuzzManifestLogRecovery|FuzzDecodeManifest' ./internal/objstore/
	$(GO) test -count=1 -run XXX -fuzz FuzzMatchText -fuzztime 10s -fuzzminimizetime 3s ./internal/parse/

# Reachability: build every binary (cmd/* and the benchmark) with
# inlining off and read its symbols with `go tool nm`; every non-test
# function under internal/ and cmd/ must be linked into one of them, or
# be on reach_test.go's allowlist with a reason. An allowlisted function
# that is linked again, or no longer declared, fails too, so the list
# only shrinks. The SDK (client/) and the test-support packages are
# exempt. About 30 s with a cold build cache, 4 s warm.
reach:
	$(GO) test -count=1 -run '^TestEveryFunctionIsLinked$$' .

# Exposition-format lint plus cluster observability: every /v1/metrics
# line must parse, each metric is typed exactly once, histogram buckets
# are cumulative with +Inf == _count, counters never go negative, the
# slow-query log captures stage timings, per-peer replication series
# appear on every cluster member, and one request ID traces across all
# three processes of a replicated write; batch partition scans show up by
# read path (chained / merged) and memtable puts by write path (append /
# merge); a scrape taken while a watch subscription is open shows live
# subscribers, wakeups, tail-ring hits, commitlog fsyncs and traced
# requests.
metrics-lint:
	$(GO) test -count=1 -run '^(TestMetricsExposition|TestMetricsExpositionBackgroundRounds|TestMetricsExpositionScanPaths|TestSlowQueryLog)$$' ./internal/server/
	$(GO) test -count=1 -run 'TestMetricsClusterReplication|TestMetricsTracePropagation' ./internal/dist/

# Process smoke: build cmd/hpclogd, spawn a 3-process RF=3 cluster on
# loopback ports, drive quorum writes and reads through the public wire
# protocol, kill -9 one process mid-traffic (quorum must keep acking),
# restart it, and assert its own replica converges to every acked write;
# then run one process without -peers over a generated durable corpus,
# SIGTERM it (exit 0 within -drain-timeout), restart it on the same
# directory, and assert the same heat-map bytes; then run it without
# -data-dir (it stores under a directory of its own in TMPDIR and leaves
# TMPDIR empty at exit), and check it refuses -tier without -data-dir and
# leaves the tier's objects untouched.
cluster-smoke:
	HPCLOG_CLUSTER_SMOKE=1 $(GO) test -count=1 -run 'TestClusterProcessSmoke|TestSingleProcessSmoke' ./internal/dist/

# The v1 wire protocol: contract types, client SDK (error propagation,
# retries, pagination/stream equality), server surface hardening, and the
# engine-test corpus over the SDK.
test-wire:
	$(GO) test -count=1 ./internal/api/ ./client/ ./internal/server/ ./internal/enginetest/

# ARCHITECTURE.md stays a map, not a manual: it fails over 719 lines.
arch-cap:
	@n=$$(wc -l < ARCHITECTURE.md); [ $$n -le 719 ] || { echo "ARCHITECTURE.md is $$n lines, over 719"; exit 1; }

# Root non-test Go: the line count ROADMAP's rider rule tracks —
# internal/, cmd/ and client/ without their _test.go files (bench/ is a
# module of its own and not counted). Informational; not part of ci.
loc:
	@find internal cmd client -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -count=1 defeats the build cache's test-result caching.
test-fresh:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run XXX -bench WAL -benchtime 1x .
	$(GO) test -run XXX -bench BenchmarkScanBatches -benchtime 1x ./internal/store/persist/
	$(GO) test -run XXX -bench BenchmarkHubNotify -benchtime 1x ./internal/server/
	$(GO) test -run XXX -bench BenchmarkTextFolds -benchtime 1x ./internal/analytics/

# Allocation regression guards: a segment scan, a projected v8/v9 block
# decode, templated cells reassembled or not (zero per block), a flush
# round (constant per round, small constant per segment, no image buffer
# and no file per segment), a parsed line (its attribute map's own
# allocations and nothing else), a durable partition read through
# Get and through PartitionBatches at QUORUM (no per-row conversion), a
# bulk import (objects per imported event), a batch histogram and
# heat-map fold (constant per scan, zero per block), a TF-IDF text fold
# over one-off hex terms and a word count over dictionary-coded holes
# counted by code tuple, off pooled vocabularies (the same count at 2 048
# and 4 096 rows: nothing per row, block or term, TestTextFoldAllocBudget),
# a put-record encode,
# predicate evaluation, the watch hub's write-path notify (one
# allocation per digest, its encoded lines, at any subscriber count), a
# late page of a paginated events request, the row wire path (events one-shot,
# stream and page, CQL SELECT, each served off a durable store at <= 0.2
# allocations per row), the observability hot path (counter bump,
# histogram record, span stage), the wire codec (encoding a
# 500-run page, decoding a 500-event page, and one SDK Events call end
# to end) and the cname parser must stay within fixed
# testing.AllocsPerRun budgets (see *alloc_guard_test.go; skipped under
# -race). Predicate evaluation, metrics recording, row encoding and
# parsing a valid cname in particular must allocate ZERO per op. A
# 30-day histogram of 60 s bins must allocate under 8 MB, its task
# accumulators holding only the bins they touch
# (TestHistogramLongWindowAllocs). A source read under a persist.Match
# allocates nothing per kept block and builds the text of the rows it
# selects alone, never a whole block's (TestSourceScanAllocBudget).
alloc-guard:
	$(GO) test -run 'AllocBudget|TestSourceScanAllocBudget|TestHistogramLongWindowAllocs' -count=1 ./internal/store/... ./internal/parse/ ./internal/ingest/ ./internal/analytics/ ./internal/plan/ ./internal/server/ ./internal/obs/ ./internal/api/ ./client/ ./internal/topology/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" $$out; exit 1; fi
