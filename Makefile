# CI entry points. `make ci` is what a clean checkout must pass:
# gofmt + vet + build + full test suite under the race detector (the scan
# planner, result cache, commitlog, and store are all concurrent), a
# cache-defeating plain test run, a one-iteration smoke of the
# durable-engine benchmarks (so the WAL path and the two block generations,
# v6 fixture vs v7, cannot rot unexercised) and of the watch hub's notify
# benchmark, the linker check that every function is reachable (reach),
# and the benchmark's own tests (bench-test) — the one performance entry
# point.

GO ?= go

.PHONY: ci vet build test test-fresh race bench-smoke alloc-guard fmt-check \
	test-wire cluster-smoke metrics-lint tier-smoke fault-smoke reach bench-test loc

# alloc-guard runs inside the plain (non-race) test pass, but is also
# listed explicitly so the allocation budgets cannot rot out of CI.
# test-wire re-runs the v1 wire-protocol suites (api contract, client
# SDK, server surface, SDK-vs-engine corpus equality) by name so a
# filtered test invocation cannot silently drop them.
# metrics-lint checks the /v1/metrics exposition stays parseable,
# internally consistent and shows mid-traffic activity; cluster-smoke
# proves the multi-process replicated cluster survives a kill -9;
# bench-test drives every benchmark workload at small scale.
ci: fmt-check vet build race test-fresh alloc-guard test-wire metrics-lint bench-smoke cluster-smoke tier-smoke fault-smoke reach bench-test

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
# cut at every upload/eviction stage recover without losing acked rows —
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
# The one replica read fails whole: a scan that breaks off after some rows
# never answers a Get (another replica does) and fails a Repair, and a
# remote scan fails when its peer makes no progress within the RPC
# timeout but not when a flowing stream outlasts it, and is retried when
# turned away before it opens (./internal/dist/).
fault-smoke:
	$(GO) test -count=1 -run 'TestDurableLayersDoNotImportOS|TestOSFailedOpenIsNilFile' ./internal/fsys/
	$(GO) test -count=1 -run 'TestFault' ./internal/wal/ ./internal/objstore/ ./internal/store/ ./internal/dist/
	$(GO) test -count=1 -run 'TestFault|TestRetiredObject' ./internal/store/persist/

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

# Allocation regression guards: a segment scan, a projected v7 block
# decode, templated cells reassembled or not (zero per block), a flush
# round (constant per round, small constant per segment, no image buffer
# and no file per segment), a durable partition read through
# Get and through PartitionBatches at QUORUM (no per-row conversion), a
# bulk import (objects per imported event), a batch histogram and
# heat-map fold (constant per scan, zero per block), a put-record encode,
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
# (TestHistogramLongWindowAllocs).
alloc-guard:
	$(GO) test -run 'AllocBudget|TestHistogramLongWindowAllocs' -count=1 ./internal/store/... ./internal/ingest/ ./internal/analytics/ ./internal/plan/ ./internal/server/ ./internal/obs/ ./internal/api/ ./client/ ./internal/topology/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" $$out; exit 1; fi
