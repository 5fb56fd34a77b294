// Prometheus text exposition (GET /v1/metrics). Every subsystem the
// process hosts reports here: per-route HTTP latency histograms and
// in-flight gauges, watch-hub counters, the storage engine's commitlog /
// flush / compaction counters with the merged fsync-latency histogram,
// the compute pool's scan and pruning counters, the query engine's
// result cache and per-operation latencies, the tracer's slow-query
// counters, and — when a cluster runtime is attached — per-peer
// replication latency, heartbeat RTT, liveness, and hint backlog.
//
// Naming scheme: hpclog_<subsystem>_<metric>, with the standard
// Prometheus unit and type suffixes (_total for counters, _seconds for
// latency histograms; gauges carry no suffix). Collection is lock-free
// on the hot path: handlers record into atomic histograms and counters,
// and a scrape only reads them.
package server

import (
	"net/http"
	"time"

	"hpclog/internal/obs"
)

// handleMetrics answers GET /v1/metrics in Prometheus text exposition
// format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	mw := obs.NewWriter(w)
	s.collectHTTPMetrics(mw)
	s.collectWatchMetrics(mw)
	s.collectTraceMetrics(mw)
	s.collectStoreMetrics(mw)
	s.collectComputeMetrics(mw)
	s.collectQueryMetrics(mw)
	if c, ok := s.cluster.(obs.Collector); ok {
		c.CollectMetrics(mw)
	}
}

func (s *Server) collectHTTPMetrics(w *obs.Writer) {
	for _, route := range obs.SortedKeys(s.routeHist) {
		w.Hist("hpclog_http_request_seconds", "HTTP request latency by route.",
			s.routeHist[route], "route", route)
	}
	for _, name := range obs.SortedKeys(s.limiters) {
		l := s.limiters[name]
		w.Gauge("hpclog_http_in_flight", "Requests currently executing per limiter class.",
			float64(l.inflight.Load()), "route", name)
		w.Gauge("hpclog_http_in_flight_limit", "Configured in-flight cap per limiter class (0 = unlimited).",
			float64(l.max), "route", name)
		w.Counter("hpclog_http_requests_total", "Requests admitted per limiter class.",
			l.total.Load(), "route", name)
		w.Counter("hpclog_http_rejected_total", "Requests rejected with 429 per limiter class.",
			l.rejected.Load(), "route", name)
	}
}

func (s *Server) collectWatchMetrics(w *obs.Writer) {
	h := s.hub
	w.Gauge("hpclog_watch_subscribers", "Live watch subscribers.", float64(h.subscribers.Load()))
	w.Counter("hpclog_watch_delivered_total", "Events delivered to watch subscribers.", h.delivered.Load())
	w.Counter("hpclog_watch_wakeups_total", "Subscriber wakeups signalled by shard dispatchers.", h.wakeups.Load())
	w.Counter("hpclog_watch_coalesced_total", "Write digests coalesced into an already-pending dispatch.", h.coalesced.Load())
	w.Counter("hpclog_watch_tail_hits_total", "Subscriber wakes served entirely from the shard tail ring.", h.tailHits.Load())
	w.Counter("hpclog_watch_tail_misses_total", "Subscriber wakes that fell back to a stability-window scan.", h.tailMisses.Load())
	shards := h.shardCounts()
	for _, typ := range obs.SortedKeys(shards) {
		w.Gauge("hpclog_watch_shard_subscribers", "Live subscribers per event-type shard.",
			float64(shards[typ]), "type", typ)
	}
}

func (s *Server) collectTraceMetrics(w *obs.Writer) {
	w.Counter("hpclog_trace_requests_total", "Requests traced (root spans started).", int64(s.tracer.StartedCount()))
	w.Counter("hpclog_trace_slow_total", "Traces that exceeded the slow-query threshold.", int64(s.tracer.SlowCount()))
	w.Gauge("hpclog_trace_slow_threshold_seconds", "Configured slow-query threshold.",
		s.tracer.Threshold().Seconds())
}

func (s *Server) collectStoreMetrics(w *obs.Writer) {
	w.Gauge("hpclog_store_memtable_rows", "Rows buffered in memtables (unflushed write volume).",
		float64(s.db.MemtableRows()))
	st := s.db.StorageStats()
	const scansHelp = "Batch partition scans by read path: disjoint inputs chained off the block decoder, or overlapping inputs merged."
	w.Counter("hpclog_store_partition_scans_total", scansHelp, st.ChainedScans, "path", "chained")
	w.Counter("hpclog_store_partition_scans_total", scansHelp, st.MergedScans, "path", "merged")
	const putsHelp = "Batches taken by memtables by write path: appended in key order past the last key, or sorted and merged in."
	w.Counter("hpclog_store_memtable_puts_total", putsHelp, st.AppendPuts, "path", "append")
	w.Counter("hpclog_store_memtable_puts_total", putsHelp, st.MergePuts, "path", "merge")
	w.Counter("hpclog_wal_appends_total", "Commitlog record appends.", st.WALAppends)
	w.Counter("hpclog_wal_syncs_total", "Commitlog fsync batches (group commit).", st.WALSyncs)
	w.Counter("hpclog_wal_rotations_total", "Commitlog segment rotations.", st.WALRotations)
	w.Counter("hpclog_wal_bytes_written_total", "Bytes appended to the commitlog.", st.WALBytes)
	w.Gauge("hpclog_wal_segments", "Live commitlog segments on disk.", float64(st.WALSegments))
	w.Counter("hpclog_wal_truncated_segments_total", "Commitlog segments truncated after flush.", st.WALTruncatedSegments)
	w.Counter("hpclog_wal_torn_bytes_total", "Bytes discarded from torn commitlog tails at recovery.", st.TornBytes)
	w.Hist("hpclog_wal_fsync_seconds", "Commitlog fsync latency (group commit and rotation).", s.db.WALFsyncHist())
	w.Counter("hpclog_store_flushes_total", "Memtable flushes to disk segments.", st.Flushes)
	w.Counter("hpclog_store_flush_rounds_total", "Flush rounds (one durability barrier each, any number of segments).", st.FlushRounds)
	w.Counter("hpclog_store_flushed_rows_total", "Rows flushed from memtables.", st.FlushedRows)
	w.Counter("hpclog_store_compactions_total", "Partition compaction passes.", st.Compactions)
	w.Counter("hpclog_store_compacted_segments_total", "Segments merged by compaction.", st.CompactedSegments)
	w.Counter("hpclog_store_compacted_rows_total", "Rows rewritten by compaction.", st.CompactedRows)
	w.Gauge("hpclog_store_disk_segments", "Live on-disk data segments.", float64(st.DiskSegments))
	w.Gauge("hpclog_store_disk_bytes", "On-disk data footprint.", float64(st.DiskBytes))
	w.Counter("hpclog_store_replayed_records_total", "Commitlog records replayed at startup.", st.ReplayedRecords)
	w.Counter("hpclog_store_replayed_rows_total", "Rows recovered from the commitlog at startup.", st.ReplayedRows)
	w.Counter("hpclog_store_maintenance_errors_total", "Failed flush/compaction/truncation/tiering passes.", st.MaintenanceErrors)
	flush, compact, sweep := s.db.RoundHists()
	w.Hist("hpclog_store_flush_round_seconds", "Duration of a node's flush round (encode, barrier, publish).", flush)
	w.Hist("hpclog_store_compact_round_seconds", "Duration of a node's compaction round (merge, barrier, retire).", compact)
	if tier := s.db.Tier(); tier != nil {
		ts := tier.Snapshot()
		w.Gauge("hpclog_tier_segments", "Segments whose data lives in the object tier.", float64(st.TieredSegments))
		w.Gauge("hpclog_tier_bytes", "Logical bytes evicted to the object tier.", float64(st.TieredBytes))
		w.Counter("hpclog_tier_uploads_total", "Segments uploaded to the object store (read-back verified).", ts.Uploads)
		w.Counter("hpclog_tier_uploaded_bytes_total", "Bytes uploaded to the object store.", ts.UploadedBytes)
		w.Counter("hpclog_tier_evictions_total", "Local segment data files released after upload.", ts.Evictions)
		w.Counter("hpclog_tier_fetched_blocks_total", "Blocks fetched from the object store on evicted reads.", ts.FetchedBlocks)
		w.Counter("hpclog_tier_fetched_bytes_total", "Bytes fetched from the object store on evicted reads.", ts.FetchedBytes)
		w.Counter("hpclog_tier_verify_failures_total", "Merkle/read-back verification failures (corrupt fetches rejected).", ts.VerifyFailures)
		w.Counter("hpclog_tier_cache_hits_total", "Block-cache hits on evicted reads.", int64(ts.CacheHits))
		w.Counter("hpclog_tier_cache_misses_total", "Block-cache misses on evicted reads.", int64(ts.CacheMisses))
		w.Gauge("hpclog_tier_cache_bytes", "Bytes resident in the block cache.", float64(ts.CacheUsed))
		w.Gauge("hpclog_tier_cache_capacity_bytes", "Block-cache budget in bytes.", float64(ts.CacheBudget))
		w.Hist("hpclog_tier_fetch_seconds", "Object-store block fetch latency (including verification).", &tier.FetchHist)
		w.Hist("hpclog_tier_sweep_seconds", "Duration of a node's tier sweep (upload, verify, record, evict).", sweep)
	}
}

func (s *Server) collectComputeMetrics(w *obs.Writer) {
	cs := s.eng.Stats()
	w.Counter("hpclog_compute_scan_tasks_total", "Partition scan tasks executed by the scan planner.", int64(cs.ScanTasks))
	w.Counter("hpclog_compute_scan_rows_total", "Rows streamed through the scan planner.", int64(cs.ScanRows))
	w.Counter("hpclog_store_blocks_read_total", "Segment blocks decoded by pruned scans.", int64(cs.BlocksRead))
	w.Counter("hpclog_store_blocks_pruned_total", "Segment blocks skipped via zone maps and Bloom filters.", int64(cs.BlocksPruned))
	w.Counter("hpclog_compute_blocks_taken_total", "Segment blocks count folds answered from their footers, never read.", int64(cs.BlocksTaken))
}

func (s *Server) collectQueryMetrics(w *obs.Writer) {
	qs := s.q.Stats()
	w.Counter("hpclog_query_simple_total", "Queries served directly from the store.", qs.Simple)
	w.Counter("hpclog_query_bigdata_total", "Queries routed to the big data processing unit.", qs.BigData)
	cs := s.q.CacheStats()
	w.Gauge("hpclog_query_cache_entries", "Live result-cache entries.", float64(cs.Size))
	w.Gauge("hpclog_query_cache_capacity", "Result-cache capacity in entries.", float64(cs.Capacity))
	w.Counter("hpclog_query_cache_hits_total", "Result-cache hits.", cs.Hits)
	w.Counter("hpclog_query_cache_misses_total", "Result-cache misses.", cs.Misses)
	w.Counter("hpclog_query_cache_invalidations_total", "Result-cache invalidations.", cs.Invalidations)
	ops := s.q.Metrics()
	for _, op := range obs.SortedKeys(ops) {
		m := ops[op]
		w.Counter("hpclog_query_ops_total", "Queries executed per operation.", m.Count, "op", op)
		w.CounterSeconds("hpclog_query_op_seconds_total", "Cumulative execution time per operation.",
			time.Duration(m.TotalMicros)*time.Microsecond, "op", op)
		w.Counter("hpclog_query_op_cache_hits_total", "Result-cache hits per operation.", m.CacheHits, "op", op)
	}
}
