package store

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
)

// compactorLoop is the background maintenance goroutine: on every tick it
// merges overflowing on-disk segments and truncates commitlog segments
// made obsolete by flushes.
func (db *DB) compactorLoop() {
	defer close(db.compactDone)
	t := time.NewTicker(db.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-db.compactStop:
			return
		case <-t.C:
			if _, err := db.maintain(db.cfg.MaxSegments); err != nil {
				// maintain already counted the failure (surfaced through
				// StorageStats / /v1/metrics); the log line adds the error
				// text monitoring counters cannot carry.
				if db.cfg.Logger != nil {
					db.cfg.Logger.Error("store: compaction maintenance failed", "err", err)
				}
			}
		}
	}
}

// eachNode runs fn on every local node concurrently — each owns its own
// directory, commitlog, manifest and object prefix — and joins the
// per-node errors, so one node's failure stops no other node.
func (db *DB) eachNode(fn func(n *Node) error) error {
	return fsys.Parallel(len(db.nodes), len(db.nodes), func(i int) error { return fn(db.nodes[i]) })
}

// maintain runs one compaction + commitlog-truncation + tiering pass,
// every node at once. Per-node failures are joined rather than aborting
// the pass — a broken object-store endpoint must not stop other nodes
// from compacting — and every failed pass increments MaintenanceErrors,
// whether it came from the background compactor or an explicit Compact
// call.
func (db *DB) maintain(threshold int) (int, error) {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	var total atomic.Int64
	err := db.eachNode(func(n *Node) error {
		c, err := n.persist.CompactOverflow(threshold)
		total.Add(int64(c))
		errs := []error{err}
		if _, err := n.truncateWAL(); err != nil {
			errs = append(errs, err)
		}
		if db.tier != nil {
			if _, _, err := n.persist.TierSweep(context.Background(), false); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	})
	if total.Load() > 0 {
		db.bumpGeneration()
	}
	if err != nil {
		db.maintErrors.Add(1)
	}
	return int(total.Load()), err
}

// TierSweep flushes memtables and uploads+evicts segments to the object
// tier across every local node. force widens the sweep from the cold set
// (everything but each partition's newest segment) to every eligible
// segment — the operator trigger behind POST /v1/storage/tier. Failures
// count as maintenance errors. A no-op without a configured tier.
func (db *DB) TierSweep(force bool) (uploaded, evicted int, err error) {
	if db.tier == nil {
		return 0, 0, nil
	}
	if err := db.Flush(); err != nil {
		return 0, 0, err // Flush counted it
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	var up, ev atomic.Int64
	err = db.eachNode(func(n *Node) error {
		u, e, err := n.persist.TierSweep(context.Background(), force)
		up.Add(int64(u))
		ev.Add(int64(e))
		return err
	})
	if err != nil {
		db.maintErrors.Add(1)
	}
	return int(up.Load()), int(ev.Load()), err
}

// Tier returns the object-storage tier, or nil when tiering is off. The
// metrics handler reads its counters and fetch-latency histogram.
func (db *DB) Tier() *objstore.Tier { return db.tier }

// SegmentListing is one node's segment inventory for the wire surface.
type SegmentListing struct {
	Node     string                `json:"node"`
	Segments []persist.SegmentInfo `json:"segments"`
}

// SegmentInfos lists every local node's on-disk segments — sequence, key
// range, Merkle root, and tier placement — ordered by node id.
func (db *DB) SegmentInfos() []SegmentListing {
	out := make([]SegmentListing, len(db.nodes))
	for i, n := range db.nodes {
		out[i] = SegmentListing{Node: n.id, Segments: n.persist.SegmentInfos()}
	}
	return out
}

// Flush forces every dirty memtable onto disk — one flush round per
// node, all nodes at once — and truncates the commitlog accordingly. A
// node's failure is joined into the returned error, counts once as a
// maintenance error, and leaves the other nodes flushed.
func (db *DB) Flush() error {
	err := db.eachNode(func(n *Node) error {
		if err := n.flushAll(); err != nil {
			return err
		}
		// Seal the active commitlog segment so the flush acts as a full
		// checkpoint: with every memtable clean, truncation can then
		// retire the entire log and the next open replays ~nothing.
		if err := n.wal.Rotate(); err != nil {
			return err
		}
		_, err := n.truncateWAL()
		return err
	})
	if err != nil {
		db.maintErrors.Add(1)
	}
	return err
}

// Compact merges every multi-segment partition down to one on-disk
// segment per partition (after flushing memtables), and truncates the
// commitlog. Returns the number of partitions compacted.
func (db *DB) Compact() (int, error) {
	if err := db.Flush(); err != nil {
		return 0, err // Flush counted it
	}
	return db.maintain(1)
}

// Close stops the background compactor and closes every node's commitlog
// and segment store. The memtables are not flushed: recovery replays the
// commitlog, so a clean close and a crash recover identically. Idempotent.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.compactStop != nil {
		close(db.compactStop)
		<-db.compactDone
	}
	return db.closeNodes()
}

// StorageStats aggregates the storage engine's counters across all local
// nodes: commitlog activity, memtable flushes, compaction work, recovery
// replay, and the current on-disk footprint.
type StorageStats struct {
	Dir string `json:"dir,omitempty"`

	WALAppends           int64 `json:"wal_appends"`
	WALSyncs             int64 `json:"wal_syncs"`
	WALRotations         int64 `json:"wal_rotations"`
	WALBytes             int64 `json:"wal_bytes"`
	WALSegments          int64 `json:"wal_segments"`
	WALTruncatedSegments int64 `json:"wal_truncated_segments"`

	Flushes           int64 `json:"flushes"`      // segments written by flushes
	FlushRounds       int64 `json:"flush_rounds"` // flush rounds, one durability barrier each
	FlushedRows       int64 `json:"flushed_rows"`
	Compactions       int64 `json:"compactions"`
	CompactedSegments int64 `json:"compacted_segments"`
	CompactedRows     int64 `json:"compacted_rows"`
	DiskSegments      int64 `json:"disk_segments"`
	DiskFiles         int64 `json:"disk_files"` // data files and footer stubs holding the segments
	DiskBytes         int64 `json:"disk_bytes"`

	// TieredSegments/TieredBytes count segments whose data lives in the
	// object tier (logical bytes); Tier carries the tier's own counters
	// (uploads, fetches, cache hit rate, verify failures) when tiering is
	// configured.
	TieredSegments int64           `json:"tiered_segments,omitempty"`
	TieredBytes    int64           `json:"tiered_bytes,omitempty"`
	Tier           *objstore.Stats `json:"tier,omitempty"`

	ReplayedRecords int64 `json:"replayed_records"`
	ReplayedRows    int64 `json:"replayed_rows"`
	TornBytes       int64 `json:"torn_bytes"`

	// MaintenanceErrors counts failed background compaction/truncation
	// passes — nonzero means the disk is misbehaving.
	MaintenanceErrors int64 `json:"maintenance_errors"`

	// ChainedScans and MergedScans count the batch partition scans (the
	// aggregation read path) of the local nodes by the path their snapshot
	// took: disjoint inputs chained off the block decoder, or overlapping
	// inputs through the last-write-wins merge.
	ChainedScans int64 `json:"partition_scans_chained"`
	MergedScans  int64 `json:"partition_scans_merged"`

	// AppendPuts and MergePuts count the batches the local nodes' memtables
	// took by write path: appended past the memtable's last key, or sorted
	// and merged into it. A writer whose batches arrive in key order stays
	// on the append path.
	AppendPuts int64 `json:"memtable_puts_append"`
	MergePuts  int64 `json:"memtable_puts_merge"`
}

// StorageStats returns a snapshot of the storage engine's counters.
func (db *DB) StorageStats() StorageStats {
	st := StorageStats{
		Dir:               db.cfg.Dir,
		ReplayedRecords:   db.replayStats.Records,
		ReplayedRows:      db.replayStats.Rows,
		MaintenanceErrors: db.maintErrors.Load(),
	}
	for _, n := range db.nodes {
		st.ChainedScans += n.chainedScans.Load()
		st.MergedScans += n.mergedScans.Load()
		st.AppendPuts += n.appendPuts.Load()
		st.MergePuts += n.mergePuts.Load()
		ws := n.wal.Stats()
		st.WALAppends += ws.Appends
		st.WALSyncs += ws.Syncs
		st.WALRotations += ws.Rotations
		st.WALBytes += ws.BytesWritten
		st.WALSegments += ws.Segments
		st.WALTruncatedSegments += ws.TruncatedSegments
		st.TornBytes += ws.TornBytes
		ps := n.persist.Stats()
		st.Flushes += ps.Flushes
		st.FlushRounds += ps.FlushRounds
		st.FlushedRows += ps.FlushedRows
		st.Compactions += ps.Compactions
		st.CompactedSegments += ps.CompactedSegments
		st.CompactedRows += ps.CompactedRows
		st.DiskSegments += ps.Segments
		st.DiskFiles += ps.Files
		st.DiskBytes += ps.Bytes
		st.TieredSegments += ps.TieredSegments
		st.TieredBytes += ps.TieredBytes
	}
	if db.tier != nil {
		ts := db.tier.Snapshot()
		st.Tier = &ts
	}
	return st
}

// WALFsyncHists returns the local nodes' commitlog fsync-latency
// histograms. The metrics handler merges them into one
// hpclog_wal_fsync_seconds series.
func (db *DB) WALFsyncHists() []*obs.Hist {
	out := make([]*obs.Hist, len(db.nodes))
	for i, n := range db.nodes {
		out[i] = n.wal.FsyncHist()
	}
	return out
}

// RoundHists returns the duration histograms of the background storage
// work, merged across local nodes: flush rounds, compaction rounds and
// tier sweeps.
func (db *DB) RoundHists() (flush, compact, sweep *obs.Hist) {
	flush, compact, sweep = &obs.Hist{}, &obs.Hist{}, &obs.Hist{}
	for _, n := range db.nodes {
		flush.Merge(&n.persist.FlushRoundHist)
		compact.Merge(&n.persist.CompactRoundHist)
		sweep.Merge(&n.persist.SweepHist)
	}
	return flush, compact, sweep
}

// MemtableRows reports the rows currently buffered in memtables across
// all local nodes — the unflushed write volume.
func (db *DB) MemtableRows() int {
	total := 0
	for _, n := range db.nodes {
		total += n.MemtableRows()
	}
	return total
}
