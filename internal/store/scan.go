package store

import (
	"context"
	"fmt"

	"hpclog/internal/store/persist"
)

// RowIter streams rows of one partition in clustering-key order. It is the
// streaming counterpart of Get: rows are produced on demand from a
// point-in-time snapshot of the partition — on durable nodes straight off
// the immutable on-disk segment files — so a scan never materializes the
// whole partition and never blocks concurrent writers.
//
// Iterators are not safe for concurrent use; each goroutine of a parallel
// scan should open its own. RowIter is an alias of persist.Iterator so the
// storage and persistence layers share one streaming contract.
type RowIter = persist.Iterator

// NewSliceIter wraps an already-materialized, sorted row slice in a
// RowIter. Used for the Quorum/All fallback and by tests.
func NewSliceIter(rows []Row) RowIter { return persist.NewSliceIter(rows) }

// ScanPartition opens a streaming scan over one partition's rows within
// the clustering range. At consistency One the scan streams from a
// snapshot of the first live replica — the fast path the partition-parallel
// query planner uses. On durable nodes the snapshot's segment inputs are
// pruned by each file's footer key range and decoded lazily off disk.
// Quorum/All scans require cross-replica reconciliation and read repair,
// which need the materialized row set, so they fall back to Get and stream
// the reconciled result.
//
// Yielded rows are in the compact interned-column representation (their
// Columns field is nil): read cells through Row.Col/ColID/Cols or
// materialize with Row.ColumnsMap. Rows share storage with the store and
// must be treated as read-only; on durable nodes their strings alias
// decoded segment blocks, so callers retaining single cells long-term
// should clone them.
func (db *DB) ScanPartition(tableName, pkey string, rg Range, cl Consistency) (RowIter, error) {
	return db.ScanPartitionPrunedCtx(context.Background(), tableName, pkey, rg, cl, nil, nil)
}

// scanPartitionPruned streams one partition of this node: a lazy
// last-write-wins k-way merge over the point-in-time snapshot captured by
// snapshotIters, with block pruning when pc is set.
func (n *Node) scanPartitionPruned(tableName, pkey string, rg Range, pc *pruneCfg) (RowIter, error) {
	t, err := n.table(tableName)
	if err != nil {
		return nil, err
	}
	p := t.partition(pkey, false)
	if p == nil {
		return NewSliceIter(nil), nil
	}
	its, err := p.snapshotIters(rg, pc)
	if err != nil {
		return nil, err
	}
	return persist.MergeIters(its), nil
}

// scanPartitionBatches streams one partition of this node to fn as
// batches, chained off the block decoder when the snapshot's inputs are
// disjoint and through the last-write-wins merge otherwise.
func (n *Node) scanPartitionBatches(tableName, pkey string, rg Range, project []uint32, pc *pruneCfg, fn func(*Batch) error) error {
	t, err := n.table(tableName)
	if err != nil {
		return err
	}
	p := t.partition(pkey, false)
	if p == nil {
		return nil
	}
	srcs, chained, err := p.snapshotBatches(rg, pc, project)
	if err != nil {
		return err
	}
	if chained {
		n.chainedScans.Add(1)
	} else {
		n.mergedScans.Add(1)
	}
	return drainBatches(srcs, fn)
}

// drainBatches feeds every batch of srcs, in order, to fn and closes them.
func drainBatches(srcs []persist.BatchIterator, fn func(*Batch) error) error {
	defer closeBatches(srcs)
	for _, src := range srcs {
		for {
			b, ok := src.Next()
			if !ok {
				break
			}
			if err := fn(b); err != nil {
				return err
			}
		}
		if err := src.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Pruner is re-exported from the persistence layer: a block-statistics
// predicate that lets scans skip segment blocks (see persist.Pruner).
type Pruner = persist.Pruner

// PruneStats is re-exported from the persistence layer: block read/prune
// counters accumulated across one scan's iterators.
type PruneStats = persist.PruneStats

// ScanPartitionPruned is ScanPartition with storage-level predicate
// pushdown: on durable nodes, segment blocks whose zone maps and Bloom
// filters prove that no row can satisfy the pruner's predicate are
// skipped before they are read or decoded. Pruning is best-effort and
// conservative — the result stream is always exactly the rows
// ScanPartition would yield (callers still filter row-by-row); blocks
// whose keys may collide with other merge inputs are scanned regardless,
// preserving last-write-wins reconciliation. stats, when non-nil,
// receives the block counters. At consistency levels above One the call
// falls back to the reconciling ScanPartition path unpruned.
func (db *DB) ScanPartitionPruned(tableName, pkey string, rg Range, cl Consistency, pr Pruner, stats *PruneStats) (RowIter, error) {
	return db.ScanPartitionPrunedCtx(context.Background(), tableName, pkey, rg, cl, pr, stats)
}

// ScanPartitionPrunedCtx is ScanPartitionPruned under the caller's
// context: a remote shard scan derives its RPC deadline from ctx and
// forwards its request ID, so the scatter half of a distributed query
// traces under the coordinator's ID on the peer.
func (db *DB) ScanPartitionPrunedCtx(ctx context.Context, tableName, pkey string, rg Range, cl Consistency, pr Pruner, stats *PruneStats) (RowIter, error) {
	if cl != One {
		if !db.HasTable(tableName) {
			return nil, fmt.Errorf("store: no such table %q", tableName)
		}
		rows, err := db.GetCtx(ctx, tableName, pkey, rg, cl)
		if err != nil {
			return nil, err
		}
		return NewSliceIter(rows), nil
	}
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return nil, err
	}
	if tgt.n != nil {
		return tgt.n.scanPartitionPruned(tableName, pkey, rg, newPruneCfg(pr, stats))
	}
	// Remote shard: stream over the wire. Block pruning is not pushed
	// down (the remote scans its own segments); callers filter row-by-row
	// regardless, so the result stream is identical.
	return tgt.r.Scan(ctx, tableName, pkey, rg)
}

// scanTarget picks the replica a consistency-One scan of the partition
// reads: the first live one, locals first.
func (db *DB) scanTarget(tableName, pkey string) (replicaTarget, error) {
	if !db.HasTable(tableName) {
		return replicaTarget{}, fmt.Errorf("store: no such table %q", tableName)
	}
	live, _ := db.liveTargets(db.ring.Replicas(pkey))
	if len(live) == 0 {
		return replicaTarget{}, fmt.Errorf("%w: table %s partition %s needs 1, have 0 live",
			ErrUnavailable, tableName, pkey)
	}
	return live[0], nil
}

// Batch is re-exported from the persistence layer: a run of rows in vector
// form, valid only until the scan produces the next one (see
// persist.Batch).
type Batch = persist.Batch

// MaxBatchRows is the most rows a Batch holds.
const MaxBatchRows = persist.MaxBatchRows

// ScanPartitionBatches streams the partition's rows within rg, in
// clustering-key order, to fn as batches that carry the clustering keys,
// the write timestamps and the projected columns (dictionary IDs; nil =
// every column). It reads one live replica, like ScanPartition at
// consistency One, and yields exactly the rows and cells
// ScanPartitionPruned would: disjoint snapshot inputs are chained off the
// segment block decoder without a merge, overlapping ones go through the
// last-write-wins merge. A batch and every string in it is valid only
// until fn returns; fn's error stops the scan and is returned.
func (db *DB) ScanPartitionBatches(ctx context.Context, tableName, pkey string, rg Range, project []uint32, pr Pruner, stats *PruneStats, fn func(*Batch) error) error {
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return err
	}
	if tgt.n != nil {
		return tgt.n.scanPartitionBatches(tableName, pkey, rg, project, newPruneCfg(pr, stats), fn)
	}
	// Remote shard: the wire carries rows; re-batch them.
	it, err := tgt.r.Scan(ctx, tableName, pkey, rg)
	if err != nil {
		return err
	}
	return drainBatches([]persist.BatchIterator{persist.BatchRows(it, project)}, fn)
}

// PartitionKeyBounds returns the smallest and largest clustering key of
// one partition on the first live replica, without scanning (memtable
// ends and segment footers). ok is false when the partition is empty or
// unknown. The query planner uses it to slice a partition scan into
// parallel clustering-range tasks.
func (db *DB) PartitionKeyBounds(tableName, pkey string) (min, max string, ok bool, err error) {
	return db.PartitionKeyBoundsCtx(context.Background(), tableName, pkey)
}

// PartitionKeyBoundsCtx is PartitionKeyBounds under the caller's context.
func (db *DB) PartitionKeyBoundsCtx(ctx context.Context, tableName, pkey string) (min, max string, ok bool, err error) {
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return "", "", false, err
	}
	if tgt.n != nil {
		t, terr := tgt.n.table(tableName)
		if terr != nil {
			return "", "", false, terr
		}
		p := t.partition(pkey, false)
		if p == nil {
			return "", "", false, nil
		}
		min, max, ok = p.keyBounds()
		return min, max, ok, nil
	}
	return tgt.r.KeyBounds(ctx, tableName, pkey)
}
