package store

import (
	"context"
	"fmt"

	"hpclog/internal/store/persist"
)

// RowIter streams rows of one partition in clustering-key order. It is the
// streaming counterpart of Get: rows are produced on demand from a
// point-in-time snapshot of the partition — straight off the immutable
// on-disk segment files — so a scan never materializes the whole
// partition and never blocks concurrent writers.
//
// Iterators are not safe for concurrent use; each goroutine of a parallel
// scan should open its own. RowIter is an alias of persist.Iterator so the
// storage and persistence layers share one streaming contract.
type RowIter = persist.Iterator

// NewSliceIter wraps an already-materialized, sorted row slice in a
// RowIter. Used for the Quorum/All fallback and by tests.
func NewSliceIter(rows []Row) RowIter { return persist.NewSliceIter(rows) }

// scan streams one partition of this node: the last-write-wins merge of
// the point-in-time snapshot snapshotRows captures, with block pruning
// when pc is set.
func (n *Node) scan(_ context.Context, tableName, pkey string, rg Range, pc *pruneCfg) (RowIter, error) {
	p := n.partition(tableName, pkey)
	if p == nil {
		return NewSliceIter(nil), nil
	}
	return p.snapshotRows(rg, pc)
}

// Scan streams this node's rows of one partition within the clustering
// range, unpruned.
func (n *Node) Scan(ctx context.Context, tableName, pkey string, rg Range) (RowIter, error) {
	return n.scan(ctx, tableName, pkey, rg, nil)
}

// batches opens one partition of this node as a batch scan, chained off
// the block decoder when the snapshot's inputs are disjoint and through
// the last-write-wins merge otherwise.
func (n *Node) batches(_ context.Context, tableName, pkey string, rg Range, project []uint32, sel *persist.Match, pc *pruneCfg) (BatchIterator, error) {
	p := n.partition(tableName, pkey)
	if p == nil {
		return persist.Concat(nil), nil
	}
	it, chained, err := p.snapshotBatches(rg, pc, project, sel)
	if err != nil {
		return nil, err
	}
	if chained {
		n.chainedScans.Add(1)
	} else {
		n.mergedScans.Add(1)
	}
	return it, nil
}

// Pruner is re-exported from the persistence layer: a block-statistics
// predicate that lets scans skip segment blocks, or a fold that takes
// them whole from their statistics (see persist.Pruner).
type Pruner = persist.Pruner

// Taker is re-exported from the persistence layer (see persist.Taker).
type Taker = persist.Taker

// Match is re-exported from the persistence layer: the selection column =
// value, which PartitionBatches selects rows by and which, as a Pruner,
// skips blocks (see persist.Match).
type Match = persist.Match

// NewMatch returns the selection of the rows whose cell of column name is
// value (see persist.NewMatch).
func NewMatch(name, value string) *Match { return persist.NewMatch(name, value) }

// BlockStats is re-exported from the persistence layer: the footer
// statistics of one segment block, what a Pruner decides on.
type BlockStats = persist.BlockStats

// PruneStats is re-exported from the persistence layer: block read/prune
// counters accumulated across one scan's iterators.
type PruneStats = persist.PruneStats

// ScanPartitionPruned opens a streaming row scan over one partition's rows
// within the clustering range. At consistency One it streams a snapshot
// of the first live replica — pruned by each file's footer key range and
// decoded lazily off disk, segment blocks whose zone maps and Bloom
// filters prove that no row can satisfy pr skipped before
// they are read (pruning is conservative: the stream is always every row
// in range, and blocks whose keys may collide with other merge inputs are
// read regardless, preserving last-write-wins reconciliation); stats, when
// non-nil, receives the block counters. A remote shard streams over the
// wire unpruned. Quorum/All need cross-replica reconciliation and read
// repair, so they stream the rows of Get.
//
// Read cells through Row.Col/ColID/Cols. Rows share storage with the
// store and must be treated as read-only.
func (db *DB) ScanPartitionPruned(tableName, pkey string, rg Range, cl Consistency, pr Pruner, stats *PruneStats) (RowIter, error) {
	if cl != One {
		rows, err := db.Get(tableName, pkey, rg, cl)
		if err != nil {
			return nil, err
		}
		return NewSliceIter(rows), nil
	}
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return nil, err
	}
	return tgt.scan(context.Background(), tableName, pkey, rg, newPruneCfg(pr, stats))
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

// BatchIterator is re-exported from the persistence layer: a pull scan of
// one partition as batches (see persist.BatchIterator).
type BatchIterator = persist.BatchIterator

// MaxBatchRows is the most rows a Batch holds.
const MaxBatchRows = persist.MaxBatchRows

// PartitionBatches opens a scan of the partition's rows within rg, in
// clustering-key order, as batches that carry the clustering keys, the
// write timestamps and the projected columns (dictionary IDs; nil = every
// column). At consistency One it reads the first live replica and yields
// exactly the rows and cells ScanPartitionPruned would: disjoint snapshot
// inputs are chained off the segment block decoder without a merge,
// overlapping ones go through the last-write-wins merge, and a remote
// shard's row stream is re-batched. Above One it re-batches the
// reconciled, read-repaired rows of GetCtx. With sel set, on every path
// the batches carry only the rows it matches; pr only skips blocks, so a
// read that selects by sel and wants its blocks skipped passes it as pr
// too. A batch and every string in it is valid only until the next Next;
// the caller closes the iterator.
func (db *DB) PartitionBatches(ctx context.Context, tableName, pkey string, rg Range, cl Consistency, project []uint32, sel *Match, pr Pruner, stats *PruneStats) (BatchIterator, error) {
	if cl != One {
		rows, err := db.GetCtx(ctx, tableName, pkey, rg, cl)
		if err != nil {
			return nil, err
		}
		return persist.BatchRows(NewSliceIter(rows), project, sel), nil
	}
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return nil, err
	}
	return tgt.batches(ctx, tableName, pkey, rg, project, sel, newPruneCfg(pr, stats))
}

// ScanPartitionBatches drains PartitionBatches at consistency One into fn,
// batch by batch; fn's error stops the scan and is returned.
func (db *DB) ScanPartitionBatches(ctx context.Context, tableName, pkey string, rg Range, project []uint32, pr Pruner, stats *PruneStats, fn func(*Batch) error) error {
	it, err := db.PartitionBatches(ctx, tableName, pkey, rg, One, project, nil, pr, stats)
	if err != nil {
		return err
	}
	defer it.Close()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		if err := fn(b); err != nil {
			return err
		}
	}
	return it.Err()
}

// PartitionKeyBoundsCtx returns the smallest and largest clustering key of
// one partition on the first live replica, without scanning (memtable
// ends and segment footers). ok is false when the partition is empty or
// unknown. The query planner uses it to slice a partition scan into
// parallel clustering-range tasks.
func (db *DB) PartitionKeyBoundsCtx(ctx context.Context, tableName, pkey string) (min, max string, ok bool, err error) {
	tgt, err := db.scanTarget(tableName, pkey)
	if err != nil {
		return "", "", false, err
	}
	return tgt.KeyBounds(ctx, tableName, pkey)
}
