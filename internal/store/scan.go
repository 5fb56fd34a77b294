package store

import (
	"context"
	"fmt"

	"hpclog/internal/store/persist"
)

// RowIter streams rows of one partition in clustering-key order: a remote
// shard's stream (Remote.Scan) and ScanPartitionPruned's. Iterators are
// not safe for concurrent use. RowIter is an alias of persist.Iterator so
// the storage and persistence layers share one streaming contract.
type RowIter = persist.Iterator

// batches opens one partition of this node as an unpruned, unprojected
// batch scan of a point-in-time snapshot, chained off the block decoder
// when its inputs are disjoint and through the last-write-wins merge
// otherwise.
func (n *Node) batches(_ context.Context, tableName, pkey string, rg Range, owned bool) (BatchIterator, error) {
	return n.open(tableName, pkey, rg, nil, nil, nil, owned, false)
}

// open is batches under a projection, a selection and a pruner; with
// count set it counts the scan by the path its snapshot took, as
// PartitionBatches does for the aggregation read.
func (n *Node) open(tableName, pkey string, rg Range, project []uint32, sel *persist.Match, pc *pruneCfg, owned, count bool) (BatchIterator, error) {
	p := n.partition(tableName, pkey)
	if p == nil {
		return persist.Concat(nil), nil
	}
	var it BatchIterator
	var chained bool
	err := p.snapshot(rg, pc, func(in mergeInputs) (err error) {
		it, chained, err = in.openBatches(rg, project, sel, owned)
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case !count:
	case chained:
		n.chainedScans.Add(1)
	default:
		n.mergedScans.Add(1)
	}
	return it, nil
}

// Batches streams this node's rows of one partition within the clustering
// range as unprojected batches, valid until the next Next (the
// /v1/shard/scan route serves it).
func (n *Node) Batches(ctx context.Context, tableName, pkey string, rg Range) (BatchIterator, error) {
	return n.batches(ctx, tableName, pkey, rg, false)
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

// ScanPartitionPruned streams one partition's rows within rg off the first
// live replica, at consistency One only: a local snapshot with every input
// through the last-write-wins merge, skipping the blocks whose zone maps
// and Bloom filters prove no row can satisfy pr and no other input shadows
// (stats, when non-nil, counts them), or a remote shard's stream. It is the
// row oracle of the batch path, and a bench adapter: 1a-scale deletes it.
//
// Read cells through Row.Col/ColID/Cols. Rows share storage with the
// store and must be treated as read-only.
func (db *DB) ScanPartitionPruned(tableName, pkey string, rg Range, cl Consistency, pr Pruner, stats *PruneStats) (RowIter, error) {
	if cl != One {
		return nil, fmt.Errorf("store: ScanPartitionPruned reads at consistency One, not %v", cl)
	}
	live, _, err := db.readTargets(tableName, pkey, One)
	if err != nil {
		return nil, err
	}
	n, ok := live[0].replica.(*Node)
	if !ok {
		return live[0].replica.(wireReplica).Scan(context.Background(), tableName, pkey, rg)
	}
	p := n.partition(tableName, pkey)
	if p == nil {
		return persist.MergeRows(rg, nil, nil, nil)
	}
	var it RowIter
	err = p.snapshot(rg, newPruneCfg(pr, stats), func(in mergeInputs) (err error) {
		it, err = persist.MergeRows(rg, in.segs, in.cfgs, in.runs)
		return err
	})
	return it, err
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
// column). At consistency One a local first live replica is read alone:
// disjoint snapshot inputs are chained off the segment block decoder
// without a merge, overlapping ones go through the last-write-wins merge,
// and the scan counts in StorageStats' ChainedScans or MergedScans.
// Otherwise it is the reconciling read: the required live replicas'
// streams, locals first and unpruned, through the one merge, a failed one
// substituted and stale ones read-repaired as it goes; it holds a few
// batches a replica, not the range. With sel set, on every path the
// batches carry only the rows it matches; pr only skips blocks, and only
// in a local read at One, so a read that selects by sel and wants its
// blocks skipped passes it as pr too. A batch and every string in it is
// valid only until the next Next; the caller closes the iterator.
func (db *DB) PartitionBatches(ctx context.Context, tableName, pkey string, rg Range, cl Consistency, project []uint32, sel *Match, pr Pruner, stats *PruneStats) (BatchIterator, error) {
	live, need, err := db.readTargets(tableName, pkey, cl)
	if err != nil {
		return nil, err
	}
	if n, ok := live[0].replica.(*Node); ok && cl == One {
		return n.open(tableName, pkey, rg, project, sel, newPruneCfg(pr, stats), false, true)
	}
	r, err := db.reconcile(ctx, tableName, pkey, rg, live, need, project, sel, true)
	if err != nil {
		return nil, err
	}
	return r, nil
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
	live, _, err := db.readTargets(tableName, pkey, One)
	if err != nil {
		return "", "", false, err
	}
	return live[0].KeyBounds(ctx, tableName, pkey)
}
