package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"sync"

	"hpclog/internal/fsys"
	"hpclog/internal/obs"
	"hpclog/internal/wal"
)

// commitlog is the process's one commitlog, at <Dir>/wal, shared by every
// local node as a Cassandra node's commitlog is shared by its tables.
// Each put record names the node it is for; a write's in-process replicas
// append their records together and wait for one sync; replay hands each
// record to the node it names; truncation cuts at the oldest segment that
// any node's memtables still need.
type commitlog struct {
	*wal.Log
	// truncMu fences truncation against in-flight applies: an apply holds
	// it shared between the append and the memtable insert, so truncate,
	// which walks the memtables and cuts under it, never misses a record
	// appended but not yet dirty-tracked.
	truncMu sync.RWMutex
	// preds are the directories of the per-node commitlogs of the
	// predecessor layout (node-<id>/wal), replayed at open. Their rows
	// count as records of segment predSeg of the shared log, and truncate
	// removes the directories once no memtable needs such a record.
	// Guarded by predMu, which appends never take.
	predMu   sync.Mutex
	preds    []string
	predSeg  uint64
	predTorn int64 // torn-tail bytes the predecessor logs discarded at open
	// written is a test hook: when set, apply calls it between the
	// commitlog appends and the memtable inserts.
	written func()
}

// walOptions returns the commitlog options cfg selects for the log in dir.
func walOptions(cfg Config, dir string) wal.Options {
	return wal.Options{
		Dir:                 dir,
		SegmentBytes:        cfg.WALSegmentBytes,
		SyncPeriod:          cfg.WALSyncPeriod,
		NoSync:              cfg.WALNoSync,
		TolerateCorruptTail: cfg.WALTolerateCorruptTail,
		Logger:              cfg.Logger,
	}
}

// replay hands every put record of db's commitlogs to the node it names,
// the predecessor logs first: each local node's node-<id>/wal, whose
// untagged records are the node's own. Then the predecessor logs are
// closed, kept for truncate to remove. It returns what it replayed and
// the largest write timestamp of the rows.
func (c *commitlog) replay(db *DB) (st ReplayStats, maxWriteTS int64, err error) {
	// apply hands one record to the node its tag names, or to owner when
	// it has no tag, marked dirty as a record of commitlog segment seg.
	apply := func(owner *Node, payload []byte, seg uint64) error {
		rec, err := decodeWALRecord(payload)
		if err != nil || rec.kind != recPut {
			return err
		}
		n := owner
		if rec.node != "" {
			n = db.Node(rec.node)
		}
		if n == nil {
			return fmt.Errorf("store: commitlog record for member %q, which this process does not host", rec.node)
		}
		for _, r := range rec.rows {
			maxWriteTS = max(maxWriteTS, r.WriteTS)
		}
		st.Records++
		st.Rows += int64(len(rec.rows))
		return n.applyReplayed(rec.table, rec.pkey, rec.rows, seg)
	}
	c.predSeg = c.ActiveSeg()
	for _, n := range db.nodes {
		dir := filepath.Join(db.cfg.Dir, "node-"+n.id, "wal")
		if _, err := fsys.OS.Stat(dir); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		opts := walOptions(db.cfg, dir)
		opts.SyncPeriod = 0 // nothing is appended to it
		pred, err := wal.Open(opts)
		if err != nil {
			return st, maxWriteTS, fmt.Errorf("node %s: %w", n.id, err)
		}
		_, err = pred.Replay(func(_ wal.LSN, payload []byte) error {
			return apply(n, payload, c.predSeg)
		})
		c.predTorn += pred.Stats().TornBytes
		if err = errors.Join(err, pred.Close()); err != nil {
			return st, maxWriteTS, fmt.Errorf("node %s: %w", n.id, err)
		}
		c.preds = append(c.preds, dir)
	}
	_, err = c.Replay(func(lsn wal.LSN, payload []byte) error {
		return apply(nil, payload, lsn.Seg)
	})
	return st, maxWriteTS, err
}

// apply writes one stamped batch to the in-process replicas nodes and
// returns each one's error, in order. A batch of fewer than
// FlushThreshold rows is one commitlog record per node, its node tag
// ahead of encoded — the put record for (tableName, pkey, rows), built
// here when nil — and the records are waited for together: in batch mode
// one fsync covers them all. It records the "wal.append" stage when ctx
// carries a trace. A larger batch is each node's own round
// (Node.applyRound).
func (c *commitlog) apply(ctx context.Context, nodes []*Node, tableName, pkey string, rows []Row, encoded []byte) []error {
	errs := make([]error, len(nodes))
	if len(rows) >= nodes[0].flushThreshold {
		fsys.Parallel(len(nodes), len(nodes), func(i int) error {
			errs[i] = nodes[i].applyRound(ctx, tableName, pkey, rows)
			return nil
		})
		return errs
	}
	if encoded == nil {
		encoded = encodePutRecord(nil, tableName, pkey, rows)
	}
	st := obs.StartSpan(ctx, "wal.append")
	segs := make([]uint64, len(nodes))
	tables := make([]*table, len(nodes))
	var seq int64
	c.truncMu.RLock()
	for i, n := range nodes {
		if tables[i], errs[i] = n.table(tableName); errs[i] != nil {
			continue
		}
		lsn, s, err := c.Write(n.walTag, encoded)
		if err != nil {
			errs[i] = fmt.Errorf("store: node %s: commitlog append: %w", n.id, err)
			continue
		}
		segs[i], seq = lsn.Seg, s
	}
	var werr error
	if seq > 0 {
		werr = c.Wait(seq)
	}
	if c.written != nil {
		c.written()
	}
	full := make([]bool, len(nodes))
	for i, n := range nodes {
		switch {
		case errs[i] != nil:
		case werr != nil:
			errs[i] = fmt.Errorf("store: node %s: commitlog append: %w", n.id, werr)
		default:
			full[i] = tables[i].partition(pkey, true).put(rows, segs[i])
		}
	}
	c.truncMu.RUnlock()
	st.End()
	if slices.Contains(full, true) {
		fsys.Parallel(len(nodes), len(nodes), func(i int) error {
			if full[i] {
				errs[i] = nodes[i].flushFull()
			}
			return nil
		})
	}
	return errs
}

// truncate removes the commitlog segments whose every record has been
// flushed into on-disk segments: everything below the oldest segment
// still referenced by a dirty or flushing memtable of any of nodes (or
// below the active segment when all memtables are clean). It walks the
// memtables under truncMu, so it waits for the applies in flight, which
// hold it shared from append to memtable insert, and new appends wait
// for the walk. The predecessor logs go once no memtable references
// segment predSeg or an older one; their removal holds only predMu.
func (c *commitlog) truncate(nodes []*Node) error {
	c.truncMu.Lock()
	need := uint64(math.MaxUint64)
	for _, n := range nodes {
		need = min(need, n.oldestDirty())
	}
	_, err := c.TruncateBelow(min(c.ActiveSeg(), need))
	c.truncMu.Unlock()
	if err != nil || need <= c.predSeg {
		return err
	}
	c.predMu.Lock()
	defer c.predMu.Unlock()
	for len(c.preds) > 0 {
		if err := removeLog(c.preds[0]); err != nil {
			return err
		}
		c.preds = c.preds[1:]
	}
	return nil
}

// removeLog removes the commitlog directory dir: its segment files, in
// order, and a fsync of dir, so that power loss brings back no gap in
// the sequence; then dir itself, and a fsync of its parent.
func removeLog(dir string) error {
	des, err := fsys.OS.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	paths := make([]string, len(des))
	for i, de := range des {
		paths[i] = filepath.Join(dir, de.Name())
	}
	if err := fsys.Unlink(paths...); err != nil {
		return err
	}
	if err := fsys.OS.Remove(dir); err != nil {
		return err
	}
	return fsys.SyncPath(filepath.Dir(dir))
}
