package store

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
)

// replica is one ring member as the coordinator reaches it: a *Node hosted
// in this process, or a wireReplica around the Remote of a member hosted
// elsewhere. KeyBounds and PartitionKeys are Remote's own methods (and the
// /v1/shard/* routes serve a Node's); the lowercase two carry what only
// an in-process node can use — the put record, pruning, projection, owned
// decoding — and a wire replica drops it. batches is the one read at every
// consistency level: Get and Repair drain it (see readReplica).
type replica interface {
	apply(ctx context.Context, table, pkey string, rows []Row, encoded []byte) error
	batches(ctx context.Context, table, pkey string, rg Range, project []uint32, sel *persist.Match, pc *pruneCfg, owned bool) (BatchIterator, error)
	KeyBounds(ctx context.Context, table, pkey string) (min, max string, ok bool, err error)
	PartitionKeys(ctx context.Context, table string) ([]string, error)
}

// wireReplica adapts a Remote: it sends rows rather than the encoded
// record, scans unpruned, and batches the row stream.
type wireReplica struct{ Remote }

func (w wireReplica) apply(ctx context.Context, table, pkey string, rows []Row, _ []byte) error {
	return w.Apply(ctx, table, pkey, rows)
}

func (w wireReplica) batches(ctx context.Context, table, pkey string, rg Range, project []uint32, sel *persist.Match, _ *pruneCfg, _ bool) (BatchIterator, error) {
	it, err := w.Scan(ctx, table, pkey, rg)
	if err != nil {
		return nil, err
	}
	return persist.BatchRows(it, project, sel), nil
}

// isLocal reports whether r is hosted in this process: its apply is a WAL
// append and a memtable insert, never a network wait.
func isLocal(r replica) bool {
	_, ok := r.(*Node)
	return ok
}

// replicaTarget is one replica of a partition, by ring member id.
type replicaTarget struct {
	id string
	replica
}

// replicaOf resolves a ring member to its in-process node, else its
// attached wire transport, else nil.
func (db *DB) replicaOf(id string) replica {
	if n := db.Node(id); n != nil {
		return n
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.remotes[id]
}

// LocalReplica returns the locally hosted ring member nodeID, fenced: a
// member this process does not host is ErrWrongShard. The /v1/shard/*
// routes serve its Batches, KeyBounds and PartitionKeys.
func (db *DB) LocalReplica(nodeID string) (*Node, error) {
	if n := db.Node(nodeID); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("%w: member %s is not hosted by this process", ErrWrongShard, nodeID)
}

// liveTargets splits a partition's replica set into reachable targets
// (locals first, each group in ring preference order — a read served
// locally spares a network hop) and unreachable member ids (down, or
// remote with no transport attached).
func (db *DB) liveTargets(replicas []string) (live []replicaTarget, unreachable []string) {
	var remotes []replicaTarget
	for _, id := range replicas {
		r := db.replicaOf(id)
		switch {
		case r == nil || !db.ring.IsUp(id):
			unreachable = append(unreachable, id)
		case isLocal(r):
			live = append(live, replicaTarget{id, r})
		default:
			remotes = append(remotes, replicaTarget{id, r})
		}
	}
	return append(live, remotes...), unreachable
}

// repairTargets resolves the replicas anti-entropy can reach: every
// locally-hosted member regardless of liveness mark (a local node flagged
// down is simulated-down, not gone — repairing it is exactly the
// single-process behavior tests rely on), plus remote members that are up
// with a transport attached.
func (db *DB) repairTargets(replicas []string) []replicaTarget {
	var out []replicaTarget
	for _, id := range replicas {
		if r := db.replicaOf(id); r != nil && (isLocal(r) || db.ring.IsUp(id)) {
			out = append(out, replicaTarget{id, r})
		}
	}
	return out
}

// Put writes a single row into the partition identified by pkey.
func (db *DB) Put(tableName, pkey string, row Row, cl Consistency) error {
	return db.PutBatchCtx(context.Background(), tableName, pkey, []Row{row}, cl)
}

// PutBatch writes rows into one partition, assigning write timestamps and
// replicating to the ring's replica set. It returns once every in-process
// replica has applied the batch and the consistency level is satisfied;
// remote stragglers finish in the background, and down or failed replicas
// get the batch as a hint, so entropy between replicas still arises and
// Repair reconciles it. Each replica appends the batch to its commitlog
// before applying it — or, at FlushThreshold rows or more, writes it as a
// durable segment of its own — so an acknowledged batch survives a crash.
func (db *DB) PutBatch(tableName, pkey string, rows []Row, cl Consistency) error {
	return db.PutBatchCtx(context.Background(), tableName, pkey, rows, cl)
}

// PutBatchCtx is PutBatch under the caller's context. The context's
// request ID and trace span ride along: replica transports stamp the ID
// onto their RPCs, and the write path's stages (WAL append, replicate
// quorum ack, hint queueing) land on the trace. Replication itself is
// shielded from request-scoped cancellation — an acked batch must keep
// draining to stragglers after the handler returns.
func (db *DB) PutBatchCtx(ctx context.Context, tableName, pkey string, rows []Row, cl Consistency) error {
	if !db.HasTable(tableName) {
		return fmt.Errorf("store: no such table %q", tableName)
	}
	if len(rows) == 0 {
		return nil
	}
	// Stamp a copy: the caller's slice is left as it was passed.
	stamped := make([]Row, len(rows))
	for i, r := range rows {
		if r.WriteTS == 0 {
			r.WriteTS = db.NextWriteTS()
		}
		stamped[i] = r
	}
	replicas := db.ring.Replicas(pkey)
	need := cl.required(len(replicas))
	live, down := db.liveTargets(replicas)
	if len(live) < need {
		return fmt.Errorf("%w: table %s partition %s needs %d, have %d live",
			ErrUnavailable, tableName, pkey, need, len(live))
	}
	// Hinted handoff: queue the rows for down replicas so a transient
	// outage converges on recovery without a full repair.
	if len(down) > 0 {
		st := obs.StartSpan(ctx, "hint.queue")
		for _, id := range down {
			db.hintLog.add(id, hint{table: tableName, pkey: pkey, rows: stamped})
		}
		st.End()
	}
	// Replicas share one put record: encode once; each local replica's
	// commitlog record is its node tag ahead of it (wal.Log.Write copies
	// both). A batch at the flush threshold logs nothing: each replica
	// writes it as a round (Node.applyRound).
	var encoded []byte
	if len(stamped) < db.cfg.FlushThreshold {
		encoded = encodePutRecord(nil, tableName, pkey, stamped)
	}
	// Replication must outlive the request: the handler returning (and the
	// HTTP server cancelling its context) cannot abort straggler replicas
	// of an already-acked batch. Values (request ID, trace span) survive.
	return db.replicate(context.WithoutCancel(ctx), tableName, pkey, stamped, encoded, live, need)
}

// replicate writes one stamped batch to every live replica target at
// once. It returns when every in-process replica has answered and W acks
// are in (or can no longer arrive): a local apply costs no network wait,
// and awaiting it keeps every local replica readable the moment PutBatch
// returns. The in-process replicas append to the one commitlog together
// and share its sync (commitlog.apply). Remote stragglers keep writing in
// the background. A replica that fails, local or remote, gets the batch
// queued as a hint, so an acked batch eventually reaches every replica
// (handoff on recovery, anti-entropy as the backstop) even though only W
// were waited on.
func (db *DB) replicate(ctx context.Context, tableName, pkey string, stamped []Row, encoded []byte, live []replicaTarget, need int) error {
	type applyResult struct {
		idx int
		err error
	}
	st := obs.StartSpan(ctx, "replicate.quorum")
	ch := make(chan applyResult, len(live))
	var locals []*Node // live[:len(locals)]: liveTargets puts them first
	for i, tgt := range live {
		if n, ok := tgt.replica.(*Node); ok {
			locals = append(locals, n)
			continue
		}
		go func() { ch <- applyResult{i, tgt.apply(ctx, tableName, pkey, stamped, encoded)} }()
	}
	acks, fails, received := 0, 0, 0
	var errs []error
	tally := func(res applyResult) {
		received++
		if res.err == nil {
			acks++
			return
		}
		fails++
		errs = append(errs, res.err)
		db.hintLog.add(live[res.idx].id, hint{table: tableName, pkey: pkey, rows: stamped})
	}
	if len(locals) > 0 {
		for i, err := range db.log.apply(ctx, locals, tableName, pkey, stamped, encoded) {
			tally(applyResult{i, err})
		}
	}
	for received < len(live) && acks < need && len(live)-fails >= need {
		tally(<-ch)
	}
	st.End()
	if received < len(live) {
		// Drain the remote stragglers off the request path: late failures
		// become hints, late successes wake watchers/invalidate caches.
		remaining := len(live) - received
		go func() {
			late := false
			for i := 0; i < remaining; i++ {
				res := <-ch
				if res.err != nil {
					db.hintLog.add(live[res.idx].id, hint{table: tableName, pkey: pkey, rows: stamped})
				} else {
					late = true
				}
			}
			if late {
				db.bumpGeneration()
			}
		}()
	}
	if acks > 0 {
		// Even a failed batch may have applied rows on some replicas, which
		// consistency-One reads can already observe — cached results must be
		// revalidated and watchers notified either way.
		db.notifyWrite(tableName, pkey, stamped)
	}
	if acks < need {
		return fmt.Errorf("store: only %d/%d acks for %s/%s: %w",
			acks, need, tableName, pkey, errors.Join(errs...))
	}
	return nil
}

// Get reads rows of one partition within the clustering range. At
// consistency One the first live replica answers; at Quorum/All the
// required number of replicas are read and reconciled last-write-wins.
func (db *DB) Get(tableName, pkey string, rg Range, cl Consistency) ([]Row, error) {
	return db.GetCtx(context.Background(), tableName, pkey, rg, cl)
}

// readReplica drains one replica's unpruned batch scan of a partition
// within rg into rows that outlive their batches: a local scan is opened
// owned, a merge's and a remote's batches own their cells. A stream that
// fails part-way returns its error and no rows, so a caller never takes a
// partial list for a replica's answer.
func readReplica(ctx context.Context, r replica, tableName, pkey string, rg Range) ([]Row, error) {
	bi, err := r.batches(ctx, tableName, pkey, rg, nil, nil, nil, true)
	if err != nil {
		return nil, err
	}
	it := persist.Rows(bi)
	var rows []Row
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		rows = append(rows, row)
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		return nil, err
	}
	return rows, nil
}

// GetCtx is Get under the caller's context: replica transports derive
// their deadline from it and forward its request ID, so a scatter-gather
// read traces under one ID on every process it touches.
func (db *DB) GetCtx(ctx context.Context, tableName, pkey string, rg Range, cl Consistency) ([]Row, error) {
	if !db.HasTable(tableName) {
		return nil, fmt.Errorf("store: no such table %q", tableName)
	}
	replicas := db.ring.Replicas(pkey)
	need := cl.required(len(replicas))
	live, _ := db.liveTargets(replicas)
	if len(live) < need {
		return nil, fmt.Errorf("%w: table %s partition %s needs %d, have %d live",
			ErrUnavailable, tableName, pkey, need, len(live))
	}
	// A replica that errors (typically a peer that died inside the failure
	// detector's window and is not yet marked down) is substituted by the
	// next live target, so the read succeeds as long as `need` replicas
	// answer. Consistency One walks the preference order inline (local
	// first — the hot path stays goroutine-free).
	if need == 1 {
		var firstErr error
		for _, tgt := range live {
			rows, err := readReplica(ctx, tgt, tableName, pkey, rg)
			if err == nil {
				return rows, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, fmt.Errorf("%w: table %s partition %s: no replica answered: %w",
			ErrUnavailable, tableName, pkey, firstErr)
	}
	// Quorum/All: read the first `need` live replicas in parallel,
	// substituting on failure.
	type readRes struct {
		idx  int
		rows []Row
		err  error
	}
	ch := make(chan readRes, len(live))
	launch := func(i int) {
		go func() {
			rows, err := readReplica(ctx, live[i], tableName, pkey, rg)
			ch <- readRes{i, rows, err}
		}()
	}
	next := need
	for i := 0; i < need; i++ {
		launch(i)
	}
	var answered []int
	results := make([][]Row, len(live))
	var firstErr error
	for inflight := need; inflight > 0 && len(answered) < need; {
		res := <-ch
		inflight--
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			if next < len(live) {
				launch(next)
				next++
				inflight++
			}
			continue
		}
		results[res.idx] = res.rows
		answered = append(answered, res.idx)
	}
	if len(answered) < need {
		return nil, fmt.Errorf("%w: table %s partition %s: %d of %d required replicas answered: %w",
			ErrUnavailable, tableName, pkey, len(answered), need, firstErr)
	}
	sort.Ints(answered)
	targets := make([]replicaTarget, len(answered))
	lists := make([][]Row, len(answered))
	for i, idx := range answered {
		targets[i], lists[i] = live[idx], results[idx]
	}
	// Read repair: patch replicas observed stale within the read range. A
	// failed write-back leaves the replica to hints and anti-entropy.
	merged, repaired, _ := reconcile(context.WithoutCancel(ctx), tableName, pkey, targets, lists)
	if repaired > 0 {
		db.readRepairs.Add(int64(repaired))
		// A previously stale replica can now answer consistency-One reads
		// with more rows, so cached results must be revalidated and
		// watchers woken (digest-free: the repaired rows may never have
		// been digested on this coordinator).
		db.notifyScan()
	}
	return merged, nil
}

// ReadRepairs reports the total number of rows written back to stale
// replicas by read repair.
func (db *DB) ReadRepairs() int64 { return db.readRepairs.Load() }

// reconcile is the one convergence step of read repair and anti-entropy:
// it merges lists — what each of targets answered for one partition —
// last-write-wins, and writes back to every target the rows its list
// lacks or holds a losing version of. It returns the merged rows, the
// rows written back and the first failed write-back; a failure does not
// stop the others.
func reconcile(ctx context.Context, tableName, pkey string, targets []replicaTarget, lists [][]Row) (merged []Row, copied int, err error) {
	merged = persist.MergeRuns(lists...)
	for i, tgt := range targets {
		missing := diffRows(merged, lists[i])
		if len(missing) == 0 {
			continue
		}
		if werr := tgt.apply(ctx, tableName, pkey, missing, nil); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		copied += len(missing)
	}
	return merged, copied, err
}

// PartitionKeys returns the union of a table's partition keys across the
// whole cluster, sorted: local members directly, live attached remote
// members over the wire. Anti-entropy repair walks it, so a coordinator
// that holds none of a partition's replicas still repairs it.
func (db *DB) PartitionKeys(ctx context.Context, tableName string) ([]string, error) {
	seen := make(map[string]bool)
	for _, tgt := range db.repairTargets(db.Members()) {
		keys, err := tgt.PartitionKeys(ctx, tableName)
		if err != nil {
			return nil, fmt.Errorf("store: partition keys from %s: %w", tgt.id, err)
		}
		for _, k := range keys {
			seen[k] = true
		}
	}
	return slices.Sorted(maps.Keys(seen)), nil
}

// Repair runs anti-entropy for one table: for every partition, the
// reachable replicas (live local members and live attached remotes — a
// down node cannot participate; it converges through hinted handoff and a
// repair after it returns) exchange rows and converge on the
// last-write-wins union. It returns the number of rows copied to lagging
// replicas; a replica that fails to answer or to take its rows stops the
// walk with that error.
func (db *DB) Repair(tableName string) (int, error) {
	if !db.HasTable(tableName) {
		return 0, fmt.Errorf("store: no such table %q", tableName)
	}
	ctx := context.Background()
	pkeys, err := db.PartitionKeys(ctx, tableName)
	if err != nil {
		return 0, err
	}
	copied := 0
	for _, pkey := range pkeys {
		live := db.repairTargets(db.ring.Replicas(pkey))
		if len(live) < 2 {
			continue
		}
		lists := make([][]Row, len(live))
		for i, tgt := range live {
			if lists[i], err = readReplica(ctx, tgt, tableName, pkey, Range{}); err != nil {
				break
			}
		}
		if err == nil {
			var n int
			_, n, err = reconcile(ctx, tableName, pkey, live, lists)
			copied += n
		}
		if err != nil {
			break
		}
	}
	if copied > 0 {
		db.notifyScan()
	}
	return copied, err
}

// diffRows returns rows in union that are absent from have (by clustering
// key) or that win over have's version (persist.Newer). Both inputs are
// sorted by Key.
func diffRows(union, have []Row) []Row {
	var out []Row
	j := 0
	for _, r := range union {
		for j < len(have) && have[j].Key < r.Key {
			j++
		}
		if j < len(have) && have[j].Key == r.Key && !persist.Newer(r, have[j]) {
			continue
		}
		out = append(out, r)
	}
	return out
}
