package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
)

// replica is one ring member as the coordinator reaches it: a *Node hosted
// in this process, or a wireReplica around the Remote of a member hosted
// elsewhere. KeyBounds and PartitionKeys are Remote's own methods (and the
// /v1/shard/* routes serve a Node's); the lowercase two carry what only
// an in-process node can use — the put record, owned decoding — and a
// wire replica drops it. batches, unpruned and unprojected, is the one
// read at every consistency level: every reconciling read streams it.
type replica interface {
	apply(ctx context.Context, table, pkey string, rows []Row, encoded []byte) error
	batches(ctx context.Context, table, pkey string, rg Range, owned bool) (BatchIterator, error)
	KeyBounds(ctx context.Context, table, pkey string) (min, max string, ok bool, err error)
	PartitionKeys(ctx context.Context, table string) ([]string, error)
}

// wireReplica adapts a Remote: it sends rows rather than the encoded
// record and batches the row stream.
type wireReplica struct{ Remote }

func (w wireReplica) apply(ctx context.Context, table, pkey string, rows []Row, _ []byte) error {
	return w.Apply(ctx, table, pkey, rows)
}

func (w wireReplica) batches(ctx context.Context, table, pkey string, rg Range, _ bool) (BatchIterator, error) {
	it, err := w.Scan(ctx, table, pkey, rg)
	if err != nil {
		return nil, err
	}
	return persist.BatchRows(it, nil, nil), nil
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

// drain collects the rows of bi's unprojected batches, which own their
// cells, and closes it. A stream that fails part-way returns its error and
// no rows, so a caller never takes a partial list for an answer.
func drain(bi BatchIterator) ([]Row, error) {
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
// read traces under one ID on every process it touches. It drains the
// reconciling read, which above One is what PartitionBatches streams and
// at One the first live replica's stream alone; a replica that errors —
// typically a peer that died inside the failure detector's window and is
// not yet marked down — is substituted by the next.
func (db *DB) GetCtx(ctx context.Context, tableName, pkey string, rg Range, cl Consistency) ([]Row, error) {
	live, need, err := db.readTargets(tableName, pkey, cl)
	if err != nil {
		return nil, err
	}
	r, err := db.reconcile(ctx, tableName, pkey, rg, live, need, nil, nil, true)
	if err != nil {
		return nil, err
	}
	return drain(r)
}

// readTargets resolves the live replicas a read of the partition at cl
// may use, locals first, and how many of them it needs.
func (db *DB) readTargets(tableName, pkey string, cl Consistency) (live []replicaTarget, need int, err error) {
	if !db.HasTable(tableName) {
		return nil, 0, fmt.Errorf("store: no such table %q", tableName)
	}
	replicas := db.ring.Replicas(pkey)
	need = cl.required(len(replicas))
	if live, _ = db.liveTargets(replicas); len(live) < need {
		return nil, 0, fmt.Errorf("%w: table %s partition %s needs %d, have %d live",
			ErrUnavailable, tableName, pkey, need, len(live))
	}
	return live, need, nil
}

// ReadRepairs reports the total number of rows written back to stale
// replicas by read repair.
func (db *DB) ReadRepairs() int64 { return db.readRepairs.Load() }

// repairChunk is the most rows one write-back carries to a replica, and
// so the most of a replica's stale rows a reconciling read holds.
const repairChunk = 16 * MaxBatchRows

// reconciling is the one convergence step of reads, read repair and
// anti-entropy: replicas' owned, unpruned, unprojected batch streams of a
// partition through the one merge (persist.MergeBatches), which reports
// each input's stale rows — those its replica lacks or holds a losing
// version of — to be written back to that replica in chunks as the merge
// runs. A stream that fails, at open or mid-stream, is replaced by the
// next spare replica, read from after the last key it delivered:
// substituted, never read short.
type reconciling struct {
	BatchIterator // the merge
	db            *DB
	ctx           context.Context
	table, pkey   string
	rg            Range
	ins           []*replicaStream
	spares        []replicaTarget
	readRepair    bool  // count the write-backs as read repairs
	copied        int   // rows written back and not yet counted
	werr          error // the first failed write-back
}

// replicaStream is one input of a reconciling read: the batch stream of
// the replica that answers for it now, and the rows that replica was
// found stale for and has not been sent yet.
type replicaStream struct {
	r *reconciling
	replicaTarget
	BatchIterator
	last  string // the last key delivered; "" before the first
	stale []Row
	err   error
}

// reconcile streams rg over need of targets, the first that open, the
// others kept as spares. Batches carry project; sel keeps its matches.
func (db *DB) reconcile(ctx context.Context, tableName, pkey string, rg Range, targets []replicaTarget, need int, project []uint32, sel *Match, readRepair bool) (*reconciling, error) {
	r := &reconciling{db: db, ctx: ctx, table: tableName, pkey: pkey, rg: rg, spares: targets, readRepair: readRepair}
	srcs := make([]BatchIterator, need)
	for i := range srcs {
		s := &replicaStream{r: r}
		if err := r.open(s, nil); err != nil {
			for _, s := range r.ins {
				s.Close()
			}
			return nil, err
		}
		r.ins, srcs[i] = append(r.ins, s), s
	}
	r.BatchIterator = persist.MergeBatches(srcs, project, sel, r.stale)
	return r, nil
}

// open points s at the next spare replica that opens, read from after the
// last key s delivered; cause is why s needs one (nil at the start).
func (r *reconciling) open(s *replicaStream, cause error) error {
	rg := r.rg
	if s.last != "" {
		rg.From = s.last + "\x00"
	}
	for ; len(r.spares) > 0; r.spares = r.spares[1:] {
		it, err := r.spares[0].batches(r.ctx, r.table, r.pkey, rg, true)
		if err == nil {
			s.replicaTarget, s.BatchIterator, r.spares = r.spares[0], it, r.spares[1:]
			return nil
		}
		cause = cmp.Or(cause, err)
	}
	return fmt.Errorf("%w: table %s partition %s: %d replicas needed, no spare answered: %w",
		ErrUnavailable, r.table, r.pkey, len(r.ins), cause)
}

// stale takes the merge's report that input i lacks win or holds a losing
// version of it.
func (r *reconciling) stale(i int, win Row) {
	s := r.ins[i]
	if s.stale = append(s.stale, win); len(s.stale) == repairChunk {
		r.writeBack(s)
	}
}

// writeBack sends s's stale rows to the replica that answers for it, past
// the read's cancellation. A failure does not stop the read.
func (r *reconciling) writeBack(s *replicaStream) {
	if len(s.stale) == 0 {
		return
	}
	if err := s.apply(context.WithoutCancel(r.ctx), r.table, r.pkey, s.stale, nil); err != nil {
		r.werr = cmp.Or(r.werr, err)
	} else {
		r.copied += len(s.stale)
	}
	s.stale = nil // apply may keep the slice
}

// Close writes back the stale rows still held and closes the streams. A
// read repair that patched a replica revalidates cached results and wakes
// watchers, digest-free: the rows may never have been digested here.
func (r *reconciling) Close() error {
	for _, s := range r.ins {
		r.writeBack(s)
	}
	if r.readRepair && r.copied > 0 {
		r.db.readRepairs.Add(int64(r.copied))
		r.db.notifyScan()
		r.copied = 0
	}
	return r.BatchIterator.Close()
}

func (s *replicaStream) Next() (*Batch, bool) {
	for s.err == nil {
		if b, ok := s.BatchIterator.Next(); ok {
			s.last = b.Keys()[b.Len()-1]
			return b, true
		}
		if s.err = s.BatchIterator.Err(); s.err == nil {
			return nil, false
		}
		// The rows found stale so far are the failed replica's own.
		s.r.writeBack(s)
		s.BatchIterator.Close()
		s.err = s.r.open(s, s.err)
	}
	return nil, false
}

func (s *replicaStream) Err() error { return s.err }

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
// repair after it returns) are drained through one reconciling read and
// converge on the last-write-wins union. It returns the number of rows
// copied to lagging replicas; a replica that fails to answer or to take
// its rows stops the walk with that error.
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
		var r *reconciling
		if r, err = db.reconcile(ctx, tableName, pkey, Range{}, live, len(live), nil, nil, false); err == nil {
			for _, ok := r.Next(); ok; _, ok = r.Next() {
			}
			err = cmp.Or(errors.Join(r.Err(), r.Close()), r.werr)
			copied += r.copied
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
