package store

import (
	"context"
	"errors"
	"fmt"
)

// The multi-process cluster support: a DB can host only a subset of the
// ring's members locally (Config.LocalMembers) and reach the rest through
// Remote transports attached per member id. The coordinator (replica
// placement, quorum counting, hinted handoff, read repair, full
// anti-entropy) reaches both kinds through one replica interface (see
// coordinator.go); reads and scans prefer local replicas, so a sharded DB
// fetches only foreign partitions remotely.

// Remote is the transport to one ring member hosted by another process.
// Implementations (see internal/dist) speak the /v1/replicate and
// /v1/shard/* RPCs over the hpclog/client SDK.
//
// Contract: Scan is the hop of the one replica read, batched by
// wireReplica.batches, which every reconciling read — Get, a batch scan
// past a local replica or above One, read repair and Repair — streams. It
// yields rows sorted by clustering key, each valid while held, and reports
// a stream that broke off through Err, never as a short clean stream: the
// read then substitutes another replica from after the last row. Apply
// is idempotent (rows carry their WriteTS; replicas reconcile
// last-write-wins), so callers may safely retry.
//
// Every method takes the coordinator's request context: transports
// derive their RPC deadline from it and propagate the request ID it
// carries (api.ContextWithRequestID), so one distributed request traces
// under a single ID on every process it touches. Background work
// (repair, hint replay, write stragglers) passes a context without
// request-scoped cancellation.
type Remote interface {
	// Apply writes pre-stamped rows into one partition of the remote
	// member — the replication RPC.
	Apply(ctx context.Context, table, pkey string, rows []Row) error
	// Scan streams the remote member's rows for one partition within the
	// clustering range.
	Scan(ctx context.Context, table, pkey string, rg Range) (RowIter, error)
	// KeyBounds returns the smallest and largest clustering key the
	// remote member holds for one partition (ok=false when empty).
	KeyBounds(ctx context.Context, table, pkey string) (min, max string, ok bool, err error)
	// PartitionKeys lists the partition keys the remote member holds for
	// a table.
	PartitionKeys(ctx context.Context, table string) ([]string, error)
}

// ErrWrongShard is returned when a replication or shard RPC addresses a
// ring member this process does not host, or a member that does not own
// the partition being written — the ownership fence that keeps a stale or
// misconfigured peer from quietly writing data onto the wrong shard.
var ErrWrongShard = errors.New("store: shard not owned by this process")

// IsLocalMember reports whether the ring member is hosted in this process.
func (db *DB) IsLocalMember(id string) bool { return db.Node(id) != nil }

// Members returns all ring member ids, local and remote, in sorted order.
func (db *DB) Members() []string { return db.ring.Nodes() }

// AttachRemote installs the wire transport for a remote ring member. The
// member must have been declared in Config.Members and must not be local.
func (db *DB) AttachRemote(id string, r Remote) error {
	if db.IsLocalMember(id) {
		return fmt.Errorf("store: AttachRemote(%s): member is local", id)
	}
	if !db.ring.IsMember(id) {
		return fmt.Errorf("store: AttachRemote(%s): not a ring member", id)
	}
	db.mu.Lock()
	db.remotes[id] = wireReplica{r}
	db.mu.Unlock()
	return nil
}

// WriteTS returns the current logical write-timestamp high-water mark.
func (db *DB) WriteTS() int64 { return db.writeTS.Load() }

// observeWriteTS advances the logical clock to at least ts (Lamport-style:
// replicated writes and peer heartbeats carry the remote clock so locally
// coordinated writes always stamp past anything already replicated here).
func (db *DB) observeWriteTS(ts int64) (advanced bool) {
	for {
		cur := db.writeTS.Load()
		if ts <= cur {
			return false
		}
		if db.writeTS.CompareAndSwap(cur, ts) {
			return true
		}
	}
}

// NoteRemoteProgress folds a peer's write-timestamp high-water mark into
// the local clock. When it advances, local caches are invalidated and
// watch subscribers are woken: the peer has acked writes this process may
// now observe through remote reads. Heartbeats call this on both ends.
// The notification is digest-free — the heartbeat carries only the clock,
// not the rows — so watch consumers fall back to a scan.
func (db *DB) NoteRemoteProgress(ts int64) {
	if db.observeWriteTS(ts) {
		db.notifyScan()
	}
}

// MarkDown marks a ring member down without delivering hints — the
// liveness detector's verdict after missed heartbeats. Subsequent writes
// hint the member instead of timing out against it.
func (db *DB) MarkDown(id string) { db.ring.SetUp(id, false) }

// ApplyReplicated applies pre-stamped rows arriving over /v1/replicate to
// one locally-hosted ring member. It fences ownership: nodeID must be
// hosted here and must be in the partition's replica set. The rows keep
// the coordinator's write timestamps (replication never re-stamps), the
// local clock advances past them, and the table is created on demand — a
// replica must accept data for a table it has not seen yet, exactly like
// commitlog replay does.
func (db *DB) ApplyReplicated(nodeID, tableName, pkey string, rows []Row) error {
	n, err := db.LocalReplica(nodeID)
	if err != nil {
		return err
	}
	owns := false
	for _, id := range db.ring.Replicas(pkey) {
		if id == nodeID {
			owns = true
			break
		}
	}
	if !owns {
		return fmt.Errorf("%w: member %s does not own partition %q", ErrWrongShard, nodeID, pkey)
	}
	if len(rows) == 0 {
		return nil
	}
	if !db.HasTable(tableName) {
		if err := db.CreateTable(tableName); err != nil {
			return err
		}
	}
	var maxTS int64
	for _, r := range rows {
		maxTS = max(maxTS, r.WriteTS)
	}
	if err := n.apply(context.Background(), tableName, pkey, rows, nil); err != nil {
		return err
	}
	db.observeWriteTS(maxTS)
	// Publish the digest: this process's own watch subscribers see
	// replicated writes exactly like locally coordinated ones (every
	// cluster process is also a coordinator).
	db.notifyWrite(tableName, pkey, rows)
	return nil
}
