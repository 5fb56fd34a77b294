package store

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hpclog/internal/obs"
)

// The multi-process cluster support: a DB can host only a subset of the
// ring's members locally (Config.LocalMembers) and reach the rest through
// Remote transports attached per member id. The coordinator logic —
// replica placement, quorum counting, hinted handoff, read repair, full
// anti-entropy — is unchanged; only the "write to / read from replica X"
// step branches between an in-process *Node and a wire transport. Reads
// and scans prefer local replicas, so a fully-local DB behaves exactly as
// before, and a sharded one fetches only foreign partitions remotely.

// Remote is the transport to one ring member hosted by another process.
// Implementations (see internal/dist) speak the /v1/replicate and
// /v1/shard/* RPCs over the hpclog/client SDK.
//
// Contract: Read and Scan return rows in the compact interned-column
// representation, sorted by clustering key — the same shape a local
// replica yields — and Apply is idempotent (rows carry their WriteTS;
// replicas reconcile last-write-wins), so callers may safely retry.
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
	// Read returns the remote member's rows for one partition within the
	// clustering range.
	Read(ctx context.Context, table, pkey string, rg Range) ([]Row, error)
	// Scan streams the remote member's rows for one partition.
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
	db.remotes[id] = r
	db.mu.Unlock()
	db.hasRemotes.Store(true)
	return nil
}

// remote returns the transport for a remote member, or nil.
func (db *DB) remote(id string) Remote {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.remotes[id]
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
	n := db.Node(nodeID)
	if n == nil {
		return fmt.Errorf("%w: member %s is not hosted by this process", ErrWrongShard, nodeID)
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
	compacted := make([]Row, len(rows))
	for i, r := range rows {
		if r.WriteTS > maxTS {
			maxTS = r.WriteTS
		}
		compacted[i] = r.Compact()
	}
	if err := n.apply(tableName, pkey, compacted, nil); err != nil {
		return err
	}
	db.observeWriteTS(maxTS)
	// Publish the digest: this process's own watch subscribers see
	// replicated writes exactly like locally coordinated ones (every
	// cluster process is also a coordinator).
	db.notifyWrite(tableName, pkey, compacted)
	return nil
}

// fenceLocal resolves a shard RPC's target member to its local node.
func (db *DB) fenceLocal(nodeID string) (*Node, error) {
	n := db.Node(nodeID)
	if n == nil {
		return nil, fmt.Errorf("%w: member %s is not hosted by this process", ErrWrongShard, nodeID)
	}
	return n, nil
}

// ReadShard serves /v1/shard/read: the rows one locally-hosted member
// holds for a partition. A table the member has never seen yields an
// empty result, not an error — the coordinator knows the table exists
// cluster-wide; this replica may simply hold none of its data yet.
func (db *DB) ReadShard(nodeID, tableName, pkey string, rg Range) ([]Row, error) {
	n, err := db.fenceLocal(nodeID)
	if err != nil {
		return nil, err
	}
	if _, terr := n.table(tableName); terr != nil {
		return nil, nil
	}
	return n.readPartition(tableName, pkey, rg)
}

// ScanShard serves /v1/shard/scan: a streaming scan of one partition on a
// locally-hosted member.
func (db *DB) ScanShard(nodeID, tableName, pkey string, rg Range) (RowIter, error) {
	n, err := db.fenceLocal(nodeID)
	if err != nil {
		return nil, err
	}
	if _, terr := n.table(tableName); terr != nil {
		return NewSliceIter(nil), nil
	}
	return n.scanPartitionPruned(tableName, pkey, rg, nil)
}

// ShardKeyBounds serves /v1/shard/bounds for one locally-hosted member.
func (db *DB) ShardKeyBounds(nodeID, tableName, pkey string) (min, max string, ok bool, err error) {
	n, ferr := db.fenceLocal(nodeID)
	if ferr != nil {
		return "", "", false, ferr
	}
	t, terr := n.table(tableName)
	if terr != nil {
		return "", "", false, nil
	}
	p := t.partition(pkey, false)
	if p == nil {
		return "", "", false, nil
	}
	min, max, ok = p.keyBounds()
	return min, max, ok, nil
}

// ShardPartitionKeys serves /v1/shard/partitions for one locally-hosted
// member.
func (db *DB) ShardPartitionKeys(nodeID, tableName string) ([]string, error) {
	n, err := db.fenceLocal(nodeID)
	if err != nil {
		return nil, err
	}
	return n.PartitionKeys(tableName), nil
}

// AllPartitionKeys returns the union of a table's partition keys across
// the whole cluster: local members directly, live attached remote members
// over the wire. Anti-entropy repair walks this so a coordinator that
// holds none of a partition's replicas still repairs it.
func (db *DB) AllPartitionKeys(tableName string) ([]string, error) {
	return db.AllPartitionKeysCtx(context.Background(), tableName)
}

// AllPartitionKeysCtx is AllPartitionKeys under the caller's context.
func (db *DB) AllPartitionKeysCtx(ctx context.Context, tableName string) ([]string, error) {
	seen := make(map[string]bool)
	for _, id := range db.NodeIDs() {
		for _, k := range db.Node(id).PartitionKeys(tableName) {
			seen[k] = true
		}
	}
	if db.hasRemotes.Load() {
		for _, id := range db.Members() {
			if db.IsLocalMember(id) || !db.ring.IsUp(id) {
				continue
			}
			r := db.remote(id)
			if r == nil {
				continue
			}
			keys, err := r.PartitionKeys(ctx, tableName)
			if err != nil {
				return nil, fmt.Errorf("store: partition keys from %s: %w", id, err)
			}
			for _, k := range keys {
				seen[k] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// replicaTarget is one live replica reachable either in-process or over
// the wire.
type replicaTarget struct {
	id string
	n  *Node  // non-nil for local members
	r  Remote // non-nil for attached remote members
}

// liveTargets splits a partition's replica set into reachable targets
// (locals first, each group in ring preference order — reads served
// locally whenever possible keep the fully-local DB byte-identical to its
// pre-cluster behavior and spare a self-RPC) and unreachable member ids
// (down, or remote with no transport attached).
func (db *DB) liveTargets(replicas []string) (live []replicaTarget, unreachable []string) {
	var remotes []replicaTarget
	for _, id := range replicas {
		if !db.ring.IsUp(id) {
			unreachable = append(unreachable, id)
			continue
		}
		if n := db.Node(id); n != nil {
			live = append(live, replicaTarget{id: id, n: n})
			continue
		}
		if r := db.remote(id); r != nil {
			remotes = append(remotes, replicaTarget{id: id, r: r})
			continue
		}
		unreachable = append(unreachable, id)
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
		if n := db.Node(id); n != nil {
			out = append(out, replicaTarget{id: id, n: n})
			continue
		}
		if !db.ring.IsUp(id) {
			continue
		}
		if r := db.remote(id); r != nil {
			out = append(out, replicaTarget{id: id, r: r})
		}
	}
	return out
}

// apply writes rows to the target replica over whichever transport it
// has. For a local member this is the WAL-append + memtable stage of
// the write path, so it records a "wal.append" span when the context
// carries a trace; a remote member's append shows up inside its
// "replicate" stage instead.
func (t replicaTarget) apply(ctx context.Context, table, pkey string, rows []Row, encoded []byte) error {
	if t.n != nil {
		st := obs.StartSpan(ctx, "wal.append")
		err := t.n.apply(table, pkey, rows, encoded)
		st.End()
		return err
	}
	return t.r.Apply(ctx, table, pkey, rows)
}

// read fetches one partition from the target replica.
func (t replicaTarget) read(ctx context.Context, table, pkey string, rg Range) ([]Row, error) {
	if t.n != nil {
		return t.n.readPartition(table, pkey, rg)
	}
	return t.r.Read(ctx, table, pkey, rg)
}
