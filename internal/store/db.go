package store

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/cluster"
	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
	"hpclog/internal/wal"
)

// Consistency is the number-of-replicas contract for an operation,
// mirroring Cassandra's tunable consistency levels.
type Consistency int

// Consistency levels.
const (
	// One requires a single replica acknowledgment.
	One Consistency = iota
	// Quorum requires floor(RF/2)+1 replica acknowledgments.
	Quorum
	// All requires every replica to acknowledge.
	All
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

func (c Consistency) required(rf int) int {
	switch c {
	case One:
		return 1
	case Quorum:
		return rf/2 + 1
	default:
		return rf
	}
}

// ErrUnavailable is returned when fewer live replicas exist than the
// requested consistency level requires.
var ErrUnavailable = errors.New("store: not enough live replicas for consistency level")

// Config parameterizes a store cluster.
type Config struct {
	// Nodes is the number of storage nodes. The paper's CADES deployment
	// uses 32 VMs, each pairing a store node with a compute worker.
	Nodes int
	// RF is the replication factor (default 3, capped at Nodes).
	RF int
	// Members, when non-empty, names every ring member explicitly and
	// overrides Nodes. A multi-process cluster lists the same Members on
	// every process so all of them compute identical replica placement.
	Members []string
	// LocalMembers is the subset of Members hosted by this process (each
	// gets its own storage node — segment files under Dir/node-<id> — and
	// appends to the process's one commitlog). Empty means all members are
	// local (the single-process default). Remote members join the ring
	// marked down until a Remote transport is attached and the liveness
	// detector hears from them.
	LocalMembers []string
	// VNodes is the number of virtual nodes per storage node (default 64).
	VNodes int
	// FlushThreshold is the memtable row count at which a write runs a
	// node flush round (default 4096).
	FlushThreshold int

	// Dir is the directory the storage engine is rooted at (required):
	// every write is appended to the process's one commitlog (Dir/wal,
	// each record naming its node) before it is acknowledged, memtable
	// flushes produce immutable on-disk segment files under
	// Dir/node-<id>, a background compactor merges segments and truncates
	// obsolete commitlog segments, and OpenDurable replays the commitlog
	// on startup.
	Dir string
	// WALSegmentBytes rotates commitlog segment files past this size
	// (default 8 MiB).
	WALSegmentBytes int64
	// WALSyncPeriod selects the commitlog sync mode: 0 (default) is batch
	// group-commit — every PutBatch ack implies an fsync; > 0 is periodic
	// — appends return immediately and a background ticker fsyncs,
	// bounding possible loss to the period.
	WALSyncPeriod time.Duration
	// WALNoSync disables commitlog fsync entirely (benchmarks and bulk
	// loads only).
	WALNoSync bool
	// WALTolerateCorruptTail downgrades mid-segment commitlog corruption
	// from a refuse-to-open error to truncation at the damage (see
	// wal.Options.TolerateCorruptTail). An operator escape hatch for
	// restarting a node whose newest commitlog segment fails its CRC scan
	// — records after the damage are lost.
	WALTolerateCorruptTail bool
	// CompactInterval is the tick of the background compactor that merges
	// overflowing disk segments and truncates the commitlog (default
	// 500ms; negative disables the background goroutine — Flush/Compact
	// remain available).
	CompactInterval time.Duration
	// Logger, when set, receives structured records from the storage
	// engine's background machinery: WAL recovery warnings and compaction
	// maintenance failures. Nil keeps the engine silent (counters in
	// StorageStats record the same facts).
	Logger *slog.Logger

	// Tier, when Backend is non-empty, attaches an object-storage tier to
	// the storage engine: background maintenance uploads cold sealed
	// segments (verified by read-back), evicts their local data files —
	// keeping the footer resident so block pruning needs no fetch — and
	// reads of evicted segments go through a bounded block cache with
	// per-block Merkle verification.
	Tier objstore.Config
}

func (c Config) withDefaults() Config {
	if len(c.Members) > 0 {
		c.Nodes = len(c.Members)
	}
	if c.Nodes <= 0 {
		c.Nodes = 32
	}
	if c.RF <= 0 {
		c.RF = 3
	}
	if c.RF > c.Nodes {
		c.RF = c.Nodes
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = 4096
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 8 << 20
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 500 * time.Millisecond
	}
	return c
}

// DB is a store cluster: a ring of storage nodes plus coordinator logic.
// Any method may be called from any goroutine; every call acts as its own
// coordinator, matching the masterless design.
type DB struct {
	cfg  Config
	ring *cluster.Ring
	// nodes are the members this process hosts, sorted by id. Fixed at
	// open, so it is read without a lock.
	nodes []*Node
	// log is the process's one commitlog, shared by every local node.
	log     *commitlog
	mu      sync.RWMutex       // guards remotes and tables
	remotes map[string]replica // transports for members hosted elsewhere
	tables  map[string]bool
	writeTS atomic.Int64
	hintLog *hintLog

	readRepairs atomic.Int64
	generation  atomic.Uint64

	// Write notification fan-out (see RegisterWriteNotify): an immutable
	// snapshot of callbacks, swapped copy-on-write so the write path reads
	// it with one atomic load and no lock.
	notifyMu  sync.Mutex
	notifiers atomic.Pointer[[]*writeNotifier]

	compactMu   sync.Mutex // serializes compaction passes
	compactStop chan struct{}
	compactDone chan struct{}
	closed      atomic.Bool
	replayStats ReplayStats
	maintErrors atomic.Int64
	// tier is the process-wide object-storage tier shared by every local
	// node (one object store, one block cache); nil when tiering is off.
	tier *objstore.Tier
}

// ReplayStats summarizes commitlog recovery across all local nodes.
type ReplayStats struct {
	Records int64 `json:"records"`
	Rows    int64 `json:"rows"`
}

// Generation returns a counter that advances whenever the database's
// logical contents may have changed (writes, table creation, repair).
// Caches key validity on it: a result computed at generation g is safe to
// reuse while Generation() still returns g.
func (db *DB) Generation() uint64 { return db.generation.Load() }

// WriteDigest describes one acked batch of rows: which table and
// partition they landed in and the rows themselves (stamped). It is the
// typed payload of a write notification, letting a push consumer (the
// watch hub) route the notification by partition key and deliver the rows
// from memory instead of re-scanning the store per subscriber.
//
// Rows is shared with the write path and with every other notifier —
// receivers must treat the slice and its rows as immutable.
type WriteDigest struct {
	Table string
	PKey  string
	Rows  []Row
}

// bumpGeneration records a metadata-only mutation (table creation,
// compaction): caches must revalidate, but no new rows became readable,
// so write notifiers are not called.
func (db *DB) bumpGeneration() {
	db.generation.Add(1)
}

// notifyWrite records an acked batch of rows and publishes its digest to
// every write notifier.
func (db *DB) notifyWrite(table, pkey string, rows []Row) {
	db.generation.Add(1)
	if subs := db.notifiers.Load(); subs != nil && len(*subs) > 0 {
		d := &WriteDigest{Table: table, PKey: pkey, Rows: rows}
		for _, n := range *subs {
			n.fn(d)
		}
	}
}

// notifyScan records a mutation that may have made new rows readable
// without a row-level digest (remote progress via heartbeat, repair
// convergence): notifiers receive nil and must fall back to scanning.
func (db *DB) notifyScan() {
	db.generation.Add(1)
	if subs := db.notifiers.Load(); subs != nil {
		for _, n := range *subs {
			n.fn(nil)
		}
	}
}

// writeNotifier is one registered write callback.
type writeNotifier struct{ fn func(*WriteDigest) }

// RegisterWriteNotify registers fn to run after acked writes — the push
// signal behind the analytic server's /v1/watch hub, replacing fixed
// poll intervals. fn receives the write's digest (table, partition key,
// acked rows) when the mutating path knows it, or nil when rows may have
// become readable without row-level detail (a peer's heartbeat advancing
// remote progress, anti-entropy repair) — a nil digest means "scan to
// find out". Metadata-only mutations (table creation, compaction) advance
// the generation without notifying. fn runs synchronously on the mutating
// goroutine and therefore must be fast and non-blocking (typically a
// bounded in-memory append plus a non-blocking channel send). The
// returned cancel function unregisters fn; it is safe to call more than
// once.
func (db *DB) RegisterWriteNotify(fn func(*WriteDigest)) (cancel func()) {
	n := &writeNotifier{fn: fn}
	db.notifyMu.Lock()
	var cur []*writeNotifier
	if p := db.notifiers.Load(); p != nil {
		cur = *p
	}
	next := make([]*writeNotifier, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, n)
	db.notifiers.Store(&next)
	db.notifyMu.Unlock()
	return func() {
		db.notifyMu.Lock()
		defer db.notifyMu.Unlock()
		var cur []*writeNotifier
		if p := db.notifiers.Load(); p != nil {
			cur = *p
		}
		next := make([]*writeNotifier, 0, len(cur))
		for _, o := range cur {
			if o != n {
				next = append(next, o)
			}
		}
		db.notifiers.Store(&next)
	}
}

// OpenDurable creates a store cluster with cfg. It opens (creating as
// needed) the process's commitlog under <Dir>/wal and each local node's
// segment store under <Dir>/node-<id>/, replays the commitlog into the
// nodes' memtables — recovering every acknowledged write of a previous
// incarnation, while a torn tail left by a crash mid-append is detected
// by CRC and cleanly ignored — and starts the background compactor. The
// per-node commitlogs of the predecessor layout (<Dir>/node-<id>/wal)
// are replayed first and removed by the first truncation after their
// rows are flushed. cfg.Dir is required, and must hold no node directory
// of an id outside the member set.
func OpenDurable(cfg Config) (*DB, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	cfg = cfg.withDefaults()
	db := &DB{
		cfg:     cfg,
		ring:    cluster.NewRing(cfg.RF, cfg.VNodes),
		remotes: make(map[string]replica),
		tables:  make(map[string]bool),
		hintLog: newHintLog(),
	}
	if cfg.Tier.Backend != "" {
		tier, err := objstore.Open(cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("store: open tier: %w", err)
		}
		db.tier = tier
	}
	members := cfg.Members
	if len(members) == 0 {
		members = make([]string, cfg.Nodes)
		for i := range members {
			members[i] = fmt.Sprintf("store%02d", i)
		}
	} else {
		seen := make(map[string]bool, len(members))
		for _, id := range members {
			if id == "" || seen[id] {
				return nil, fmt.Errorf("store: empty or duplicate member id %q", id)
			}
			seen[id] = true
		}
	}
	if err := checkNodeDirs(cfg.Dir, members); err != nil {
		return nil, err
	}
	local := make(map[string]bool, len(members))
	if len(cfg.LocalMembers) == 0 {
		for _, id := range members {
			local[id] = true
		}
	} else {
		member := make(map[string]bool, len(members))
		for _, id := range members {
			member[id] = true
		}
		for _, id := range cfg.LocalMembers {
			if !member[id] {
				return nil, fmt.Errorf("store: local member %q is not in Members", id)
			}
			local[id] = true
		}
	}
	log, err := wal.Open(walOptions(cfg, filepath.Join(cfg.Dir, "wal")))
	if err != nil {
		return nil, fmt.Errorf("store: commitlog: %w", err)
	}
	db.log = &commitlog{Log: log}
	for _, id := range members {
		db.ring.AddNode(id)
		if !local[id] {
			// Remote members start down; the cluster runtime marks them up
			// once a heartbeat succeeds over their attached transport.
			db.ring.SetUp(id, false)
			continue
		}
		n := newNode(id, cfg.FlushThreshold)
		n.log = db.log
		if err := n.openDurable(filepath.Join(cfg.Dir, "node-"+id), db.tier); err != nil {
			db.closeNodes()
			return nil, err
		}
		db.nodes = append(db.nodes, n)
	}
	slices.SortFunc(db.nodes, func(a, b *Node) int { return strings.Compare(a.id, b.id) })
	if err := db.recover(); err != nil {
		db.closeNodes()
		return nil, err
	}
	if cfg.CompactInterval > 0 {
		db.compactStop = make(chan struct{})
		db.compactDone = make(chan struct{})
		go db.compactorLoop()
	}
	return db, nil
}

// checkNodeDirs fails when dir holds node directories of ids outside
// members: their rows would go unread, and every answer would lack them
// without a word.
func checkNodeDirs(dir string, members []string) error {
	des, err := fsys.OS.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var strays []string
	for _, de := range des {
		if id, ok := strings.CutPrefix(de.Name(), "node-"); ok && de.IsDir() && !slices.Contains(members, id) {
			strays = append(strays, de.Name())
		}
	}
	if len(strays) > 0 {
		return fmt.Errorf("store: %s holds data of %d members outside the %d configured (%s): open it with the members that wrote it",
			dir, len(strays), len(members), strings.Join(strays, ", "))
	}
	return nil
}

// recover materializes every node's tables and partitions from its
// segment store, replays the commitlog, reconciles the table catalog, and
// restores the logical write-timestamp counter.
func (db *DB) recover() error {
	var maxTS int64
	for _, n := range db.nodes {
		ts, err := n.recover()
		if err != nil {
			return fmt.Errorf("store: recover node %s: %w", n.id, err)
		}
		maxTS = max(maxTS, ts)
	}
	stats, ts, err := db.log.replay(db)
	if err != nil {
		return fmt.Errorf("store: replay commitlog: %w", err)
	}
	maxTS = max(maxTS, ts)
	db.replayStats = stats
	// Tables known to any node become cluster-wide (a put record implies
	// its table, so recovery never loses a table that holds data).
	names := make(map[string]bool)
	for _, n := range db.nodes {
		n.mu.RLock()
		for name := range n.tables {
			names[name] = true
		}
		n.mu.RUnlock()
	}
	db.mu.Lock()
	for name := range names {
		db.tables[name] = true
	}
	db.mu.Unlock()
	for name := range names {
		for _, n := range db.nodes {
			n.createTableLocal(name)
		}
	}
	if maxTS > db.writeTS.Load() {
		db.writeTS.Store(maxTS)
	}
	if len(names) > 0 {
		db.bumpGeneration()
	}
	return nil
}

// closeNodes closes every local node's segment store and the commitlog,
// and returns their errors joined.
func (db *DB) closeNodes() error {
	var errs []error
	for _, n := range db.nodes {
		errs = append(errs, n.persist.Close())
	}
	errs = append(errs, db.log.Close())
	return errors.Join(errs...)
}

// Ring exposes the cluster ring (read-only use intended).
func (db *DB) Ring() *cluster.Ring { return db.ring }

// Config returns the effective configuration.
func (db *DB) Config() Config { return db.cfg }

// NodeIDs returns the ids of the storage nodes this process hosts, in
// sorted order.
func (db *DB) NodeIDs() []string {
	ids := make([]string, len(db.nodes))
	for i, n := range db.nodes {
		ids[i] = n.id
	}
	return ids
}

// Node returns the locally hosted storage node with the given id, or nil.
func (db *DB) Node(id string) *Node {
	i, ok := slices.BinarySearchFunc(db.nodes, id, func(n *Node, id string) int { return strings.Compare(n.id, id) })
	if !ok {
		return nil
	}
	return db.nodes[i]
}

// CreateTable declares a table on every node and in every node's
// commitlog. Creating an existing table is a no-op, supporting the paper's
// requirement that new event types and schemas can be added at any time.
func (db *DB) CreateTable(name string) error {
	db.mu.Lock()
	db.tables[name] = true
	db.mu.Unlock()
	for _, n := range db.nodes {
		if err := n.createTable(name); err != nil {
			return err
		}
	}
	db.bumpGeneration()
	return nil
}

// Tables lists declared tables in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for t := range db.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// HasTable reports whether the table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// NextWriteTS issues a monotonically increasing logical write timestamp.
func (db *DB) NextWriteTS() int64 { return db.writeTS.Add(1) }

// PrimaryFor returns the primary storage node id for a partition key.
func (db *DB) PrimaryFor(pkey string) string { return db.ring.Primary(pkey) }
