// Package dist is the server runtime: it turns the in-process
// ring/replication substrate (internal/store, internal/cluster) into a
// served node. Without peers one process hosts every ring member. With
// peers each hpclogd process hosts exactly one ring member — its own slice
// of the consistent-hash ring with its own commitlog and segment files —
// and reaches every peer member through the hpclog/client SDK: writes it
// coordinates replicate over /v1/replicate with W-of-RF quorum acks, reads
// and scans of foreign shards scatter-gather over /v1/shard/*, and the
// unchanged compute/query stack on top re-merges them deterministically,
// so a query answered by any node is byte-identical to the single-process
// answer.
//
// Membership is a static seed list (every process is configured with the
// same member set — gossip can later replace the seed list without
// touching the store); liveness is direct heartbeating: every node probes
// every peer on a short interval, marks it down after consecutive misses
// (writes then queue hints instead of timing out against it), and marks
// it up again on the first successful probe — at which point hinted
// handoff replays what the peer missed and a full anti-entropy repair
// reconciles the rest.
package dist

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpclog/client"
	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

// Config parameterizes one node.
type Config struct {
	// ID is this process's ring member id, unique in the cluster;
	// required only with Peers.
	ID string
	// AdvertiseURL is the base URL peers reach this process at; carried in
	// heartbeats for status display.
	AdvertiseURL string
	// Peers maps every other member id to its base URL — the static seed
	// list. The same membership (Peers ∪ {ID}) must be configured on every
	// process so all of them compute identical replica placement. Empty:
	// this process hosts all Store.Nodes members.
	Peers map[string]string
	// Store configures this member's store (RF, virtual nodes, Dir for
	// its commitlog and segments, the object-storage tier: each cluster
	// process should point at the same bucket, whose objects are
	// namespaced per member id). With Peers, Open sets Members from ID
	// and Peers, and Store.ID to ID. Store.Logger also receives the
	// cluster runtime's events (peer up/down, hint delivery, repair
	// results); nil discards them.
	Store store.Config
	// MachineNodes sizes the bootstrap nodeinfos load (0: the full
	// machine, 19200).
	MachineNodes int

	// HeartbeatInterval is the peer probe period (default 250ms).
	HeartbeatInterval time.Duration
	// FailAfter marks a peer down after this many consecutive probe
	// failures (default 3).
	FailAfter int
	// RPCTimeout bounds every cluster-internal RPC: replication applies,
	// shard bounds and partition lists, heartbeats, and each wait for a
	// shard scan's progress (its headers, then every next row) — a
	// flowing scan has no total deadline (default 5s).
	RPCTimeout time.Duration

	// ServerConfig tunes the HTTP surface (zero value = server defaults).
	ServerConfig server.Config
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Peers) > 0 && c.ID == "" {
		return c, fmt.Errorf("dist: Config.ID is required with Peers")
	}
	if _, clash := c.Peers[c.ID]; clash {
		return c, fmt.Errorf("dist: Peers contains own id %q", c.ID)
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	return c, nil
}

// peerState is the liveness ledger for one peer.
type peerState struct {
	url      string
	cli      *client.Client
	up       bool
	misses   int
	lastSeen time.Time
}

// Node is one running server: the store (all members, or one member of a
// cluster) plus compute and query engines, the HTTP server (serve it
// yourself — Node does not listen), and the heartbeat/repair runtime.
type Node struct {
	Cfg     Config
	DB      *store.DB
	Compute *compute.Engine
	Query   *query.Engine
	Server  *server.Server

	mu       sync.Mutex
	peers    map[string]*peerState
	stop     chan struct{}
	done     chan struct{}
	bg       sync.WaitGroup // in-flight rejoin repairs
	repairMu sync.Mutex     // serializes rejoin repairs
	closed   bool

	lg *slog.Logger
	// Per-peer wire health, populated at Open and immutable after:
	// replication RPC latency (recorded by the remoteReplica transports)
	// and heartbeat round-trip time (recorded by probePeer). Exposed on
	// /v1/metrics through CollectMetrics.
	repLat map[string]*obs.Hist
	hbRTT  map[string]*obs.Hist
}

// Open assembles and starts a node: the store (every member local, or
// this member's slice with wire transports to every peer), bootstrap at
// consistency One (peers may be down), the compute and query engines
// (one worker per local member), the HTTP server with the cluster backend
// attached, and the heartbeat loop.
func Open(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(cfg.Peers) > 0 {
		members := make([]string, 0, len(cfg.Peers)+1)
		members = append(members, cfg.ID)
		for id := range cfg.Peers {
			members = append(members, id)
		}
		sort.Strings(members)
		cfg.Store.Members = members
		cfg.Store.ID = cfg.ID
	}
	db, err := store.OpenDurable(cfg.Store)
	if err != nil {
		return nil, err
	}
	lg := cfg.Store.Logger
	if lg == nil {
		lg = obs.Discard()
	}
	n := &Node{
		Cfg:    cfg,
		DB:     db,
		peers:  make(map[string]*peerState, len(cfg.Peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		lg:     lg.With("node", cfg.ID),
		repLat: make(map[string]*obs.Hist, len(cfg.Peers)),
		hbRTT:  make(map[string]*obs.Hist, len(cfg.Peers)),
	}
	for id, url := range cfg.Peers {
		cli := client.New(url, client.WithRetries(1))
		n.peers[id] = &peerState{url: url, cli: cli}
		n.repLat[id] = &obs.Hist{}
		n.hbRTT[id] = &obs.Hist{}
		if err := db.AttachRemote(id, &remoteReplica{id: id, cli: cli, timeout: cfg.RPCTimeout, lat: n.repLat[id]}); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := ingest.BootstrapCL(db, cfg.MachineNodes, store.One); err != nil {
		db.Close()
		return nil, err
	}
	n.Compute = compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	n.Query = query.New(db, n.Compute)
	n.Server = server.NewWithConfig(n.Query, db, n.Compute, cfg.ServerConfig)
	n.Server.AttachCluster(n)
	go n.heartbeatLoop()
	return n, nil
}

// Close stops the heartbeat loop, drains the server's watch hub, and
// closes the store. Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	<-n.done
	n.bg.Wait()
	n.Server.Close()
	return n.DB.Close()
}

// Import is the batch ETL of Section III-D: it parses console lines and
// job-log lines in parallel and loads events and application runs at
// consistency One, then refreshes the eventsynopsis row of every hour
// that holds events.
func (n *Node) Import(ctx context.Context, lines, jobLines []string) (ingest.BatchResult, error) {
	nparts := 4 * len(n.Compute.Workers())
	res, err := ingest.BatchImport(n.Compute, n.DB, lines, store.One, nparts)
	if err != nil {
		return res, err
	}
	jres, err := ingest.BatchImportJobs(n.Compute, n.DB, jobLines, store.One, nparts)
	if err != nil {
		return res, err
	}
	res.RunsLoaded = jres.RunsLoaded
	res.Malformed += jres.Malformed
	pkeys, err := n.DB.PartitionKeys(ctx, model.TableEventByTime)
	if err != nil {
		return res, err
	}
	var hours []int64 // from the "<hour>:<type>" partition keys
	for _, pkey := range pkeys {
		h, _, _ := strings.Cut(pkey, ":")
		if hour, err := strconv.ParseInt(h, 10, 64); err == nil {
			hours = append(hours, hour)
		}
	}
	slices.Sort(hours)
	return res, ingest.RefreshSynopsis(n.Compute, n.DB, slices.Compact(hours), store.One)
}

// CollectMetrics implements obs.Collector: the server folds per-peer
// replication latency, heartbeat RTT, liveness, and hint backlog into
// /v1/metrics.
func (n *Node) CollectMetrics(w *obs.Writer) {
	ring := n.DB.Ring()
	for _, id := range obs.SortedKeys(n.repLat) {
		w.Hist("hpclog_dist_replication_seconds",
			"Replication RPC latency to one peer (whole chunked Apply).",
			n.repLat[id], "peer", id)
	}
	for _, id := range obs.SortedKeys(n.hbRTT) {
		w.Hist("hpclog_dist_heartbeat_rtt_seconds",
			"Heartbeat probe round-trip time to one peer.",
			n.hbRTT[id], "peer", id)
	}
	for _, id := range n.DB.Members() {
		up := 0.0
		if ring.IsUp(id) {
			up = 1
		}
		w.Gauge("hpclog_dist_peer_up",
			"Liveness verdict for one ring member (1 = up).", up, "peer", id)
	}
	for _, id := range n.DB.Members() {
		if n.DB.IsLocalMember(id) {
			continue
		}
		w.Gauge("hpclog_dist_hint_backlog_rows",
			"Hinted-handoff rows queued for one peer.",
			float64(n.DB.PendingHints(id)), "peer", id)
	}
}

// heartbeatLoop probes every peer each interval: a success marks the peer
// up (delivering hints and kicking a repair when it was down), FailAfter
// consecutive misses mark it down. Each exchange also folds the peer's
// logical clock into ours, so watch subscribers here wake for writes
// acked anywhere in the cluster.
func (n *Node) heartbeatLoop() {
	defer close(n.done)
	t := time.NewTicker(n.Cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		// Probe immediately on start so a cluster converges to "all up"
		// without waiting out a full interval.
		n.probePeers()
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
	}
}

// probePeers heartbeats every peer once, in parallel.
func (n *Node) probePeers() {
	n.mu.Lock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			n.probePeer(id)
		}(id)
	}
	wg.Wait()
}

func (n *Node) probePeer(id string) {
	n.mu.Lock()
	ps := n.peers[id]
	cli := ps.cli
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), n.Cfg.RPCTimeout)
	defer cancel()
	started := time.Now()
	resp, err := cli.Heartbeat(ctx, api.HeartbeatRequest{
		From:    n.Cfg.ID,
		URL:     n.Cfg.AdvertiseURL,
		WriteTS: n.DB.WriteTS(),
	})
	if err != nil {
		n.peerMissed(id)
		return
	}
	if h := n.hbRTT[id]; h != nil {
		h.Record(time.Since(started))
	}
	n.DB.NoteRemoteProgress(resp.WriteTS)
	n.peerSeen(id)
}

// peerSeen records a successful exchange with a peer: reset the miss
// counter, and if it was down, bring it back — deliver queued hints and
// run anti-entropy so the peer converges on everything it missed.
func (n *Node) peerSeen(id string) {
	n.mu.Lock()
	ps, ok := n.peers[id]
	if !ok || n.closed {
		n.mu.Unlock()
		return
	}
	ps.misses = 0
	ps.lastSeen = time.Now()
	wasDown := !ps.up
	ps.up = true
	if wasDown {
		// Reserve the repair slot under the lock so Close cannot slip
		// between the up-transition and the goroutine spawn.
		n.bg.Add(1)
	}
	n.mu.Unlock()
	if !wasDown {
		// Steady state: opportunistically drain hints that accumulated from
		// transient replication failures while the peer was nominally up.
		if n.DB.PendingHints(id) > 0 {
			if delivered, err := n.DB.DeliverHints(id); err == nil && delivered > 0 {
				n.lg.Info("dist: delivered hinted rows", "peer", id, "rows", delivered)
			}
		}
		return
	}
	delivered, err := n.DB.RecoverNode(id)
	if err != nil {
		n.lg.Warn("dist: peer up, hint delivery failed", "peer", id, "rows", delivered, "err", err)
	} else {
		n.lg.Info("dist: peer up", "peer", id, "hinted_rows", delivered)
	}
	go func() {
		defer n.bg.Done()
		n.repairAll(id)
	}()
}

// peerMissed records a failed probe; FailAfter consecutive misses take the
// peer down.
func (n *Node) peerMissed(id string) {
	n.mu.Lock()
	ps, ok := n.peers[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	ps.misses++
	takeDown := ps.up && ps.misses >= n.Cfg.FailAfter
	if takeDown {
		ps.up = false
	}
	n.mu.Unlock()
	if takeDown {
		n.DB.MarkDown(id)
		n.lg.Warn("dist: peer down", "peer", id, "missed_heartbeats", n.Cfg.FailAfter)
	}
}

// repairAll runs full anti-entropy over every table — the rejoin
// backstop behind hinted handoff (hints cover writes coordinated here;
// repair covers divergence however it arose).
func (n *Node) repairAll(trigger string) {
	n.repairMu.Lock()
	defer n.repairMu.Unlock()
	total := 0
	for _, table := range n.DB.Tables() {
		copied, err := n.DB.Repair(table)
		total += copied
		if err != nil {
			n.lg.Error("dist: rejoin repair failed", "table", table, "trigger", trigger, "err", err)
			return
		}
	}
	if total > 0 {
		n.lg.Info("dist: rejoin anti-entropy complete", "trigger", trigger, "rows_copied", total)
	}
}

// Status implements server.ClusterBackend.
func (n *Node) Status() api.ClusterStatus {
	ring := n.DB.Ring()
	shares := ring.Ownership()
	st := api.ClusterStatus{
		Self:    n.Cfg.ID,
		RF:      ring.ReplicationFactor(),
		WriteTS: n.DB.WriteTS(),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.DB.Members() {
		m := api.MemberStatus{
			ID:           id,
			Local:        n.DB.IsLocalMember(id),
			Up:           ring.IsUp(id),
			Share:        shares[id],
			PendingHints: n.DB.PendingHints(id),
		}
		if id == n.Cfg.ID {
			m.URL = n.Cfg.AdvertiseURL
		} else if ps, ok := n.peers[id]; ok {
			m.URL = ps.url
			if !ps.lastSeen.IsZero() {
				m.LastSeenUnixMS = ps.lastSeen.UnixMilli()
			}
		}
		st.Members = append(st.Members, m)
	}
	return st
}

// Heartbeat implements server.ClusterBackend: receiving a probe proves
// the sender is alive, so it counts as a successful exchange in the other
// direction too — liveness converges from either side of a partition
// heal.
func (n *Node) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, *api.Error) {
	n.mu.Lock()
	_, known := n.peers[req.From]
	n.mu.Unlock()
	if !known {
		return api.HeartbeatResponse{}, api.Errorf(api.CodeWrongShard,
			"heartbeat from %q: not a member of this cluster", req.From)
	}
	n.DB.NoteRemoteProgress(req.WriteTS)
	n.peerSeen(req.From)
	return api.HeartbeatResponse{Node: n.Cfg.ID, WriteTS: n.DB.WriteTS()}, nil
}
