package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/cql"
	"hpclog/internal/dist"
	"hpclog/internal/enginetest"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/testutil"
)

// testCluster is an in-process multi-node cluster: n dist.Nodes, each
// serving its HTTP surface on a real loopback listener, reaching each
// other over the wire exactly as separate processes would. Only the
// process boundary is simulated; every replication/scatter byte crosses a
// TCP socket.
type testCluster struct {
	t       *testing.T
	ids     []string
	addrs   []string
	urls    []string
	dirs    []string
	nodes   []*dist.Node
	servers []*http.Server
	clients []*client.Client

	rf        int
	machines  int
	serverCfg server.Config
	// tierDir, when non-empty, is the fs-backed object store every member
	// shares (the "bucket"); flushThreshold rides along so the corpus
	// seals segments small enough to tier.
	tierDir        string
	flushThreshold int
	// walNoSync leaves the members' commitlogs unsynced: a cluster no test
	// restarts has no use for fsync.
	walNoSync bool
}

// startCluster boots an n-node cluster, each node over its own temp data
// directory. durable syncs the commitlogs (restart tests).
func startCluster(t *testing.T, n, rf, machines int, durable bool) *testCluster {
	return startClusterCfg(t, n, rf, machines, durable, server.Config{})
}

// startClusterCfg is startCluster with an explicit per-node server
// config (the observability tests lower the slow-query threshold).
func startClusterCfg(t *testing.T, n, rf, machines int, durable bool, scfg server.Config) *testCluster {
	t.Helper()
	c := &testCluster{t: t, rf: rf, machines: machines, serverCfg: scfg,
		nodes:   make([]*dist.Node, n),
		servers: make([]*http.Server, n),
		clients: make([]*client.Client, n),
	}
	c.walNoSync = !durable
	c.boot(n)
	return c
}

// startClusterTiered boots a durable n-node cluster whose members all
// point at one shared fs-backed object store, with a flush threshold low
// enough that the corpus produces sealed, tierable segments.
func startClusterTiered(t *testing.T, n, rf, machines int) *testCluster {
	t.Helper()
	c := &testCluster{t: t, rf: rf, machines: machines,
		tierDir:        t.TempDir(),
		flushThreshold: 512,
		nodes:          make([]*dist.Node, n),
		servers:        make([]*http.Server, n),
		clients:        make([]*client.Client, n),
	}
	c.boot(n)
	return c
}

// boot allocates listeners, opens every node, and registers teardown.
func (c *testCluster) boot(n int) {
	t := c.t
	t.Helper()
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.ids = append(c.ids, fmt.Sprintf("n%d", i))
		c.addrs = append(c.addrs, ln.Addr().String())
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.dirs = append(c.dirs, t.TempDir())
	}
	for i := 0; i < n; i++ {
		c.startNode(i, lns[i])
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			c.stopNode(i)
		}
	})
}

func (c *testCluster) config(i int) dist.Config {
	peers := make(map[string]string)
	for j, id := range c.ids {
		if j != i {
			peers[id] = c.urls[j]
		}
	}
	cfg := dist.Config{
		ID:           c.ids[i],
		AdvertiseURL: c.urls[i],
		Peers:        peers,
		Store: store.Config{
			RF:             c.rf,
			VNodes:         32,
			Dir:            c.dirs[i],
			WALNoSync:      c.walNoSync,
			FlushThreshold: c.flushThreshold,
		},
		MachineNodes: c.machines,
		// Fast failure detection keeps the crash tests quick; scaled so
		// loaded CI boxes do not false-positive a down mark.
		HeartbeatInterval: testutil.Scaled(50 * time.Millisecond),
		FailAfter:         3,
		RPCTimeout:        testutil.Scaled(5 * time.Second),
		ServerConfig:      c.serverCfg,
	}
	if c.tierDir != "" {
		cfg.Store.Tier = objstore.Config{Backend: "fs", Dir: c.tierDir, CacheBytes: 1 << 20}
	}
	return cfg
}

// startNode opens node i and serves it on ln.
func (c *testCluster) startNode(i int, ln net.Listener) {
	c.t.Helper()
	node, err := dist.Open(c.config(i))
	if err != nil {
		c.t.Fatalf("open node %s: %v", c.ids[i], err)
	}
	hs := &http.Server{Handler: node.Server}
	go hs.Serve(ln)
	c.nodes[i] = node
	c.servers[i] = hs
	c.clients[i] = client.New(c.urls[i])
}

// stopNode tears node i down abruptly: the listener and every open
// connection close immediately (in-flight requests fail like a killed
// process's would), then the store closes without flushing memtables —
// on a durable node recovery must come from the commitlog, exactly as
// after a kill -9.
func (c *testCluster) stopNode(i int) {
	if c.nodes[i] == nil {
		return
	}
	c.servers[i].Close()
	c.nodes[i].Close()
	c.nodes[i] = nil
	c.servers[i] = nil
}

// restartNode brings a stopped node back on its original address.
func (c *testCluster) restartNode(i int) {
	c.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(testutil.Scaled(5 * time.Second))
	for {
		ln, err = net.Listen("tcp", c.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("rebind %s: %v", c.addrs[i], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.startNode(i, ln)
}

// waitAllUp blocks until every running node sees every member up.
func (c *testCluster) waitAllUp() {
	c.t.Helper()
	deadline := time.Now().Add(testutil.Scaled(30 * time.Second))
	for {
		allUp := true
		for _, n := range c.nodes {
			if n == nil {
				continue
			}
			for _, m := range n.Status().Members {
				if !m.Up {
					allUp = false
				}
			}
		}
		if allUp {
			return
		}
		if time.Now().After(deadline) {
			for i, n := range c.nodes {
				if n != nil {
					c.t.Logf("node %s status: %+v", c.ids[i], n.Status())
				}
			}
			c.t.Fatal("cluster never converged to all-up")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitDownAt blocks until node i sees member id down.
func (c *testCluster) waitDownAt(i int, id string) {
	c.t.Helper()
	deadline := time.Now().Add(testutil.Scaled(30 * time.Second))
	for {
		for _, m := range c.nodes[i].Status().Members {
			if m.ID == id && !m.Up {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("node %s never marked %s down", c.ids[i], id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loadCorpus loads the reference harness's corpus through node 0 — the
// coordinator — at consistency All, so every replica holds every row it
// owns before queries are compared (the identity tests assert bytes, not
// eventual convergence; the crash test covers quorum writes).
func (c *testCluster) loadCorpus(ref *enginetest.Harness) {
	c.t.Helper()
	loader := ingest.NewLoader(c.nodes[0].DB)
	loader.CL = store.All
	if err := loader.LoadEvents(ref.Corpus.Events); err != nil {
		c.t.Fatal(err)
	}
	if err := loader.LoadRuns(ref.Corpus.Runs); err != nil {
		c.t.Fatal(err)
	}
	from, to := ref.Window()
	if err := ingest.RefreshSynopsis(c.nodes[0].Compute, c.nodes[0].DB, model.HoursIn(from, to), store.All); err != nil {
		c.t.Fatal(err)
	}
}

// runCorpusIdentity executes every engine-test case against every cluster
// node and asserts each result byte-identical to the single-process
// reference, then does the same for the paginated, streamed, and CQL
// paths. This is the scatter-gather acceptance: distribution must be
// invisible in the bytes.
func runCorpusIdentity(t *testing.T, ref *enginetest.Harness, c *testCluster) {
	t.Helper()
	ctx := context.Background()

	for _, cs := range enginetest.Cases(ref) {
		t.Run(cs.Name, func(t *testing.T) {
			want, err := ref.HTTP(cs.Req)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for i, cli := range c.clients {
				got, err := cli.Do(ctx, cs.Req)
				if err != nil {
					t.Fatalf("node %s: %v", c.ids[i], err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("node %s differs from single-process reference\nwant: %.300s\ngot:  %.300s",
						c.ids[i], want, got)
				}
			}
		})
	}

	from, to := ref.Window()
	qc := query.Context{From: from.Unix(), To: to.Unix(), EventType: "MCE"}
	oneShot, err := ref.HTTP(query.Request{Op: query.OpEvents, Context: qc})
	if err != nil {
		t.Fatal(err)
	}
	var probe []query.EventRecord
	if err := json.Unmarshal(oneShot, &probe); err != nil {
		t.Fatal(err)
	}
	pageSize := len(probe)/7 + 1

	t.Run("paginated", func(t *testing.T) {
		records := []query.EventRecord{}
		cursor := ""
		for page := 0; ; page++ {
			// Round-robin pages across coordinators: a cursor minted by one
			// node must resume on any other, because it encodes a data
			// position and the data is identical everywhere.
			cli := c.clients[page%len(c.clients)]
			items, next, err := cli.EventsPage(ctx, qc, pageSize, cursor)
			if err != nil {
				t.Fatalf("page %d: %v", page, err)
			}
			records = append(records, items...)
			if next == "" {
				break
			}
			cursor = next
		}
		assertSameJSON(t, oneShot, records, "paginated events")
	})

	t.Run("streamed", func(t *testing.T) {
		for i, cli := range c.clients {
			records := []query.EventRecord{}
			if err := cli.StreamEvents(ctx, qc, func(e query.EventRecord) error {
				records = append(records, e)
				return nil
			}); err != nil {
				t.Fatalf("node %s: %v", c.ids[i], err)
			}
			assertSameJSON(t, oneShot, records, "streamed events via "+c.ids[i])
		}
	})

	t.Run("cql", func(t *testing.T) {
		stmt := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE'", from.Unix()/3600)
		refRes, err := ref.Client.Session("ONE").Execute(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(refRes.Rows) < 10 {
			t.Fatalf("reference partition too small: %d rows", len(refRes.Rows))
		}
		for i, cli := range c.clients {
			got, err := cli.Session("ONE").Execute(ctx, stmt)
			if err != nil {
				t.Fatalf("node %s: %v", c.ids[i], err)
			}
			assertSameJSON(t, mustJSON(t, refRes.Rows), got.Rows, "cql via "+c.ids[i])
		}
		// Paged and streamed CQL through one cluster node.
		var paged []string
		cursor := ""
		sess := c.clients[1%len(c.clients)].Session("ONE")
		for {
			rows, next, err := sess.Page(ctx, stmt, 16, cursor)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				paged = append(paged, r.Key)
			}
			if next == "" {
				break
			}
			cursor = next
		}
		if len(paged) != len(refRes.Rows) {
			t.Fatalf("cql paged %d rows, reference %d", len(paged), len(refRes.Rows))
		}
		for i, k := range paged {
			if k != refRes.Rows[i].Key {
				t.Fatalf("cql page row %d key %q, want %q", i, k, refRes.Rows[i].Key)
			}
		}
		streamed := 0
		if err := sess.Stream(ctx, stmt, func(r cql.ResultRow) error {
			if r.Key != refRes.Rows[streamed].Key {
				return fmt.Errorf("stream row %d key %q, want %q", streamed, r.Key, refRes.Rows[streamed].Key)
			}
			streamed++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if streamed != len(refRes.Rows) {
			t.Fatalf("cql streamed %d rows, reference %d", streamed, len(refRes.Rows))
		}
	})
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertSameJSON(t *testing.T, want json.RawMessage, got any, label string) {
	t.Helper()
	g := mustJSON(t, got)
	if !bytes.Equal(bytes.TrimSpace(g), bytes.TrimSpace(want)) {
		t.Fatalf("%s differs from reference\nwant: %.300s\ngot:  %.300s", label, want, g)
	}
}

// TestClusterCorpusByteIdentity is the distributed-correctness
// acceptance: the full engine-test corpus, loaded through a 3-process
// RF=3 cluster's coordinator, answers every case — plus the paginated,
// streamed, and CQL paths — byte-identically to a single-process stack,
// from every node.
func TestClusterCorpusByteIdentity(t *testing.T) {
	ref := enginetest.New(t)
	c := startCluster(t, 3, 3, ref.Cfg.Nodes, false)
	c.waitAllUp()
	c.loadCorpus(ref)
	runCorpusIdentity(t, ref, c)
}

// TestClusterCorpusByteIdentityRF1 repeats the identity run at RF=1,
// where every partition lives on exactly one member: any node answering
// the full corpus necessarily scatter-gathers most of its reads over the
// wire, so this variant proves the remote read/scan path itself (RF=3
// proves the merge; its reads are all replica-local).
func TestClusterCorpusByteIdentityRF1(t *testing.T) {
	ref := enginetest.New(t)
	c := startCluster(t, 3, 1, ref.Cfg.Nodes, false)
	c.waitAllUp()
	c.loadCorpus(ref)
	runCorpusIdentity(t, ref, c)
}

// TestClusterDescribeSeesPeerPartitions: DESCRIBE TABLE samples the
// table's partitions cluster-wide, so on an RF=1 cluster a member that
// hosts none of a table still reports its schema — the same one the
// single-process stack reports.
func TestClusterDescribeSeesPeerPartitions(t *testing.T) {
	ref := enginetest.New(t)
	c := startCluster(t, 3, 1, ref.Cfg.Nodes, false)
	c.waitAllUp()
	c.loadCorpus(ref)
	ctx := context.Background()
	for _, table := range []string{model.TableEventTypes, model.TableNodeInfos, model.TableEventSynopsis} {
		stmt := "DESCRIBE TABLE " + table
		want, err := ref.Client.Session("ONE").Execute(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Schema) == 0 {
			t.Fatalf("reference schema of %s is empty", table)
		}
		for i, cli := range c.clients {
			got, err := cli.Session("ONE").Execute(ctx, stmt)
			if err != nil {
				t.Fatalf("node %s: %v", c.ids[i], err)
			}
			assertSameJSON(t, mustJSON(t, want.Schema), got.Schema, stmt+" via "+c.ids[i])
		}
	}
}

// TestClusterCorpusByteIdentityTiered repeats the identity run on a
// durable 3-node cluster whose members share one fs-backed object store,
// with every sealed segment force-evicted on every member first: the
// whole corpus must come back byte-identical through coordinators whose
// local reads go through Merkle-verified object fetches.
func TestClusterCorpusByteIdentityTiered(t *testing.T) {
	ref := enginetest.New(t)
	c := startClusterTiered(t, 3, 3, ref.Cfg.Nodes)
	c.waitAllUp()
	c.loadCorpus(ref)
	ctx := context.Background()
	for i, cli := range c.clients {
		res, err := cli.TierSweep(ctx)
		if err != nil {
			t.Fatalf("node %s tier sweep: %v", c.ids[i], err)
		}
		st := res.Storage
		if st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
			t.Fatalf("node %s not fully evicted: %d tiered of %d segments (uploaded=%d evicted=%d)",
				c.ids[i], st.TieredSegments, st.DiskSegments, res.Uploaded, res.Evicted)
		}
		// The segment listing must expose a Merkle root for every evicted
		// segment — the diffable unit anti-entropy and operators key on.
		segs, err := cli.ShardSegments(ctx)
		if err != nil {
			t.Fatalf("node %s segments: %v", c.ids[i], err)
		}
		listed := 0
		for _, nl := range segs.Nodes {
			for _, si := range nl.Segments {
				listed++
				if si.Tier != "evicted" || si.Root == "" {
					t.Fatalf("node %s lists segment %d as %q (root %q) after full eviction",
						c.ids[i], si.Seq, si.Tier, si.Root)
				}
			}
		}
		if listed == 0 {
			t.Fatalf("node %s lists no segments after sweep", c.ids[i])
		}
	}
	runCorpusIdentity(t, ref, c)
}
