// Command hpclogd is the analytic server of Fig 3: the backend store, the
// co-located compute engine, and the v1 REST/JSON wire protocol (typed
// queries, cursor pagination, NDJSON streaming, push-based watch).
//
// Without -peers one process hosts every store member. It serves a
// directory written by ingestd or a previous run (startup replays the
// commitlog), or a demo corpus generated with -generate — without
// -data-dir into a fresh temporary directory, commitlog unsynced, that is
// removed when the process exits:
//
//	hpclogd -data-dir /tmp/titan/data
//	hpclogd -generate -hours 3
//
// With -id and -peers the process is one node of a multi-process cluster.
// Each process owns a slice of the consistent-hash ring — its own
// commitlog and segment files under -data-dir — and is configured with
// the same static member list on every node. Writes it coordinates
// replicate to peer processes over /v1/replicate with quorum acks; reads
// and queries scatter-gather over /v1/shard/*, so any node answers any
// query with exactly the bytes a single-process server would produce.
// Liveness is heartbeat-based: a peer missing -fail-after consecutive
// probes is marked down (writes queue hints for it), and on its return
// hinted handoff plus anti-entropy repair re-converge it. A 3-node
// cluster on one machine:
//
//	hpclogd -id a -listen :8081 -peers b=http://localhost:8082,c=http://localhost:8083 -data-dir /tmp/hpclog/a
//	hpclogd -id b -listen :8082 -peers a=http://localhost:8081,c=http://localhost:8083 -data-dir /tmp/hpclog/b
//	hpclogd -id c -listen :8083 -peers a=http://localhost:8081,b=http://localhost:8082 -data-dir /tmp/hpclog/c
//
// SIGINT/SIGTERM shut down gracefully: heartbeats stop, watch subscribers
// drain, in-flight requests complete, then the storage engine closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hpclog/internal/dist"
	"hpclog/internal/logs"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// parsePeers parses "id=url,id=url" into a map.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = url
	}
	return peers, nil
}

var (
	id          = flag.String("id", "", "this node's ring member id (required with -peers, unique per cluster)")
	listen      = flag.String("listen", ":8080", "listen address")
	advertise   = flag.String("advertise", "", "base URL peers reach this node at (default derived from -listen)")
	peersFlag   = flag.String("peers", "", "comma-separated id=url list of every other member (empty = this process hosts every member)")
	dataDir     = flag.String("data-dir", "", "storage directory (from ingestd or a previous run); recovery replays the commitlog. Empty = a fresh temporary directory, commitlog unsynced, removed at exit")
	walTolerate = flag.Bool("wal-tolerate-corrupt", false, "truncate a corrupt commitlog tail instead of refusing to open; records after the damage are lost")
	generate    = flag.Bool("generate", false, "generate and import a demo corpus at startup")
	hours       = flag.Float64("hours", 3, "demo corpus window (with -generate)")
	cabinets    = flag.Int("cabinets", 8, "demo corpus cabinets (with -generate)")
	storeNodes  = flag.Int("store-nodes", 1, "store members hosted in this process (without -peers)")
	rf          = flag.Int("rf", 3, "replication factor (capped at member count: 1 for the one member hosted by default)")
	vnodes      = flag.Int("vnodes", 64, "virtual nodes per member")
	machines    = flag.Int("machine-nodes", 0, "bootstrap topology size (nodeinfos; 0 = the whole machine)")
	hbEvery     = flag.Duration("heartbeat-interval", 250*time.Millisecond, "peer probe period")
	failAfter   = flag.Int("fail-after", 3, "consecutive missed heartbeats before a peer is marked down")
	rpcWait     = flag.Duration("rpc-timeout", 5*time.Second, "cluster-internal RPC timeout")
	drainWait   = flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests")
	logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat   = flag.String("log-format", "text", "log format: text or json")
	pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty disables")
	slowQuery   = flag.Duration("slow-query", 0, "slow-query log threshold for /v1/debug/slow (0 = 500ms)")

	tierBackend  = flag.String("tier", "", "object-storage tier backend: fs or s3 (empty disables; requires -data-dir)")
	tierDir      = flag.String("tier-dir", "", "fs tier: object root directory")
	tierEndpoint = flag.String("tier-endpoint", "", "s3 tier: endpoint URL (e.g. http://minio:9000)")
	tierBucket   = flag.String("tier-bucket", "", "s3 tier: bucket name")
	tierRegion   = flag.String("tier-region", "", "s3 tier: region (default us-east-1)")
	tierCacheMB  = flag.Int64("tier-cache-mb", 64, "block-cache budget for evicted reads, in MiB")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hpclogd: ")
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGINT/SIGTERM. Every exit returns through it, so a
// temporary store directory is removed on failures too.
func run() error {
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lg := obs.NewLogger(os.Stderr, lvl, *logFormat).With("component", "hpclogd")
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	// Caught from here on, so a signal during startup still unwinds run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := *dataDir
	if dir == "" {
		if *tierBackend != "" {
			// A fresh directory has an empty TIER manifest, and open deletes
			// every object under the node's prefix that the manifest does not
			// name: the tier would lose whatever a real directory put there.
			return errors.New("-tier requires -data-dir")
		}
		if dir, err = os.MkdirTemp("", "hpclogd-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	if *pprofAddr != "" {
		// pprof handlers register on http.DefaultServeMux; serve them on a
		// side listener so profiling never rides the public API address.
		go func() {
			lg.Error("pprof listener failed", "err", http.ListenAndServe(*pprofAddr, nil))
		}()
		lg.Info("pprof listening", "addr", *pprofAddr)
	}
	adv := *advertise
	if adv == "" {
		// ":8081" has no host — peers reach it via localhost; a full
		// host:port listen address advertises as-is.
		if strings.HasPrefix(*listen, ":") {
			adv = "http://localhost" + *listen
		} else {
			adv = "http://" + *listen
		}
	}

	node, err := dist.Open(dist.Config{
		ID:           *id,
		AdvertiseURL: adv,
		Peers:        peers,
		Store: store.Config{
			Nodes:                  *storeNodes,
			RF:                     *rf,
			VNodes:                 *vnodes,
			Dir:                    dir,
			WALNoSync:              *dataDir == "",
			WALTolerateCorruptTail: *walTolerate,
			Logger:                 lg,
			Tier: objstore.Config{
				Backend:    *tierBackend,
				Dir:        *tierDir,
				Endpoint:   *tierEndpoint,
				Bucket:     *tierBucket,
				Region:     *tierRegion,
				AccessKey:  os.Getenv("HPCLOG_TIER_ACCESS_KEY"),
				SecretKey:  os.Getenv("HPCLOG_TIER_SECRET_KEY"),
				CacheBytes: *tierCacheMB << 20,
			},
		},
		MachineNodes:      *machines,
		HeartbeatInterval: *hbEvery,
		FailAfter:         *failAfter,
		RPCTimeout:        *rpcWait,
		ServerConfig:      server.Config{Logger: lg, SlowQueryThreshold: *slowQuery},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	st := node.DB.StorageStats()
	lg.Info("durable store opened", "dir", dir,
		"disk_segments", st.DiskSegments, "disk_mb", float64(st.DiskBytes)/(1<<20),
		"replayed_records", st.ReplayedRecords, "replayed_rows", st.ReplayedRows)
	if *generate {
		cfg := logs.DefaultConfig()
		cfg.Duration = time.Duration(*hours * float64(time.Hour))
		cfg.Nodes = *cabinets * topology.NodesPerCabinet
		for i := range cfg.Storms {
			cfg.Storms[i].Start = cfg.Start.Add(cfg.Duration / 2)
		}
		lg.Info("generating demo corpus", "window", cfg.Duration, "nodes", cfg.Nodes)
		corpus := logs.Generate(cfg)
		lines := make([]string, len(corpus.Lines))
		for i, l := range corpus.Lines {
			lines[i] = l.Format()
		}
		res, err := node.Import(context.Background(), lines, corpus.JobLines)
		if err != nil {
			return err
		}
		lg.Info("corpus imported", "events", res.EventsLoaded, "runs", res.RunsLoaded)
	}
	lg.Info("serving", "id", *id, "members", node.DB.Members(),
		"rf", node.DB.Ring().ReplicationFactor(), "listen", *listen)

	hs := &http.Server{Addr: *listen, Handler: node.Server}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: wake parked watch subscribers first so long-lived
	// streams do not hold Shutdown open, drain in-flight requests, then
	// (deferred) stop heartbeats and close the storage engine.
	lg.Info("signal received, draining", "timeout", *drainWait)
	node.Server.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("shutdown error", "err", err)
	}
	lg.Info("drained; closing node")
	return nil
}
