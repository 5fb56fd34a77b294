// Command analyticsd is the analytic server of Fig 3: it hosts the
// backend store cluster plus the co-located compute engine, and serves the
// v1 REST/JSON wire protocol (typed queries, cursor pagination, NDJSON
// streaming, push-based watch).
//
// Data comes from a durable data directory written by ingestd (or by a
// previous durable analyticsd run — startup replays the commitlog) or —
// for demos — from a corpus generated in-process with -generate.
//
// SIGINT/SIGTERM shut down gracefully: the watch hub drains its
// subscribers, in-flight requests complete under http.Server.Shutdown,
// and only then does the framework close the durable storage engine.
//
// Usage:
//
//	analyticsd -data-dir /tmp/titan/data -addr :8080
//	analyticsd -generate -hours 3 -addr :8080
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
	"syscall"
	"time"

	"hpclog/internal/core"
	"hpclog/internal/logs"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyticsd: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataDir     = flag.String("data-dir", "", "durable storage directory (from ingestd or a previous run); recovery replays the commitlog")
		walTolerate = flag.Bool("wal-tolerate-corrupt", false, "truncate a corrupt commitlog tail instead of refusing to open; records after the damage are lost (with -data-dir)")
		generate    = flag.Bool("generate", false, "generate a demo corpus instead of serving a data directory")
		hours       = flag.Float64("hours", 3, "demo corpus window (with -generate)")
		cabinets    = flag.Int("cabinets", 8, "demo corpus cabinets (with -generate)")
		storeNodes  = flag.Int("store-nodes", 32, "store cluster size")
		rf          = flag.Int("rf", 3, "replication factor")
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
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	lg := obs.NewLogger(os.Stderr, lvl, *logFormat).With("component", "analyticsd")

	if *pprofAddr != "" {
		// pprof handlers register on http.DefaultServeMux; serve them on a
		// side listener so profiling never rides the public API address.
		go func() {
			lg.Error("pprof listener failed", "err", http.ListenAndServe(*pprofAddr, nil))
		}()
		lg.Info("pprof listening", "addr", *pprofAddr)
	}

	fw, err := core.New(core.Options{Store: store.Config{
		Nodes: *storeNodes, RF: *rf, Dir: *dataDir,
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
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	switch {
	case *generate:
		cfg := logs.DefaultConfig()
		cfg.Duration = time.Duration(*hours * float64(time.Hour))
		cfg.Nodes = *cabinets * topology.NodesPerCabinet
		for i := range cfg.Storms {
			cfg.Storms[i].Start = cfg.Start.Add(cfg.Duration / 2)
		}
		lg.Info("generating demo corpus", "window", cfg.Duration, "nodes", cfg.Nodes)
		corpus := logs.Generate(cfg)
		res, err := fw.ImportCorpus(corpus)
		if err != nil {
			log.Fatal(err)
		}
		lg.Info("corpus imported", "events", res.EventsLoaded, "runs", res.RunsLoaded)
	case *dataDir != "":
		st := fw.DB.StorageStats()
		lg.Info("durable store opened", "dir", *dataDir,
			"disk_segments", st.DiskSegments, "disk_mb", float64(st.DiskBytes)/(1<<20),
			"replayed_records", st.ReplayedRecords, "replayed_rows", st.ReplayedRows)
	default:
		log.Fatal("need -data-dir DIR or -generate")
	}

	srv := fw.Server(server.Config{SlowQueryThreshold: *slowQuery})
	hs := &http.Server{Addr: *addr, Handler: srv}

	fmt.Printf("serving on %s\n", *addr)
	fmt.Println("  POST /v1/query           JSON query (see internal/query.Request; page block for cursors)")
	fmt.Println("  POST /v1/query/stream    NDJSON row stream (events, runs)")
	fmt.Println("  POST /v1/cql             CQL statement (page block for SELECT cursors)")
	fmt.Println("  POST /v1/cql/stream      NDJSON SELECT rows")
	fmt.Println("  GET  /v1/watch           push-based event subscription (NDJSON)")
	fmt.Println("  GET  /v1/types|stats|storage, POST /v1/storage/compact")
	fmt.Println("  GET  /v1/metrics         Prometheus text exposition")
	fmt.Println("  GET  /v1/debug/slow      slow-query log (see -slow-query)")
	fmt.Println("  GET  /v1/protocol        version negotiation")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: wake and complete every parked watch
	// subscriber first — long-lived streams would otherwise hold
	// Shutdown open — then drain in-flight requests, then (deferred)
	// close the storage engine.
	lg.Info("signal received, draining", "timeout", *drainWait)
	srv.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("shutdown error", "err", err)
	}
	lg.Info("drained; closing storage engine")
}
