package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"hpclog/client"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

// Store geometry: the production defaults (RF 3, 64 vnodes, 4096-row
// flush threshold, 4 segments per partition) over four in-process store
// nodes — enough members for RF 3 to place replicas on distinct nodes
// without drowning two cores in per-node bookkeeping.
const storeNodes = 4

// stack is one in-process deployment, wired from the same public
// constructors cmd/loadgen's selfhost uses (core.Options does not expose
// CompactInterval): durable store → bootstrap → compute engine → query
// engine → server on a loopback listener.
type stack struct {
	db   *store.DB
	comp *compute.Engine
	eng  *query.Engine
	srv  *server.Server
	hs   *http.Server
	url  string
}

// storeConfig is the durable configuration of every workload. background
// selects the production 500 ms compactor; the read-only workloads and
// every bulk load switch it off and drive Flush/Compact explicitly, so
// maintenance never runs inside a timed span by accident.
func storeConfig(dir string, background bool, tier objstore.Config) store.Config {
	cfg := store.Config{
		Nodes:         storeNodes,
		Dir:           dir,
		WALSyncPeriod: 2 * time.Millisecond, // periodic group commit, the high-rate ingest posture
		Tier:          tier,
	}
	if !background {
		cfg.CompactInterval = -1
	}
	return cfg
}

// openStore opens (or reopens) the durable store and the engines over it.
func openStore(cfg store.Config, machineNodes int) (*stack, error) {
	db, err := store.OpenDurable(cfg)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	if err := ingest.Bootstrap(db, machineNodes); err != nil {
		db.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	return &stack{db: db, comp: comp, eng: query.New(db, comp)}, nil
}

// serve puts the analytic server on a loopback port.
func (s *stack) serve() error {
	s.srv = server.NewWithConfig(s.eng, s.db, s.comp, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv}
	go s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	s.url = "http://" + ln.Addr().String()
	return nil
}

// newClient returns an SDK client with its own connection pool (one
// load-generating connection) and retries off: an overloaded or failed
// answer must be counted, not retried into extra load.
func (s *stack) newClient() *benchClient {
	c := &benchClient{}
	c.Client = client.New(s.url,
		client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: countingTransport{
			rt:    &http.Transport{MaxIdleConnsPerHost: 4},
			bytes: &c.bytes,
		}}))
	return c
}

// benchClient is an SDK client that counts the response bytes it reads.
type benchClient struct {
	*client.Client
	bytes atomic.Int64
}

func (s *stack) close() error {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
		cancel()
	}
	return s.db.Close()
}

// bulkImport runs the batch ETL path over the raw corpus — parse, dual
// table load, job load, synopsis refresh — exactly as core.ImportCorpus
// does, then compacts to one segment per partition so the store is
// quiescent. It returns the number of events the loader reported.
func (s *stack) bulkImport(c *corpus) (int, error) {
	nparts := 4 * len(s.comp.Workers())
	res, err := ingest.BatchImport(s.comp, s.db, c.lines, store.Quorum, nparts)
	if err != nil {
		return 0, fmt.Errorf("batch import: %w", err)
	}
	if _, err := ingest.BatchImportJobs(s.comp, s.db, c.jobs, store.Quorum, nparts); err != nil {
		return 0, fmt.Errorf("batch import jobs: %w", err)
	}
	from := c.cfg.Start
	if err := ingest.RefreshSynopsis(s.comp, s.db, model.HoursIn(from, from.Add(c.cfg.Duration)), store.Quorum); err != nil {
		return 0, fmt.Errorf("refresh synopsis: %w", err)
	}
	if _, err := s.db.Compact(); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	return res.EventsLoaded, nil
}
