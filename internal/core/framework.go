// Package core wires the complete log analytics framework of the paper
// (Fig 3) in one process: the backend distributed NoSQL database, the big
// data processing engine co-located with it, the query processing
// engine, and the web-facing analytic server. Analytics are asked of the
// query engine (the /v1 ops); core adds only the ingest entries the
// daemons use.
package core

import (
	"fmt"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

// Options configures a framework instance.
type Options struct {
	// Store configures the backend store cluster. Its zero value is the
	// paper's CADES deployment in memory: 32 nodes, each paired with a
	// compute worker, at RF 3 (see store.Config for the durable engine,
	// the commitlog and the object-storage tier). Store.Logger also
	// receives the analytic server's records.
	Store store.Config
	// MachineNodes is the number of simulated Titan compute nodes loaded
	// into nodeinfos (0: the full machine, 19200).
	MachineNodes int
	// Consistency is the loader's write consistency (zero value: One).
	Consistency store.Consistency
}

// Framework is a fully wired analytics stack.
type Framework struct {
	DB      *store.DB
	Compute *compute.Engine
	Query   *query.Engine
	Loader  *ingest.Loader
}

// New builds a framework: it opens the store cluster, bootstraps the data
// model, pairs one compute worker with every store node (the data-locality
// deployment of Section III-A).
func New(opts Options) (*Framework, error) {
	db, err := store.OpenDurable(opts.Store)
	if err != nil {
		return nil, fmt.Errorf("core: open store: %w", err)
	}
	if err := ingest.Bootstrap(db, opts.MachineNodes); err != nil {
		db.Close()
		return nil, fmt.Errorf("core: bootstrap: %w", err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	return &Framework{
		DB:      db,
		Compute: eng,
		Query:   query.New(db, eng),
		Loader:  &ingest.Loader{DB: db, CL: opts.Consistency},
	}, nil
}

// Close shuts down the durable storage engine (background compactor,
// commitlogs, segment files). A no-op for in-memory frameworks.
func (f *Framework) Close() error { return f.DB.Close() }

// Server constructs the web-facing analytic server: the /v1 wire
// protocol (typed envelopes, cursor pagination, NDJSON streaming, the
// push-based watch hub). A nil cfg.Logger takes the store's. On shutdown
// call server.Close before Framework.Close so parked watch subscribers
// drain before the storage engine goes away.
func (f *Framework) Server(cfg server.Config) *server.Server {
	if cfg.Logger == nil {
		cfg.Logger = f.DB.Config().Logger
	}
	return server.NewWithConfig(f.Query, f.DB, f.Compute, cfg)
}

// ImportCorpus batch-imports a raw log corpus (console lines plus job
// records) through the parallel ETL path, then refreshes the synopsis.
func (f *Framework) ImportCorpus(c *logs.Corpus) (ingest.BatchResult, error) {
	lines := make([]string, len(c.Lines))
	for i, l := range c.Lines {
		lines[i] = l.Format()
	}
	nparts := 4 * len(f.Compute.Workers())
	res, err := ingest.BatchImport(f.Compute, f.DB, lines, f.Loader.CL, nparts)
	if err != nil {
		return res, err
	}
	jres, err := ingest.BatchImportJobs(f.Compute, f.DB, c.JobLines, f.Loader.CL, nparts)
	if err != nil {
		return res, err
	}
	res.RunsLoaded = jres.RunsLoaded
	res.Malformed += jres.Malformed
	if len(c.Events) > 0 {
		from := c.Events[0].Time
		to := c.Events[len(c.Events)-1].Time.Add(time.Second)
		if err := f.RefreshSynopsis(from, to); err != nil {
			return res, err
		}
	}
	return res, nil
}

// RefreshSynopsis recomputes the eventsynopsis table over [from, to).
func (f *Framework) RefreshSynopsis(from, to time.Time) error {
	return ingest.RefreshSynopsis(f.Compute, f.DB, model.HoursIn(from, to), f.Loader.CL)
}
