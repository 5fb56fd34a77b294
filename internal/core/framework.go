// Package core wires the complete log analytics framework of the paper
// (Fig 3) in one process: the backend distributed NoSQL database, the big
// data processing engine co-located with it, the message bus for
// streaming ingestion, the query processing engine, and the web-facing
// analytic server. Analytics are asked of the query engine (the /v1 ops);
// core adds only the ingest entries the daemons use and the Section V
// work that has no op.
package core

import (
	"fmt"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/bus"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/predict"
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
	Broker  *bus.Broker
	Query   *query.Engine
	Loader  *ingest.Loader
}

// New builds a framework: it opens the store cluster, bootstraps the data
// model, pairs one compute worker with every store node (the data-locality
// deployment of Section III-A), and starts a message broker for streaming.
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
		Broker:  bus.NewBroker(),
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

// LoadGroundTruth loads pre-parsed events and runs directly, bypassing the
// text parsing step (useful for benchmarks isolating the storage path).
func (f *Framework) LoadGroundTruth(c *logs.Corpus) error {
	if err := f.Loader.LoadEvents(c.Events); err != nil {
		return err
	}
	return f.Loader.LoadRuns(c.Runs)
}

// RefreshSynopsis recomputes the eventsynopsis table over [from, to).
func (f *Framework) RefreshSynopsis(from, to time.Time) error {
	return ingest.RefreshSynopsis(f.Compute, f.DB, model.HoursIn(from, to), f.Loader.CL)
}

// NewStreamer creates (or reuses) the streaming topic and returns a
// streamer that consumes it into the store.
func (f *Framework) NewStreamer(topic, consumerID string, partitions int) (*ingest.Streamer, error) {
	if err := f.Broker.CreateTopic(topic, partitions); err != nil {
		return nil, err
	}
	return ingest.NewStreamer(f.Broker, topic, consumerID, f.Loader)
}

// Publish sends one event occurrence onto a streaming topic.
func (f *Framework) Publish(topic string, e model.Event) error {
	return ingest.PublishEvent(f.Broker, topic, e)
}

// --- Section V work without a /v1 op ---

// scan is the scan configuration of the Section V entries: the query
// engine's defaults.
var scan = analytics.ScanConfig{}

// DetectComposite scans [from, to) for a registered composite event
// definition and returns the synthesized composite events.
func (f *Framework) DetectComposite(def mining.CompositeDef, from, to time.Time) ([]model.Event, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	return mining.DetectComposite(events, def)
}

// TrainPredictor fits a failure-prediction model on the events of
// [from, to) (see internal/predict; the Section V "machine learning"
// extension).
func (f *Framework) TrainPredictor(from, to time.Time, cfg predict.Config) (*predict.Model, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	return predict.Train(events, cfg)
}
