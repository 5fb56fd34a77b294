// Package core assembles the complete log analytics framework of the
// paper (Fig 3): the backend distributed NoSQL database, the big data
// processing engine co-located with it, the message bus for streaming
// ingestion, the query processing engine, and the web-facing analytic
// server. It is the top-level API that executables and examples use.
package core

import (
	"fmt"
	"log/slog"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/bus"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/predict"
	"hpclog/internal/profile"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Options configures a framework instance.
type Options struct {
	// StoreNodes is the number of backend database nodes. The paper's
	// CADES deployment uses 32 VMs, each running a store node paired with
	// a compute worker (default 32).
	StoreNodes int
	// RF is the replication factor (default 3).
	RF int
	// MachineNodes is the number of simulated Titan compute nodes loaded
	// into nodeinfos (default: the full machine, 19200).
	MachineNodes int
	// Consistency is the default write consistency (default Quorum).
	Consistency store.Consistency
	// FlushThreshold overrides the store's memtable flush threshold.
	FlushThreshold int
	// DataDir, when non-empty, opens the store's durable engine rooted at
	// this directory: writes go through per-node commitlogs before acking,
	// memtables flush to on-disk segment files, and New replays the
	// commitlog — recovering a previous incarnation's acked writes. Empty
	// keeps the store in memory.
	DataDir string
	// WALSyncPeriod selects the commitlog sync mode (see
	// store.Config.WALSyncPeriod): 0 = batch group-commit, > 0 = periodic.
	WALSyncPeriod time.Duration
	// WALNoSync disables commitlog fsync (bulk loads and benchmarks).
	WALNoSync bool
	// WALTolerateCorruptTail truncates a corrupt commitlog tail instead of
	// refusing to open (see store.Config.WALTolerateCorruptTail) — an
	// operator escape hatch; records after the damage are lost.
	WALTolerateCorruptTail bool
	// Tier, when Tier.Backend is non-empty, attaches the object-storage
	// tier (see store.Config.Tier): cold sealed segments are uploaded,
	// verified, and evicted; reads of evicted data go through a bounded
	// Merkle-verified block cache. Requires DataDir.
	Tier objstore.Config
	// Logger receives the storage engine's structured log records
	// (recovery warnings, compaction failures); nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.StoreNodes <= 0 {
		o.StoreNodes = 32
	}
	if o.RF <= 0 {
		o.RF = 3
	}
	if o.MachineNodes <= 0 || o.MachineNodes > topology.TotalNodes {
		o.MachineNodes = topology.TotalNodes
	}
	return o
}

// Framework is a fully wired analytics stack.
type Framework struct {
	DB      *store.DB
	Compute *compute.Engine
	Broker  *bus.Broker
	Query   *query.Engine
	Loader  *ingest.Loader
	opts    Options
}

// New builds a framework: it opens the store cluster, bootstraps the data
// model, pairs one compute worker with every store node (the data-locality
// deployment of Section III-A), and starts a message broker for streaming.
func New(opts Options) (*Framework, error) {
	opts = opts.withDefaults()
	db, err := store.OpenDurable(store.Config{
		Nodes:                  opts.StoreNodes,
		RF:                     opts.RF,
		FlushThreshold:         opts.FlushThreshold,
		Dir:                    opts.DataDir,
		WALSyncPeriod:          opts.WALSyncPeriod,
		WALNoSync:              opts.WALNoSync,
		WALTolerateCorruptTail: opts.WALTolerateCorruptTail,
		Logger:                 opts.Logger,
		Tier:                   opts.Tier,
	})
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
		opts:    opts,
	}, nil
}

// Options returns the effective options.
func (f *Framework) Options() Options { return f.opts }

// Close shuts down the durable storage engine (background compactor,
// commitlogs, segment files). A no-op for in-memory frameworks.
func (f *Framework) Close() error { return f.DB.Close() }

// Server constructs the web-facing analytic server: the /v1 wire
// protocol (typed envelopes, cursor pagination, NDJSON streaming, the
// push-based watch hub). On shutdown call server.Close before
// Framework.Close so parked watch subscribers drain before the storage
// engine goes away.
func (f *Framework) Server() *server.Server {
	return f.ServerWithConfig(server.Config{})
}

// ServerWithConfig is Server with explicit surface hardening and
// observability settings (slow-query threshold, structured logger).
func (f *Framework) ServerWithConfig(cfg server.Config) *server.Server {
	if cfg.Logger == nil {
		cfg.Logger = f.opts.Logger
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

// --- Analytics convenience API ---
//
// Each method calls the analytics function the query engine dispatches
// the matching /v1 operation to, so the facade and the wire read through
// one path.

// scan is the scan configuration of the facade's analytics: the query
// engine's defaults.
var scan = analytics.ScanConfig{}

// Heatmap computes the per-cabinet heat map of one event type (Fig 5).
func (f *Framework) Heatmap(typ model.EventType, from, to time.Time) (*analytics.HeatMap, error) {
	return analytics.HeatmapScan(f.Compute, f.DB, typ, from, to, scan)
}

// Histogram bins occurrences over the window for the temporal map.
func (f *Framework) Histogram(typ model.EventType, from, to time.Time, bin time.Duration) ([]int, error) {
	return analytics.HistogramScan(f.Compute, f.DB, typ, from, to, bin, scan)
}

// Distribution computes occurrence distributions at a topology level.
func (f *Framework) Distribution(typ model.EventType, from, to time.Time, level topology.Level) ([]analytics.Bucket, error) {
	return analytics.DistributionByScan(f.Compute, f.DB, typ, from, to, level, scan)
}

// DistributionByApp attributes occurrences to running applications.
func (f *Framework) DistributionByApp(typ model.EventType, from, to time.Time) ([]analytics.Bucket, error) {
	return analytics.DistributionByAppScan(f.Compute, f.DB, typ, from, to, scan)
}

// TransferEntropy measures directed information flow between two event
// types (Fig 7-top).
func (f *Framework) TransferEntropy(a, b model.EventType, from, to time.Time, bin time.Duration) (analytics.TEResult, error) {
	return analytics.TransferEntropyBetweenScan(f.Compute, f.DB, a, b, from, to, bin, scan)
}

// WordCount runs the distributed word count over raw messages of a type
// within the window (Fig 7-bottom).
func (f *Framework) WordCount(typ model.EventType, from, to time.Time) (map[string]int, error) {
	return analytics.WordCountScan(f.Compute, f.DB, typ, from, to, scan)
}

// TFIDF scores terms of raw messages of a type within the window, best first.
func (f *Framework) TFIDF(typ model.EventType, from, to time.Time) ([]analytics.TermScore, error) {
	return analytics.TFIDFScan(f.Compute, f.DB, typ, from, to, 0, scan)
}

// Placement reports application placement at an instant (Fig 6-bottom).
func (f *Framework) Placement(at time.Time) (map[string]string, error) {
	return analytics.Placement(f.DB, at)
}

// EventSites reports nodes emitting a type at an instant (Fig 6-top).
func (f *Framework) EventSites(typ model.EventType, at time.Time) (map[string]int, error) {
	return analytics.EventSitesScan(f.Compute, f.DB, typ, at, scan)
}

// Events returns decoded events of one type within [from, to), sorted by
// model.SortEvents.
func (f *Framework) Events(typ model.EventType, from, to time.Time) ([]model.Event, error) {
	events, err := analytics.EventsByTypeScan(f.Compute, f.DB, typ, from, to, scan)
	if err != nil {
		return nil, err
	}
	model.SortEvents(events)
	return events, nil
}

// Runs returns application runs overlapping [from, to).
func (f *Framework) Runs(from, to time.Time) ([]model.AppRun, error) {
	return analytics.RunsIn(f.DB, from, to, 24*time.Hour)
}

// --- Section V extensions: event mining, profiles, reliability ---

// MineRules mines association rules between event types over [from, to)
// with the given co-occurrence window.
func (f *Framework) MineRules(from, to time.Time, window time.Duration, minSupport, minConfidence float64) ([]mining.Rule, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	return mining.MineRules(events, window, minSupport, minConfidence)
}

// MineSequences mines A-followed-by-B patterns over [from, to),
// restricted to same-component pairs (the error propagation view).
func (f *Framework) MineSequences(from, to time.Time, delta time.Duration, minCount int) ([]mining.SeqPattern, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	return mining.MineSequences(events, delta, minCount, true)
}

// Episodes coalesces one event type's occurrences into episodes.
func (f *Framework) Episodes(typ model.EventType, from, to time.Time, window time.Duration, perSource bool) ([]mining.Episode, error) {
	events, err := analytics.EventsByTypeScan(f.Compute, f.DB, typ, from, to, scan)
	if err != nil {
		return nil, err
	}
	return mining.Coalesce(events, window, perSource), nil
}

// DetectComposite scans [from, to) for a registered composite event
// definition and returns the synthesized composite events.
func (f *Framework) DetectComposite(def mining.CompositeDef, from, to time.Time) ([]model.Event, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	return mining.DetectComposite(events, def)
}

// Profiles builds per-application event profiles over [from, to).
func (f *Framework) Profiles(from, to time.Time) (map[string]*profile.Profile, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return nil, err
	}
	runs, err := f.Runs(from, to)
	if err != nil {
		return nil, err
	}
	return profile.Build(events, runs), nil
}

// Reliability computes failure interarrival statistics over [from, to).
func (f *Framework) Reliability(from, to time.Time) (analytics.InterarrivalStats, error) {
	events, err := analytics.EventsAllTypesScan(f.Compute, f.DB, from, to, scan)
	if err != nil {
		return analytics.InterarrivalStats{}, err
	}
	return analytics.Interarrivals(events, nil)
}

// CQL executes a raw CQL statement against the backend at the loader's
// consistency level.
func (f *Framework) CQL(statement string) (*cql.Result, error) {
	sess := &cql.Session{DB: f.DB, CL: f.Loader.CL}
	return sess.Execute(statement)
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
