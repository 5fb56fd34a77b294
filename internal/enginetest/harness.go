// Package enginetest is the harnessed engine-test corpus for the query
// engine, in the style of go-mysql-server's enginetest: a deterministic
// seeded corpus, a table of request→expected-result cases covering every
// query.Op, and a runner that executes each case twice — directly against
// query.Engine and over the wire through internal/server — asserting the
// two byte-for-byte identical.
//
// The direct path runs a serial engine (scan parallelism 1) and the HTTP
// path a partition-parallel one, so a green run simultaneously proves
// (a) the serial and parallel scan paths compute identical results and
// (b) nothing is lost or reshaped crossing the JSON wire.
//
// To add a case for a new operation, append to Cases in cases.go; the
// TestEveryOpCovered meta-test fails until every query.Op has at least
// one case.
package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Harness is one fully loaded engine-test stack: a seeded corpus in a
// small store cluster, a serial query engine for the direct path, and a
// partition-parallel engine behind an HTTP test server for the wire path.
type Harness struct {
	Cfg    logs.Config
	Corpus *logs.Corpus
	DB     *store.DB
	Comp   *compute.Engine
	// Serial executes the direct path with scan parallelism 1.
	Serial *query.Engine
	// Parallel executes behind the HTTP server with default parallelism.
	Parallel *query.Engine
	// TS is the wire-path test server.
	TS *httptest.Server
	// Srv is the analytic server behind TS.
	Srv *server.Server
	// Client is the SDK client the wire path goes through — the same
	// code every production consumer (logctl, the cluster runtime) uses,
	// so a green corpus run also proves the SDK decodes faithfully.
	Client *client.Client
	// StoreCfg is the store configuration, kept so Reopen can recover the
	// harness from its directory.
	StoreCfg store.Config
}

// corpusConfig is the engine-test corpus: four cabinets over three hours
// with an MCE hotspot at cabinet c2-0, a Lustre storm pinned to one OST,
// and Lustre→AppAbort causal coupling — one corpus in which every
// operation has a non-trivial, assertable answer.
func corpusConfig() logs.Config {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 4 * topology.NodesPerCabinet // cabinets c0-0 .. c3-0
	cfg.Duration = 3 * time.Hour
	cfg.BaseRates[model.Lustre] = 0.5
	cfg.Causal = []logs.CausalRule{{
		Cause:  model.Lustre,
		Effect: model.AppAbort,
		Prob:   0.3,
		Lag:    30 * time.Second,
		Jitter: 20 * time.Second,
	}}
	cfg.Hotspots = []logs.Hotspot{{Component: topology.CabinetAt(0, 2), Type: model.MCE, Multiplier: 50}}
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(90 * time.Minute),
		Duration:     4 * time.Minute,
		NodeFraction: 0.6,
		EventsPerSec: 40,
		Attrs: map[string]string{
			"ost": "OST0012", "op": "ost_read", "errno": "-110",
			"peer": "10.36.226.77@o2ib",
		},
	}}
	cfg.Jobs.MaxNodes = 64
	return cfg
}

// New builds the memtable-resident harness: its flush threshold lies
// above the corpus and its compactor is off, so the store never encodes a
// block and its answers are the reference the durable and tiered harnesses
// must match byte for byte. Result caching is disabled on both engines so
// the direct/wire comparison exercises two genuinely independent
// executions.
func New(tb testing.TB) *Harness {
	tb.Helper()
	return build(tb, store.Config{
		Nodes: 8, RF: 2, VNodes: 32,
		FlushThreshold:  1 << 30,
		CompactInterval: -1,
		Dir:             tb.TempDir(),
		WALNoSync:       true,
	})
}

// NewDurable builds a harness with a flush threshold low enough that the
// corpus produces on-disk segment files (while small partitions stay in
// memtables, so reads and restarts exercise the segment + commitlog-replay
// mix). The corpus and load path are identical to New, so query results
// must be byte-identical to the memtable-resident harness.
func NewDurable(tb testing.TB) *Harness {
	tb.Helper()
	return build(tb, store.Config{
		Nodes: 8, RF: 2, VNodes: 32,
		FlushThreshold: 512,
		Dir:            tb.TempDir(),
	})
}

// NewTiered is NewDurable with a local-fs object-storage tier attached.
// The cache is deliberately tiny relative to the corpus so evicted reads
// exercise real fetch/verify/evict churn, not a warm cache.
func NewTiered(tb testing.TB) *Harness {
	tb.Helper()
	return build(tb, store.Config{
		Nodes: 8, RF: 2, VNodes: 32,
		FlushThreshold: 512,
		Dir:            tb.TempDir(),
		Tier:           objstore.Config{Backend: "fs", Dir: tb.TempDir(), CacheBytes: 1 << 20},
	})
}

func build(tb testing.TB, scfg store.Config) *Harness {
	tb.Helper()
	h := attach(tb, scfg)
	if err := ingest.Bootstrap(h.DB, h.Cfg.Nodes); err != nil {
		tb.Fatal(err)
	}
	loader := ingest.NewLoader(h.DB)
	if err := loader.LoadEvents(h.Corpus.Events); err != nil {
		tb.Fatal(err)
	}
	if err := loader.LoadRuns(h.Corpus.Runs); err != nil {
		tb.Fatal(err)
	}
	if err := ingest.RefreshSynopsis(h.Comp, h.DB, model.HoursIn(h.Cfg.Start, h.Cfg.Start.Add(h.Cfg.Duration)), store.Quorum); err != nil {
		tb.Fatal(err)
	}
	return h
}

// attach builds a harness over whatever the store at scfg already holds
// and loads nothing: the corpus is generated only for the cases to ask
// about.
func attach(tb testing.TB, scfg store.Config) *Harness {
	tb.Helper()
	cfg := corpusConfig()
	db, err := store.OpenDurable(scfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	h := &Harness{Cfg: cfg, Corpus: logs.Generate(cfg), DB: db, Comp: eng, StoreCfg: scfg}
	h.initEngines(tb)
	return h
}

// initEngines (re)builds the query engines and the wire-path test server
// over the harness's current DB.
func (h *Harness) initEngines(tb testing.TB) {
	h.Serial = query.NewWithOptions(h.DB, h.Comp, query.Options{Parallelism: 1, CacheSize: -1})
	h.Parallel = query.NewWithOptions(h.DB, h.Comp, query.Options{CacheSize: -1})
	h.Srv = server.NewWithConfig(h.Parallel, h.DB, h.Comp, server.Config{})
	h.TS = httptest.NewServer(h.Srv)
	h.Client = client.New(h.TS.URL)
	srv, ts := h.Srv, h.TS
	tb.Cleanup(func() {
		// Hub first: httptest.Server.Close blocks on outstanding requests,
		// and a parked watch only completes once the hub drains it (the
		// same order hpclogd shuts down in).
		srv.Close()
		ts.Close()
	})
}

// Reopen simulates a restart: the store is closed, reopened from its
// directory (replaying the commitlog), and the engines and wire server are
// rebuilt over the recovered DB.
func (h *Harness) Reopen(tb testing.TB) {
	tb.Helper()
	h.Srv.Close()
	h.TS.Close()
	if err := h.DB.Close(); err != nil {
		tb.Fatal(err)
	}
	db, err := store.OpenDurable(h.StoreCfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	h.DB = db
	h.initEngines(tb)
}

// Window returns the corpus time window.
func (h *Harness) Window() (time.Time, time.Time) {
	return h.Cfg.Start, h.Cfg.Start.Add(h.Cfg.Duration)
}

// Direct executes a request on the serial engine and returns the result
// marshaled to canonical JSON.
func (h *Harness) Direct(req query.Request) (json.RawMessage, error) {
	res, err := h.Serial.Execute(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// HTTP executes a request over the wire through the v1 protocol and the
// SDK client, returning the raw result JSON.
func (h *Harness) HTTP(req query.Request) (json.RawMessage, error) {
	return h.Client.Do(context.Background(), req)
}

// Run executes one case on both paths, asserts the results byte-for-byte
// identical, runs the case's check against the wire result, and returns
// the result for further inspection.
func (h *Harness) Run(t *testing.T, c Case) json.RawMessage {
	t.Helper()
	direct, err := h.Direct(c.Req)
	if err != nil {
		t.Fatalf("direct execution: %v", err)
	}
	wire, err := h.HTTP(c.Req)
	if err != nil {
		t.Fatalf("wire execution: %v", err)
	}
	if !bytes.Equal(direct, wire) {
		t.Fatalf("direct (serial) and wire (parallel) results differ:\ndirect: %.300s\nwire:   %.300s",
			direct, wire)
	}
	if c.Check != nil {
		c.Check(t, h, wire)
	}
	return wire
}
