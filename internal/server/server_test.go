package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// openShared opens the store of the fixture the package's tests share,
// under a directory of its own that TestMain removes.
func openShared(t testing.TB, cfg store.Config) *store.DB {
	t.Helper()
	dir, err := os.MkdirTemp("", "hpclog-fixture-")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir, cfg.WALNoSync = dir, true
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMain closes the shared fixture's store and removes its directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if shared != nil {
		shared.db.Close()
		os.RemoveAll(shared.db.Config().Dir)
	}
	os.Exit(code)
}

// openStore opens cfg under a fresh test directory with the commitlog
// unsynced, and closes it when the test ends.
func openStore(t testing.TB, cfg store.Config) *store.DB {
	t.Helper()
	cfg.Dir, cfg.WALNoSync = t.TempDir(), true
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

type fixture struct {
	cfg    logs.Config
	corpus *logs.Corpus
	db     *store.DB
	srv    *Server
	ts     *httptest.Server
	cli    *client.Client
}

var shared *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	cfg.Storms = nil
	cfg.Jobs.MaxNodes = 16
	corpus := logs.Generate(cfg)
	db := openShared(t, store.Config{Nodes: 2, RF: 2, VNodes: 8, FlushThreshold: 1024})
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadRuns(corpus.Runs); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := NewWithConfig(query.New(db, eng), db, eng, Config{})
	ts := httptest.NewServer(srv)
	shared = &fixture{cfg: cfg, corpus: corpus, db: db, srv: srv, ts: ts, cli: client.New(ts.URL)}
	return shared
}

// errorOf returns err as the typed *api.Error the SDK surfaces for an
// enveloped failure.
func errorOf(t *testing.T, err error) *api.Error {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v (%T), want *api.Error", err, err)
	}
	return ae
}

func TestHealthz(t *testing.T) {
	f := getFixture(t)
	if err := f.cli.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndQuery(t *testing.T) {
	// E3: the full path of Fig 3 — JSON in, query engine, store/compute,
	// JSON out.
	f := getFixture(t)
	events, err := f.cli.Events(context.Background(), query.Context{
		EventType: "MCE",
		From:      f.cfg.Start.Unix(),
		To:        f.cfg.Start.Add(f.cfg.Duration).Unix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events over the wire")
	}
	for _, e := range events {
		if e.Type != "MCE" || e.Source == "" {
			t.Fatalf("bad record %+v", e)
		}
	}
}

func TestBigDataQueryOverHTTP(t *testing.T) {
	f := getFixture(t)
	hm, err := client.Query[analytics.HeatMap](context.Background(), f.cli, query.Request{
		Op: query.OpHeatmap,
		Context: query.Context{
			EventType: "MEM_ECC",
			From:      f.cfg.Start.Unix(),
			To:        f.cfg.Start.Add(f.cfg.Duration).Unix(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total == 0 {
		t.Fatal("heat map empty over the wire")
	}
}

func TestQueryErrorsAreClientErrors(t *testing.T) {
	f := getFixture(t)
	_, err := f.cli.Do(context.Background(), query.Request{Op: "bogus"})
	if ae := errorOf(t, err); ae.Status != http.StatusBadRequest || ae.Message == "" {
		t.Fatalf("bogus op: %+v", ae)
	}
	// A histogram of more bins than the limit.
	_, err = f.cli.Do(context.Background(), query.Request{Op: query.OpHistogram, BinSeconds: 1,
		Context: query.Context{EventType: "MCE", From: 1, To: time.Now().Unix()}})
	if ae := errorOf(t, err); ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, strconv.Itoa(analytics.MaxBins)) {
		t.Fatalf("histogram of %d bins: %+v", time.Now().Unix(), ae)
	}
	// Malformed JSON (the SDK cannot send it).
	resp, err := http.Post(f.ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeV1(t, resp)
	if resp.StatusCode != http.StatusBadRequest || env.OK || env.Err == nil || env.Err.Code != api.CodeBadRequest {
		t.Fatalf("malformed body: status %d %+v", resp.StatusCode, env)
	}
}

// TestNoLegacyRoutes: the pre-v1 /api/* shims are gone, so writeV1 is the
// only envelope writer.
func TestNoLegacyRoutes(t *testing.T) {
	f := getFixture(t)
	for _, path := range []string{"/api/query", "/api/cql", "/api/types", "/api/stats", "/api/storage", "/api/poll"} {
		resp, err := http.Post(f.ts.URL+path, "application/json", bytes.NewReader([]byte(`{"op":"types"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestTypesEndpoint(t *testing.T) {
	f := getFixture(t)
	types, err := f.cli.Types(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != len(model.EventTypes) {
		t.Fatalf("%d types over the wire", len(types))
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := getFixture(t)
	stats, err := f.cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Tables) != len(model.AllTables) {
		t.Fatalf("stats tables = %v", stats.Tables)
	}
	if len(stats.Nodes) != 2 {
		t.Fatalf("stats nodes = %v", stats.Nodes)
	}
	if stats.Cache.Capacity <= 0 {
		t.Fatalf("stats cache = %+v, want positive capacity", stats.Cache)
	}
}

// TestStatsPerOpCounters runs one big-data query twice and checks that the
// stats endpoint reports its latency and cache-hit counters.
func TestStatsPerOpCounters(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	req := query.Request{
		Op: query.OpHistogram,
		Context: query.Context{
			EventType: "MEM_ECC",
			From:      f.cfg.Start.Unix(),
			To:        f.cfg.Start.Add(f.cfg.Duration).Unix(),
		},
	}
	for i := 0; i < 2; i++ {
		if _, err := f.cli.Do(ctx, req); err != nil {
			t.Fatalf("histogram query failed: %v", err)
		}
	}
	stats, err := f.cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := stats.PerOp[string(query.OpHistogram)]
	if !ok {
		t.Fatalf("per_op missing histogram: %v", stats.PerOp)
	}
	if m.Count < 2 || m.CacheHits < 1 {
		t.Fatalf("histogram metric = %+v, want >=2 runs with >=1 cache hit", m)
	}
	if stats.Cache.Hits < 1 {
		t.Fatalf("cache stats = %+v, want at least one hit", stats.Cache)
	}
	if stats.Compute.ScanTasks == 0 {
		t.Fatalf("compute stats = %+v, want scan tasks counted", stats.Compute)
	}
}

func TestWatchImmediateData(t *testing.T) {
	f := getFixture(t)
	w, err := f.cli.Watch(context.Background(), "MCE", client.WatchOptions{Since: f.cfg.Start, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if e, ok := w.Next(); !ok || e.Type != "MCE" {
		t.Fatalf("watch returned no historical events: %+v, %v", e, w.Err())
	}
}

func TestWatchWaitsForNewEvents(t *testing.T) {
	f := getFixture(t)
	// Start a watch in the future relative to corpus data; inject an event
	// while it is parked.
	w, err := f.cli.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
		Since: time.Now().UTC().Add(-time.Second), Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := make(chan query.EventRecord, 1)
	go func() {
		if e, ok := w.Next(); ok {
			got <- e
		}
		close(got)
	}()
	e := model.Event{
		Time: time.Now().UTC(), Type: model.GPUFail,
		Source: "c0-0c0s0n0", Count: 1, Raw: "injected",
	}
	if err := ingest.NewLoader(f.db).LoadEvents([]model.Event{e}); err != nil {
		t.Fatal(err)
	}
	select {
	case rec, ok := <-got:
		if !ok || rec.Raw != "injected" {
			t.Fatalf("watch missed the injected event: %+v, %v", rec, w.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never delivered")
	}
}

func TestWatchTimeoutEmpty(t *testing.T) {
	f := getFixture(t)
	start := time.Now()
	w, err := f.cli.Watch(context.Background(), "KERNEL_PANIC", client.WatchOptions{
		Since: time.Now().Add(time.Hour), Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if e, ok := w.Next(); ok || w.Err() != nil {
		t.Fatalf("empty watch delivered %+v (err %v), want a clean end", e, w.Err())
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("watch ended in %v, should have parked ~100ms", elapsed)
	}
}

func TestWatchValidation(t *testing.T) {
	f := getFixture(t)
	for _, u := range []string{
		"/v1/watch?since=1",                       // no type
		"/v1/watch?type=MCE&since=x",              // bad since
		"/v1/watch?type=MCE&since=1&timeout_ms=x", // bad timeout
	} {
		resp, err := http.Get(f.ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeV1(t, resp)
		if resp.StatusCode != http.StatusBadRequest || env.Err == nil || env.Err.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d, error %+v, want 400 bad_request", u, resp.StatusCode, env.Err)
		}
	}
}
