package query

import (
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func cacheFixture(t *testing.T) (*Engine, *store.DB, logs.Config) {
	t.Helper()
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = time.Hour
	corpus := logs.Generate(cfg)
	db := store.Open(store.Config{Nodes: 4, RF: 2})
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	return New(db, eng), db, cfg
}

func heatmapReq(cfg logs.Config) Request {
	return Request{
		Op: OpHeatmap,
		Context: Context{
			EventType: string(model.MCE),
			From:      cfg.Start.Unix(),
			To:        cfg.Start.Add(cfg.Duration).Unix(),
		},
	}
}

func TestBigDataResultCached(t *testing.T) {
	q, _, cfg := cacheFixture(t)
	req := heatmapReq(cfg)
	first, err := q.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	cs := q.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
	if first.(*analytics.HeatMap) != second.(*analytics.HeatMap) {
		t.Fatal("cache hit did not return the stored result")
	}
	m := q.Metrics()[string(OpHeatmap)]
	if m.Count != 2 || m.CacheHits != 1 {
		t.Fatalf("op metric = %+v, want count 2 / 1 cache hit", m)
	}
}

func TestCacheInvalidatedByWrite(t *testing.T) {
	q, db, cfg := cacheFixture(t)
	req := heatmapReq(cfg)
	if _, err := q.Execute(req); err != nil {
		t.Fatal(err)
	}
	// Any store write advances the generation and must defeat the cache.
	e := model.Event{Time: cfg.Start.Add(time.Minute), Type: model.MCE, Source: "c0-0c0s0n0", Count: 1}
	if err := ingest.NewLoader(db).LoadEvents([]model.Event{e}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(req); err != nil {
		t.Fatal(err)
	}
	cs := q.CacheStats()
	if cs.Hits != 0 {
		t.Fatalf("cache stats = %+v, want no hits after invalidating write", cs)
	}
	if cs.Invalidations == 0 {
		t.Fatalf("cache stats = %+v, want a recorded invalidation", cs)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, db, cfg := cacheFixture(t)
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	q := NewWithOptions(db, eng, Options{CacheSize: -1})
	req := heatmapReq(cfg)
	for i := 0; i < 2; i++ {
		if _, err := q.Execute(req); err != nil {
			t.Fatal(err)
		}
	}
	if cs := q.CacheStats(); cs.Hits != 0 || cs.Size != 0 {
		t.Fatalf("disabled cache recorded state: %+v", cs)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", 1, "A")
	c.put("b", 1, "B")
	if _, ok := c.get("a", 1); !ok { // touch a so b is LRU
		t.Fatal("a missing")
	}
	c.put("c", 1, "C")
	if _, ok := c.get("b", 1); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a", 1); !ok {
		t.Fatal("a should survive eviction")
	}
	if _, ok := c.get("c", 1); !ok {
		t.Fatal("c should be present")
	}
}
