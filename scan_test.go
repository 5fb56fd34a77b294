// Identity tests for the partition-parallel streaming scan path: every
// big-data operation is run on a compute engine of width 1 (the serial
// baseline) and on several wider ones, on a seeded corpus, and the
// results must be byte-for-byte identical — out of memtables and off
// on-disk segments. The scan splits hour partitions into 5-minute clustering
// slices, so the task count far exceeds typical core counts.
package hpclog_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
	"hpclog/internal/topology"
)

// scanFixture is the seeded corpus loaded into a cluster that holds it all
// in its memtables, built once and shared by every test in this file.
type scanFixture struct {
	cfg    logs.Config
	corpus *logs.Corpus
	db     *store.DB
	eng    *compute.Engine
}

var (
	fixOnce sync.Once
	fix     *scanFixture
)

// scanCorpusConfig is the standard corpus: 8 cabinets, 3 hours, MCE
// hotspot + Lustre storm + causal chain (the Figs 5–7 ingredients).
func scanCorpusConfig() logs.Config {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 8 * topology.NodesPerCabinet
	cfg.Duration = 3 * time.Hour
	cfg.BaseRates[model.Lustre] = 0.3
	// Strong causal coupling so transfer entropy has clean statistics,
	// matching the analytics-package fixture.
	cfg.Causal = []logs.CausalRule{{
		Cause:  model.Lustre,
		Effect: model.AppAbort,
		Prob:   0.3,
		Lag:    30 * time.Second,
		Jitter: 20 * time.Second,
	}}
	cfg.Hotspots = []logs.Hotspot{
		{Component: topology.CabinetAt(0, 2), Type: model.MCE, Multiplier: 40},
	}
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(90 * time.Minute),
		Duration:     5 * time.Minute,
		NodeFraction: 0.7,
		EventsPerSec: 60,
		Attrs: map[string]string{
			"ost": "OST0012", "op": "ost_read", "errno": "-110",
			"peer": "10.36.226.77@o2ib",
		},
	}}
	cfg.Jobs.MaxNodes = 128
	return cfg
}

func getFixture(t testing.TB) *scanFixture {
	t.Helper()
	fixOnce.Do(func() {
		cfg := scanCorpusConfig()
		corpus := logs.Generate(cfg)
		dir, err := os.MkdirTemp("", "hpclog-scan-")
		if err != nil {
			panic(err)
		}
		db, err := store.OpenDurable(store.Config{Nodes: 8, RF: 3, FlushThreshold: 1 << 30, CompactInterval: -1, Dir: dir, WALNoSync: true})
		if err != nil {
			panic(err)
		}
		if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
			panic(err)
		}
		loader := ingest.NewLoader(db)
		if err := loader.LoadEvents(corpus.Events); err != nil {
			panic(err)
		}
		if err := loader.LoadRuns(corpus.Runs); err != nil {
			panic(err)
		}
		fix = &scanFixture{
			cfg: cfg, corpus: corpus, db: db,
			eng: compute.NewEngine(compute.Config{Workers: db.NodeIDs()}),
		}
	})
	return fix
}

func (f *scanFixture) window() (time.Time, time.Time) {
	return f.cfg.Start, f.cfg.Start.Add(f.cfg.Duration)
}

// scanOp is one big-data operation, run on the fixture's engine.
type scanOp struct {
	name string
	run  func(f *scanFixture, cfg analytics.ScanConfig) (any, error)
}

// scanCfg slices hour partitions into 5-minute clustering ranges so a
// 3-hour window yields 36 tasks per event type — enough fan-out for any
// reasonable core count.
var scanCfg = analytics.ScanConfig{Slice: 5 * time.Minute}

// at returns f scanning on an engine of width par.
func (f *scanFixture) at(par int) *scanFixture {
	g := *f
	g.eng = compute.NewEngine(compute.Config{Workers: f.db.NodeIDs(), Parallelism: par})
	return &g
}

func scanOps() []scanOp {
	return []scanOp{
		{"heatmap", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.HeatmapScan(f.eng, f.db, model.MCE, from, to, cfg)
		}},
		{"distribution", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.DistributionByScan(f.eng, f.db, model.MCE, from, to, topology.LevelCabinet, cfg)
		}},
		{"histogram", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.HistogramScan(f.eng, f.db, model.Lustre, from, to, time.Minute, cfg)
		}},
		{"transfer_entropy", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.TransferEntropyBetweenScan(f.eng, f.db, model.Lustre, model.AppAbort, from, to, 30*time.Second, cfg)
		}},
		{"wordcount", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.WordCountScan(f.eng, f.db, model.Lustre, from, to, cfg)
		}},
		{"tfidf", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.TFIDFScan(f.eng, f.db, model.Lustre, from, to, 0, cfg)
		}},
		{"events", func(f *scanFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.EventsByTypeScan(f.eng, f.db, model.Lustre, from, to, cfg)
		}},
	}
}

// TestScanParallelMatchesSerial proves, for every big-data operation,
// that the partition-parallel scan computes byte-for-byte the same result
// as the serial scan on the seeded corpus — at several
// parallelism levels above the local core count.
func TestScanParallelMatchesSerial(t *testing.T) {
	f := getFixture(t)
	for _, op := range scanOps() {
		t.Run(op.name, func(t *testing.T) {
			serialRes, err := op.run(f.at(1), scanCfg)
			if err != nil {
				t.Fatal(err)
			}
			serialJSON, err := json.Marshal(serialRes)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8, 16} {
				parRes, err := op.run(f.at(par), scanCfg)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				parJSON, err := json.Marshal(parRes)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialJSON, parJSON) {
					t.Fatalf("parallelism %d diverges from serial:\nserial:   %.300s\nparallel: %.300s",
						par, serialJSON, parJSON)
				}
			}
		})
	}
}

// TestScanParallelMatchesSerialDurable repeats the serial/parallel
// identity on a durably-configured cluster whose flush threshold forces
// the corpus onto on-disk segment files, and additionally asserts every
// disk-backed result byte-identical to the memtable-resident fixture's —
// the segment codec must be invisible to the scan planner. Block buffers are
// poisoned after every batch callback, so a fold that kept a string
// aliasing a block diverges here at par 2/4/8/16.
func TestScanParallelMatchesSerialDurable(t *testing.T) {
	persist.PoisonBatches.Store(true)
	defer persist.PoisonBatches.Store(false)
	f := getFixture(t)
	ddb, err := store.OpenDurable(store.Config{
		Nodes: 8, RF: 3, FlushThreshold: 512,
		Dir: t.TempDir(), CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Close()
	if err := ingest.Bootstrap(ddb, f.cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(ddb)
	if err := loader.LoadEvents(f.corpus.Events); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadRuns(f.corpus.Runs); err != nil {
		t.Fatal(err)
	}
	if ddb.StorageStats().DiskSegments == 0 {
		t.Fatal("durable cluster produced no on-disk segments")
	}
	if n := f.db.StorageStats().DiskSegments; n != 0 {
		t.Fatalf("the memtable-resident fixture wrote %d segments", n)
	}
	df := &scanFixture{cfg: f.cfg, corpus: f.corpus, db: ddb,
		eng: compute.NewEngine(compute.Config{Workers: ddb.NodeIDs()})}
	for _, op := range scanOps() {
		t.Run(op.name, func(t *testing.T) {
			memRes, err := op.run(f.at(1), scanCfg)
			if err != nil {
				t.Fatal(err)
			}
			memJSON, err := json.Marshal(memRes)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4, 8, 16} {
				res, err := op.run(df.at(par), scanCfg)
				if err != nil {
					t.Fatalf("durable parallelism %d: %v", par, err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, memJSON) {
					t.Fatalf("durable scan (par %d) diverges from the memtables:\nresident: %.300s\ndurable:  %.300s",
						par, memJSON, got)
				}
			}
		})
	}
}

// TestScanFanOutAvailable guards the parallel scan's precondition: the
// planner must produce substantially more tasks than a typical core
// count, so a GOMAXPROCS-sized pool can actually use 4+ cores.
func TestScanFanOutAvailable(t *testing.T) {
	f := getFixture(t).at(1)
	if _, err := scanOps()[0].run(f, scanCfg); err != nil {
		t.Fatal(err)
	}
	tasks := f.eng.Stats().ScanTasks
	if tasks < 16 {
		t.Fatalf("heatmap scan planned only %d tasks; parallel speedup would cap below 4x", tasks)
	}
}

// TestScanSpeedupReport measures and reports the serial/parallel wall
// clock ratio for the heatmap scan without failing on single-core
// machines (the ≥2× criterion applies at 4+ cores; bench/ is the
// authoritative measurement).
func TestScanSpeedupReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	f := getFixture(t)
	op := scanOps()[0]
	measure := func(par int) time.Duration {
		// Warm once, then take the best of 3 runs.
		if _, err := op.run(f.at(par), scanCfg); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := op.run(f.at(par), scanCfg); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(runtime.GOMAXPROCS(0))
	t.Logf("heatmap scan: serial %v, parallel(%d) %v, speedup %.2fx",
		serial, runtime.GOMAXPROCS(0), parallel, float64(serial)/float64(parallel))
}
