// Benchmarks and identity tests for the partition-parallel streaming scan
// path: every big-data operation is run with scan parallelism 1 (the
// serial baseline) and with a GOMAXPROCS-sized pool, on the standard
// benchmark corpus. TestScanParallelMatchesSerial asserts the two paths
// byte-for-byte identical; the benchmark pair quantifies the speedup
// (≥2× expected at 4+ cores; the scan splits hour partitions into
// 5-minute clustering slices, so task count far exceeds typical core
// counts).
//
// Run:  go test -bench 'BenchmarkScan(Serial|Parallel)' -benchmem
package hpclog_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
	"hpclog/internal/topology"
)

// scanOp is one benchmarked big-data operation executed at a given scan
// parallelism.
type scanOp struct {
	name string
	run  func(f *benchFixture, cfg analytics.ScanConfig) (any, error)
}

// scanCfg slices hour partitions into 5-minute clustering ranges so a
// 3-hour window yields 36 tasks per event type — enough fan-out for any
// reasonable core count.
func scanCfg(parallelism int) analytics.ScanConfig {
	return analytics.ScanConfig{Parallelism: parallelism, Slice: 5 * time.Minute}
}

func scanOps() []scanOp {
	return []scanOp{
		{"heatmap", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.HeatmapScan(f.eng, f.db, model.MCE, from, to, cfg)
		}},
		{"distribution", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.DistributionByScan(f.eng, f.db, model.MCE, from, to, topology.LevelCabinet, cfg)
		}},
		{"histogram", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.HistogramScan(f.eng, f.db, model.Lustre, from, to, time.Minute, cfg)
		}},
		{"transfer_entropy", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.TransferEntropyBetweenScan(f.eng, f.db, model.Lustre, model.AppAbort, from, to, 30*time.Second, cfg)
		}},
		{"wordcount", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.WordCountScan(f.eng, f.db, model.Lustre, from, to, cfg)
		}},
		{"tfidf", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.TFIDFScan(f.eng, f.db, model.Lustre, from, to, 0, cfg)
		}},
		{"events", func(f *benchFixture, cfg analytics.ScanConfig) (any, error) {
			from, to := f.window()
			return analytics.EventsByTypeScan(f.eng, f.db, model.Lustre, from, to, cfg)
		}},
	}
}

func benchScan(b *testing.B, parallelism int) {
	f := getFixture(b)
	for _, op := range scanOps() {
		b.Run(op.name, func(b *testing.B) {
			cfg := scanCfg(parallelism)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := op.run(f, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanSerial is the single-task baseline: the same streaming
// scan pipeline, but at most one partition task in flight.
func BenchmarkScanSerial(b *testing.B) { benchScan(b, 1) }

// BenchmarkScanParallel fans partition tasks out over a GOMAXPROCS-sized
// pool. Compare per-op ns/op against BenchmarkScanSerial.
func BenchmarkScanParallel(b *testing.B) { benchScan(b, runtime.GOMAXPROCS(0)) }

// TestScanParallelMatchesSerial proves, for every big-data operation,
// that the partition-parallel scan computes byte-for-byte the same result
// as the serial scan on the seeded benchmark corpus — at several
// parallelism levels above the local core count.
func TestScanParallelMatchesSerial(t *testing.T) {
	f := getFixture(t)
	for _, op := range scanOps() {
		t.Run(op.name, func(t *testing.T) {
			serialRes, err := op.run(f, scanCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			serialJSON, err := json.Marshal(serialRes)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8, 16} {
				parRes, err := op.run(f, scanCfg(par))
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
// disk-backed result byte-identical to the in-memory fixture's — the
// storage engine must be invisible to the scan planner. Block buffers are
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
	df := &benchFixture{cfg: f.cfg, corpus: f.corpus, db: ddb,
		eng: compute.NewEngine(compute.Config{Workers: ddb.NodeIDs()})}
	for _, op := range scanOps() {
		t.Run(op.name, func(t *testing.T) {
			memRes, err := op.run(f, scanCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			memJSON, err := json.Marshal(memRes)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4, 8, 16} {
				res, err := op.run(df, scanCfg(par))
				if err != nil {
					t.Fatalf("durable parallelism %d: %v", par, err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, memJSON) {
					t.Fatalf("durable scan (par %d) diverges from in-memory:\nmemory:  %.300s\ndurable: %.300s",
						par, memJSON, got)
				}
			}
		})
	}
}

// TestScanFanOutAvailable guards the speedup claim's precondition: the
// planner must produce substantially more tasks than a typical core
// count, so BenchmarkScanParallel can actually use 4+ cores.
func TestScanFanOutAvailable(t *testing.T) {
	f := getFixture(t)
	before := f.eng.Stats().ScanTasks
	if _, err := scanOps()[0].run(f, scanCfg(1)); err != nil {
		t.Fatal(err)
	}
	tasks := f.eng.Stats().ScanTasks - before
	if tasks < 16 {
		t.Fatalf("heatmap scan planned only %d tasks; parallel speedup would cap below 4x", tasks)
	}
}

// TestScanSpeedupReport measures and reports the serial/parallel wall
// clock ratio for the heatmap scan without failing on single-core
// machines (the ≥2× criterion applies at 4+ cores; benchmarks are the
// authoritative measurement).
func TestScanSpeedupReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	f := getFixture(t)
	op := scanOps()[0]
	measure := func(par int) time.Duration {
		// Warm once, then take the best of 3 runs.
		if _, err := op.run(f, scanCfg(par)); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := op.run(f, scanCfg(par)); err != nil {
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
