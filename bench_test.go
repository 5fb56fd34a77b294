// Benchmarks regenerating every figure/experiment of the paper (E1–E11 in
// DESIGN.md / EXPERIMENTS.md). Each benchmark prints or reports the
// quantity whose *shape* the paper claims; absolute numbers depend on the
// in-process substrate and are not expected to match the CADES testbed.
//
// Run all:  go test -bench=. -benchmem
// One exp:  go test -bench=BenchmarkE5 -benchmem
package hpclog_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/bus"
	"hpclog/internal/cluster"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// --- Shared fixture -----------------------------------------------------

type benchFixture struct {
	cfg    logs.Config
	corpus *logs.Corpus
	lines  []string
	db     *store.DB
	eng    *compute.Engine
	q      *query.Engine
}

var (
	fixOnce sync.Once
	fix     *benchFixture
)

// benchCorpusConfig is the standard benchmark corpus: 8 cabinets, 3 hours,
// MCE hotspot + Lustre storm + causal chain (the Figs 5–7 ingredients).
func benchCorpusConfig() logs.Config {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 8 * topology.NodesPerCabinet
	cfg.Duration = 3 * time.Hour
	cfg.BaseRates[model.Lustre] = 0.3
	// Strong causal coupling so the TE direction (E7) has clean
	// statistics, matching the analytics-package fixture.
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

func getFixture(b testing.TB) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		cfg := benchCorpusConfig()
		corpus := logs.Generate(cfg)
		lines := make([]string, len(corpus.Lines))
		for i, l := range corpus.Lines {
			lines[i] = l.Format()
		}
		db := store.Open(store.Config{Nodes: 8, RF: 3, FlushThreshold: 4096})
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
		eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
		fix = &benchFixture{
			cfg: cfg, corpus: corpus, lines: lines,
			db: db, eng: eng, q: query.New(db, eng),
		}
	})
	return fix
}

func (f *benchFixture) window() (time.Time, time.Time) {
	return f.cfg.Start, f.cfg.Start.Add(f.cfg.Duration)
}

// --- E1: Fig 1 — event schemas -------------------------------------------

// BenchmarkE1_EventSchemaWrite measures dual-table event writes: each
// event lands in event_by_time (hour:type partition) and
// event_by_location (hour:source partition).
func BenchmarkE1_EventSchemaWrite(b *testing.B) {
	f := getFixture(b)
	db := store.Open(store.Config{Nodes: 8, RF: 3})
	if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
		b.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	events := f.corpus.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		e.Time = e.Time.Add(time.Duration(i/len(events)) * time.Hour) // avoid pure overwrite
		if err := loader.LoadEvents([]model.Event{e}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2, "rows/event") // dual schema writes two rows per event
}

// BenchmarkE1_DualTableQuery reads one (hour, type) partition — the access
// path Fig 1's denormalization exists for.
func BenchmarkE1_DualTableQuery(b *testing.B) {
	f := getFixture(b)
	hour := model.HourOf(f.cfg.Storms[0].Start)
	pkey := model.EventByTimeKey(hour, model.Lustre)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := f.db.Get(model.TableEventByTime, pkey, store.Range{}, store.One)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty partition")
		}
	}
}

// BenchmarkE1_FilteredScanQuery answers the same question without the
// dual table: scan every (hour, source) partition of the hour and filter
// by type — the ablation baseline justifying the second schema.
func BenchmarkE1_FilteredScanQuery(b *testing.B) {
	f := getFixture(b)
	hour := model.HourOf(f.cfg.Storms[0].Start)
	// Enumerate location partitions for the hour once (a real system
	// would need this scatter per query; we charge only the reads).
	prefix := fmt.Sprintf("%d:", hour)
	var pkeys []string
	for _, pk := range f.db.PartitionKeys(model.TableEventByLoc) {
		if len(pk) >= len(prefix) && pk[:len(prefix)] == prefix {
			pkeys = append(pkeys, pk)
		}
	}
	if len(pkeys) == 0 {
		b.Fatal("no location partitions")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, pk := range pkeys {
			rows, err := f.db.Get(model.TableEventByLoc, pk, store.Range{}, store.One)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if r.Col(model.ColType) == string(model.Lustre) {
					total++
				}
			}
		}
		if total == 0 {
			b.Fatal("no lustre rows found by scan")
		}
	}
	b.ReportMetric(float64(len(pkeys)), "partitions/query")
}

// --- E2: Fig 2 — application schemas --------------------------------------

func BenchmarkE2_AppSchemaWrite(b *testing.B) {
	f := getFixture(b)
	db := store.Open(store.Config{Nodes: 8, RF: 3})
	if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
		b.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	runs := f.corpus.Runs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runs[i%len(runs)]
		r.JobID = fmt.Sprintf("%s-%d", r.JobID, i)
		if err := loader.LoadRuns([]model.AppRun{r}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(3, "rows/run") // three denormalized views
}

func BenchmarkE2_AppByUserQuery(b *testing.B) {
	f := getFixture(b)
	user := f.corpus.Runs[0].User
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := f.db.Get(model.TableAppByUser, user, store.Range{}, store.One)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no runs for user")
		}
	}
}

// --- E3: Fig 3 — end-to-end architecture ----------------------------------

// BenchmarkE3_EndToEndQuery drives the full path: JSON request over HTTP →
// analytic server → query engine → backend → JSON response.
func BenchmarkE3_EndToEndQuery(b *testing.B) {
	f := getFixture(b)
	srv := httptest.NewServer(server.New(f.q, f.db, f.eng))
	defer srv.Close()
	cli := client.New(srv.URL)
	from, to := f.window()
	req := query.Request{
		Op: query.OpSynopsis,
		Context: query.Context{
			EventType: "MCE", From: from.Unix(), To: to.Unix(),
		},
	}
	// Synopsis must exist for the query to return data.
	hours := model.HoursIn(from, to)
	if err := ingest.RefreshSynopsis(f.eng, f.db, hours, store.Quorum); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Do(context.Background(), req); err != nil {
			b.Fatalf("query failed: %v", err)
		}
	}
}

// --- E4: Fig 4 — partition → node mapping ---------------------------------

// BenchmarkE4_PartitionMapping measures replica resolution over the ring
// and reports the observed load balance (max/mean primaries per node)
// for a month of (hour, type) partitions on a 32-node ring.
func BenchmarkE4_PartitionMapping(b *testing.B) {
	ring := cluster.NewRing(3, 64)
	for i := 0; i < 32; i++ {
		ring.AddNode(fmt.Sprintf("store%02d", i))
	}
	var keys []string
	for hour := 0; hour < 24*30; hour++ {
		for _, typ := range model.EventTypes {
			keys = append(keys, model.EventByTimeKey(int64(hour), typ))
		}
	}
	counts := map[string]int{}
	for _, k := range keys {
		counts[ring.Primary(k)]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(len(keys)) / 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ring.Replicas(keys[i%len(keys)]); len(got) != 3 {
			b.Fatal("wrong replica count")
		}
	}
	b.ReportMetric(float64(maxC)/mean, "max/mean-load")
}

// BenchmarkE4_VNodesAblation reports ring balance with 1 vnode per node —
// the configuration Fig 4's even dispersal depends on avoiding.
func BenchmarkE4_VNodesAblation(b *testing.B) {
	for _, vnodes := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("vnodes=%d", vnodes), func(b *testing.B) {
			ring := cluster.NewRing(1, vnodes)
			for i := 0; i < 32; i++ {
				ring.AddNode(fmt.Sprintf("store%02d", i))
			}
			counts := map[string]int{}
			n := 24 * 30 * len(model.EventTypes)
			for hour := 0; hour < 24*30; hour++ {
				for _, typ := range model.EventTypes {
					counts[ring.Primary(model.EventByTimeKey(int64(hour), typ))]++
				}
			}
			maxC := 0
			for _, c := range counts {
				if c > maxC {
					maxC = c
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring.Primary("412:MCE")
			}
			b.ReportMetric(float64(maxC)/(float64(n)/32), "max/mean-load")
		})
	}
}

// --- E5: Fig 5 — heat map and distributions -------------------------------

func BenchmarkE5_Heatmap(b *testing.B) {
	f := getFixture(b)
	from, to := f.window()
	b.ResetTimer()
	var hm *analytics.HeatMap
	for i := 0; i < b.N; i++ {
		var err error
		hm, err = analytics.HeatmapScan(f.eng, f.db, model.MCE, from, to, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hm.Counts[0][2] != hm.Max {
		b.Fatal("hotspot cabinet not maximal")
	}
	b.ReportMetric(float64(hm.Total), "occurrences")
}

func BenchmarkE5_DistributionCabinet(b *testing.B) {
	f := getFixture(b)
	from, to := f.window()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets, err := analytics.DistributionByScan(f.eng, f.db, model.MCE, from, to, topology.LevelCabinet, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if buckets[0].Label != "c2-0" {
			b.Fatal("hotspot not top bucket")
		}
	}
}

func BenchmarkE5_DistributionByApp(b *testing.B) {
	f := getFixture(b)
	from, to := f.window()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytics.DistributionByAppScan(f.eng, f.db, model.Lustre, from, to, analytics.ScanConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Fig 6 — event sites and application placement ---------------------

func BenchmarkE6_PlacementQuery(b *testing.B) {
	f := getFixture(b)
	at := f.corpus.Runs[0].Start.Add(time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement, err := analytics.Placement(f.db, at)
		if err != nil {
			b.Fatal(err)
		}
		if len(placement) == 0 {
			b.Fatal("no placement")
		}
	}
}

func BenchmarkE6_EventSites(b *testing.B) {
	f := getFixture(b)
	var at time.Time
	for _, e := range f.corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(f.cfg.Storms[0].Start) {
			at = e.Time
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sites, err := analytics.EventSitesScan(f.eng, f.db, model.Lustre, at, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(sites) == 0 {
			b.Fatal("no sites")
		}
	}
}

// --- E7: Fig 7-top — transfer entropy --------------------------------------

func BenchmarkE7_TransferEntropy(b *testing.B) {
	f := getFixture(b)
	from, to := f.window()
	b.ResetTimer()
	var res analytics.TEResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = analytics.TransferEntropyBetweenScan(f.eng, f.db, model.Lustre, model.AppAbort, from, to, 30*time.Second, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.XToY, "TE-forward-bits")
	b.ReportMetric(res.YToX, "TE-reverse-bits")
}

func BenchmarkE7_CrossCorrelation(b *testing.B) {
	f := getFixture(b)
	from, to := f.window()
	sa, err := analytics.BuildSeriesScan(f.eng, f.db, model.Lustre, from, to, 30*time.Second, analytics.ScanConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sb, err := analytics.BuildSeriesScan(f.eng, f.db, model.AppAbort, from, to, 30*time.Second, analytics.ScanConfig{})
	if err != nil {
		b.Fatal(err)
	}
	x, y := sa.Binary(), sb.Binary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytics.CrossCorrelation(x, y, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: Fig 7-bottom — text analytics --------------------------------------

func BenchmarkE8_WordCount(b *testing.B) {
	f := getFixture(b)
	storm := f.cfg.Storms[0]
	from, to := storm.Start, storm.Start.Add(storm.Duration)
	var docCount int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, err := analytics.WordCountScan(f.eng, f.db, model.Lustre, from, to, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if counts["ost0012"] == 0 {
			b.Fatal("culprit OST missing from counts")
		}
		docCount = counts["lustreerror"]
	}
	b.StopTimer()
	b.ReportMetric(float64(docCount), "docs")
}

func BenchmarkE8_TFIDF(b *testing.B) {
	f := getFixture(b)
	storm := f.cfg.Storms[0]
	from, to := storm.Start, storm.Start.Add(storm.Duration)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := analytics.TFIDFScan(f.eng, f.db, model.Lustre, from, to, 0, analytics.ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(scores) == 0 {
			b.Fatal("no scores")
		}
	}
}

// --- E9: batch ETL throughput vs workers ------------------------------------

func BenchmarkE9_BatchIngest(b *testing.B) {
	f := getFixture(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := store.Open(store.Config{Nodes: workers, RF: 2})
				if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
					b.Fatal(err)
				}
				eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
				b.StartTimer()
				res, err := ingest.BatchImport(eng, db, f.lines, store.Quorum, 4*workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Parsed != len(f.corpus.Events) {
					b.Fatalf("parsed %d of %d", res.Parsed, len(f.corpus.Events))
				}
			}
			b.ReportMetric(float64(len(f.lines))*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// --- E10: streaming ingestion with 1 s coalescing ----------------------------

func BenchmarkE10_StreamingIngest(b *testing.B) {
	f := getFixture(b)
	// Replay the storm window with 4x duplication: collectors at multiple
	// layers (client console, server log, LNet router) report the same
	// occurrence, the case the one-second coalescing window exists for.
	const dup = 4
	storm := f.cfg.Storms[0]
	var stormEvents []model.Event
	for _, e := range f.corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(storm.Start) &&
			e.Time.Before(storm.Start.Add(storm.Duration)) {
			for d := 0; d < dup; d++ {
				stormEvents = append(stormEvents, e)
			}
		}
	}
	b.Run("coalesced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := store.Open(store.Config{Nodes: 4, RF: 2})
			if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
				b.Fatal(err)
			}
			broker := bus.NewBroker()
			if err := broker.CreateTopic("ev", 4); err != nil {
				b.Fatal(err)
			}
			s, err := ingest.NewStreamer(broker, "ev", fmt.Sprintf("c%d", i), ingest.NewLoader(db))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, e := range stormEvents {
				if err := ingest.PublishEvent(broker, "ev", e); err != nil {
					b.Fatal(err)
				}
			}
			consumed, written, err := s.Drain(1024)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if consumed != len(stormEvents) {
				b.Fatalf("consumed %d of %d", consumed, len(stormEvents))
			}
			b.ReportMetric(float64(consumed)/float64(written), "coalesce-ratio")
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(len(stormEvents))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("uncoalesced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := store.Open(store.Config{Nodes: 4, RF: 2})
			if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
				b.Fatal(err)
			}
			loader := ingest.NewLoader(db)
			b.StartTimer()
			for _, e := range stormEvents {
				if err := loader.LoadEvents([]model.Event{e}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(stormEvents))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// --- E11: store read/write scalability ---------------------------------------

func BenchmarkE11_StoreWrite(b *testing.B) {
	for _, cl := range []store.Consistency{store.One, store.Quorum, store.All} {
		b.Run(cl.String(), func(b *testing.B) {
			db := store.Open(store.Config{Nodes: 8, RF: 3})
			db.CreateTable("events")
			row := store.MapRow("", 0, map[string]string{"type": "MCE", "amount": "1"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.Key = store.EncodeTS(int64(i)) + ":s"
				if err := db.Put("events", fmt.Sprintf("%d:MCE", i%64), row, cl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE11_StoreReadRange(b *testing.B) {
	f := getFixture(b)
	hour := model.HourOf(f.cfg.Storms[0].Start)
	pkey := model.EventByTimeKey(hour, model.Lustre)
	mid := f.cfg.Storms[0].Start.Add(time.Minute)
	rg := model.EventTimeRange(mid, mid.Add(2*time.Minute))
	for _, cl := range []store.Consistency{store.One, store.Quorum} {
		b.Run(cl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := f.db.Get(model.TableEventByTime, pkey, rg, cl)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) == 0 {
					b.Fatal("empty range")
				}
			}
		})
	}
}

func BenchmarkE11_StoreScaling(b *testing.B) {
	f := getFixture(b)
	events := f.corpus.Events[:20000]
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := store.Open(store.Config{Nodes: nodes, RF: 2})
				if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
					b.Fatal(err)
				}
				loader := ingest.NewLoader(db)
				b.StartTimer()
				if err := loader.LoadEvents(events); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkE11_StoreConcurrentClients sweeps concurrent writer clients on
// a fixed 8-node cluster — the axis along which an in-process store can
// actually exhibit parallel scaling (node count cannot: there is no
// network; see EXPERIMENTS.md).
func BenchmarkE11_StoreConcurrentClients(b *testing.B) {
	f := getFixture(b)
	events := f.corpus.Events[:20000]
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := store.Open(store.Config{Nodes: 8, RF: 2})
				if err := ingest.Bootstrap(db, f.cfg.Nodes); err != nil {
					b.Fatal(err)
				}
				loader := ingest.NewLoader(db)
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make([]error, clients)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						lo, hi := c*len(events)/clients, (c+1)*len(events)/clients
						errs[c] = loader.LoadEvents(events[lo:hi])
					}(c)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
