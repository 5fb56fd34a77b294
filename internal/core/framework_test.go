package core

import (
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func testFramework(t testing.TB) (*Framework, logs.Config, *logs.Corpus) {
	t.Helper()
	fw, err := New(Options{Store: store.Config{Nodes: 4, RF: 2}, MachineNodes: 2 * topology.NodesPerCabinet})
	if err != nil {
		t.Fatal(err)
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 90 * time.Minute
	cfg.Storms[0].Start = cfg.Start.Add(45 * time.Minute)
	cfg.Storms[0].EventsPerSec = 15
	cfg.Jobs.MaxNodes = 32
	return fw, cfg, logs.Generate(cfg)
}

// execute runs one /v1 op on the framework's query engine.
func execute(t *testing.T, fw *Framework, req query.Request) any {
	t.Helper()
	res, err := fw.Query.Execute(req)
	if err != nil {
		t.Fatalf("Execute(%s): %v", req.Op, err)
	}
	return res
}

func TestEndToEndImportAndAnalyze(t *testing.T) {
	fw, cfg, corpus := testFramework(t)
	res, err := fw.ImportCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsLoaded != len(corpus.Events) {
		t.Fatalf("imported %d of %d events", res.EventsLoaded, len(corpus.Events))
	}
	if res.RunsLoaded != len(corpus.Runs) {
		t.Fatalf("imported %d of %d runs", res.RunsLoaded, len(corpus.Runs))
	}
	window := query.Context{From: cfg.Start.Unix(), To: cfg.Start.Add(cfg.Duration).Unix()}
	mce, lustre := window, window
	mce.EventType, lustre.EventType = string(model.MCE), string(model.Lustre)

	if hm := execute(t, fw, query.Request{Op: query.OpHeatmap, Context: mce}).(*analytics.HeatMap); hm.Total == 0 {
		t.Fatal("empty heat map after import")
	}
	if hist := execute(t, fw, query.Request{Op: query.OpHistogram, Context: lustre, BinSeconds: 60}).([]int); len(hist) != 90 {
		t.Fatalf("histogram bins = %d", len(hist))
	}
	if events := execute(t, fw, query.Request{Op: query.OpEvents, Context: lustre}).([]query.EventRecord); len(events) == 0 {
		t.Fatal("no lustre events")
	}
	if runs := execute(t, fw, query.Request{Op: query.OpRuns, Context: window}).([]query.RunRecord); len(runs) != len(corpus.Runs) {
		t.Fatalf("%d runs read back of %d", len(runs), len(corpus.Runs))
	}
}

func TestStreamingThroughFramework(t *testing.T) {
	fw, _, _ := testFramework(t)
	s, err := fw.NewStreamer("raw-events", "worker-1", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := time.Date(2017, 8, 23, 12, 0, 0, 0, time.UTC)
	// Five occurrences per second for ten seconds, published in event-time
	// order as real-time producers do.
	for sec := 0; sec < 10; sec++ {
		for j := 0; j < 5; j++ {
			e := model.Event{
				Time:   base.Add(time.Duration(sec) * time.Second),
				Type:   model.Network,
				Source: "c0-0c0s7n0",
				Count:  1,
			}
			if err := fw.Publish("raw-events", e); err != nil {
				t.Fatal(err)
			}
		}
	}
	consumed, written, err := s.Drain(16)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 50 {
		t.Fatalf("consumed %d", consumed)
	}
	// 50 occurrences over 10 distinct seconds on one node coalesce into
	// exactly 10 rows: watermark buffering merges across poll batches.
	if written != 10 {
		t.Fatalf("written %d rows, want 10 coalesced windows", written)
	}
	events := execute(t, fw, query.Request{Op: query.OpEvents, Context: query.Context{
		EventType: string(model.Network), From: base.Unix(), To: base.Add(time.Minute).Unix()}}).([]query.EventRecord)
	total := 0
	for _, e := range events {
		total += e.Count
	}
	if total != 50 {
		t.Fatalf("occurrence mass = %d, want 50 preserved through coalescing", total)
	}
}

// TestFrameworkDefaults: zero Options open the paper's deployment, 32
// store nodes at RF 3, with the whole machine in nodeinfos.
func TestFrameworkDefaults(t *testing.T) {
	fw, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if n := len(fw.DB.NodeIDs()); n != 32 {
		t.Fatalf("store nodes = %d, want 32", n)
	}
	if rf := fw.DB.Ring().ReplicationFactor(); rf != 3 {
		t.Fatalf("RF = %d, want 3", rf)
	}
	last := topology.CabinetAt(topology.Rows-1, topology.Cols-1).String()
	nodes := execute(t, fw, query.Request{Op: query.OpNodeInfo, Context: query.Context{Source: last}}).([]map[string]string)
	if len(nodes) != topology.NodesPerCabinet {
		t.Fatalf("nodeinfos of the last cabinet %s: %d nodes, want %d", last, len(nodes), topology.NodesPerCabinet)
	}
}

func TestServerConstruction(t *testing.T) {
	fw, _, _ := testFramework(t)
	if fw.Server(server.Config{}) == nil {
		t.Fatal("no server")
	}
}
