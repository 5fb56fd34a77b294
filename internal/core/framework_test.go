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
