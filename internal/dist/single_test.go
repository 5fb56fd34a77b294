package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/dist"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// openSingle opens a no-peer node — every store member in this process —
// over a fresh test directory with the commitlog unsynced.
func openSingle(t testing.TB, cfg dist.Config) *dist.Node {
	t.Helper()
	cfg.Store.Dir, cfg.Store.WALNoSync = t.TempDir(), true
	n, err := dist.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// importCorpus imports a generated corpus's formatted lines, and its job
// lines when jobs is set.
func importCorpus(t testing.TB, n *dist.Node, c *logs.Corpus, jobs bool) {
	t.Helper()
	lines := make([]string, len(c.Lines))
	for i, l := range c.Lines {
		lines[i] = l.Format()
	}
	var jobLines []string
	if jobs {
		jobLines = c.JobLines
	}
	res, err := n.Import(context.Background(), lines, jobLines)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsLoaded != len(c.Events) {
		t.Fatalf("imported %d of %d events", res.EventsLoaded, len(c.Events))
	}
	if jobs && res.RunsLoaded != len(c.Runs) {
		t.Fatalf("imported %d of %d runs", res.RunsLoaded, len(c.Runs))
	}
}

func testCorpus() (logs.Config, *logs.Corpus) {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 90 * time.Minute
	cfg.Storms[0].Start = cfg.Start.Add(45 * time.Minute)
	cfg.Storms[0].EventsPerSec = 15
	cfg.Jobs.MaxNodes = 32
	return cfg, logs.Generate(cfg)
}

// execute runs one /v1 op on the node's query engine.
func execute(t *testing.T, n *dist.Node, req query.Request) any {
	t.Helper()
	res, err := n.Query.Execute(req)
	if err != nil {
		t.Fatalf("Execute(%s): %v", req.Op, err)
	}
	return res
}

// TestFrameworkDefaults: a zero Config opens the paper's deployment, 32
// local store members at RF 3, with the whole machine in nodeinfos.
func TestFrameworkDefaults(t *testing.T) {
	n := openSingle(t, dist.Config{})
	ids := n.DB.NodeIDs()
	if len(ids) != 32 {
		t.Fatalf("store nodes = %d, want 32", len(ids))
	}
	for _, id := range ids {
		if !n.DB.IsLocalMember(id) {
			t.Fatalf("member %s is not local", id)
		}
	}
	if rf := n.DB.Ring().ReplicationFactor(); rf != 3 {
		t.Fatalf("RF = %d, want 3", rf)
	}
	last := topology.CabinetAt(topology.Rows-1, topology.Cols-1).String()
	nodes := execute(t, n, query.Request{Op: query.OpNodeInfo, Context: query.Context{Source: last}}).([]map[string]string)
	if len(nodes) != topology.NodesPerCabinet {
		t.Fatalf("nodeinfos of the last cabinet %s: %d nodes, want %d", last, len(nodes), topology.NodesPerCabinet)
	}
}

func TestImportCorpusReportsUnmatched(t *testing.T) {
	n := openSingle(t, dist.Config{Store: store.Config{Nodes: 2, RF: 1}, MachineNodes: topology.NodesPerCabinet})
	lines := []string{
		logs.RawLine{Time: time.Unix(3600*500, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
			Text: "Kernel panic - not syncing: test"}.Format(),
		logs.RawLine{Time: time.Unix(3600*500+1, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
			Text: "an unrecognized message"}.Format(),
	}
	res, err := n.Import(context.Background(), lines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != 1 || res.Unmatched != 1 {
		t.Fatalf("import stats = %+v", res)
	}
}

func TestEndToEndImportAndAnalyze(t *testing.T) {
	n := openSingle(t, dist.Config{Store: store.Config{Nodes: 4, RF: 2}, MachineNodes: 2 * topology.NodesPerCabinet})
	cfg, corpus := testCorpus()
	importCorpus(t, n, corpus, true)
	window := query.Context{From: cfg.Start.Unix(), To: cfg.Start.Add(cfg.Duration).Unix()}
	mce, lustre := window, window
	mce.EventType, lustre.EventType = string(model.MCE), string(model.Lustre)

	if hm := execute(t, n, query.Request{Op: query.OpHeatmap, Context: mce}).(*analytics.HeatMap); hm.Total == 0 {
		t.Fatal("empty heat map after import")
	}
	if hist := execute(t, n, query.Request{Op: query.OpHistogram, Context: lustre, BinSeconds: 60}).([]int); len(hist) != 90 {
		t.Fatalf("histogram bins = %d", len(hist))
	}
	if events := execute(t, n, query.Request{Op: query.OpEvents, Context: lustre}).([]query.EventRecord); len(events) == 0 {
		t.Fatal("no lustre events")
	}
	if runs := execute(t, n, query.Request{Op: query.OpRuns, Context: window}).([]query.RunRecord); len(runs) != len(corpus.Runs) {
		t.Fatalf("%d runs read back of %d", len(runs), len(corpus.Runs))
	}
}

// TestRefreshSynopsisThroughFacade: Import without job lines writes one
// eventsynopsis row for exactly the hours that hold events of each type.
func TestRefreshSynopsisThroughFacade(t *testing.T) {
	n := openSingle(t, dist.Config{Store: store.Config{Nodes: 4, RF: 2}, MachineNodes: 2 * topology.NodesPerCabinet})
	_, corpus := testCorpus()
	importCorpus(t, n, corpus, false)
	want := make(map[model.EventType]map[int64]bool)
	for _, e := range corpus.Events {
		if want[e.Type] == nil {
			want[e.Type] = make(map[int64]bool)
		}
		want[e.Type][model.HourOf(e.Time)] = true
	}
	for _, typ := range model.EventTypes {
		entries := execute(t, n, query.Request{Op: query.OpSynopsis, Context: query.Context{EventType: string(typ)}}).([]query.SynopsisEntry)
		got := make(map[int64]bool)
		for _, s := range entries {
			if s.Count <= 0 || s.Sources <= 0 {
				t.Fatalf("%s: bad synopsis entry %+v", typ, s)
			}
			got[s.Hour] = true
		}
		if !maps.Equal(got, want[typ]) {
			t.Fatalf("%s: synopsis hours %v, want %v", typ, got, want[typ])
		}
	}
	if len(want[model.Lustre]) == 0 {
		t.Fatal("corpus has no LUSTRE events to summarise")
	}
}

// TestSingleProcessClusterStatus: /v1/cluster on a no-peer node answers
// the result bytes a server over the same store with no cluster runtime
// attached answers (write_ts aside), every member local.
func TestSingleProcessClusterStatus(t *testing.T) {
	n := openSingle(t, dist.Config{Store: store.Config{Nodes: 4, RF: 2}, MachineNodes: topology.NodesPerCabinet})
	plain := server.NewWithConfig(n.Query, n.DB, n.Compute, server.Config{})
	defer plain.Close()
	writeTS := regexp.MustCompile(`"write_ts":\d+`)
	status := func(url string) []byte {
		resp, err := http.Get(url + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct{ Result json.RawMessage }
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return writeTS.ReplaceAll(env.Result, nil)
	}
	ts, plainTS := httptest.NewServer(n.Server), httptest.NewServer(plain)
	defer ts.Close()
	defer plainTS.Close()
	if got, want := status(ts.URL), status(plainTS.URL); !bytes.Equal(got, want) {
		t.Fatalf("no-peer /v1/cluster:\n%s\nwant:\n%s", got, want)
	}
	st, err := client.New(ts.URL).ClusterStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 4 {
		t.Fatalf("%d members, want 4", len(st.Members))
	}
	for _, m := range st.Members {
		if !m.Local || !m.Up {
			t.Fatalf("member %+v not local and up", m)
		}
	}
}
