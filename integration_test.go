// End-to-end acceptance test: the full Fig 3 stack assembled the way a
// deployment would run it — corpus batch-imported through the parallel
// ETL, analytic server over real HTTP, every query class exercised over
// the wire, CQL inserts feeding the same store — with assertions on the
// paper's headline behaviours.
package hpclog_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/dist"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

type stack struct {
	cfg logs.Config
	ts  *httptest.Server
	cli *client.Client
}

var (
	stackOnce sync.Once
	theStack  *stack
)

func getStack(t testing.TB) *stack {
	t.Helper()
	stackOnce.Do(func() {
		node, err := dist.Open(dist.Config{Store: store.Config{Nodes: 6, RF: 3}, MachineNodes: 4 * topology.NodesPerCabinet})
		if err != nil {
			panic(err)
		}
		cfg := logs.DefaultConfig()
		cfg.Nodes = 4 * topology.NodesPerCabinet
		cfg.Duration = 2 * time.Hour
		cfg.Hotspots = []logs.Hotspot{
			{Component: topology.CabinetAt(0, 1), Type: model.MCE, Multiplier: 40},
		}
		cfg.Storms[0].Start = cfg.Start.Add(time.Hour)
		cfg.Storms[0].Attrs["peer"] = "10.36.226.77@o2ib"
		cfg.Jobs.MaxNodes = 64
		corpus := logs.Generate(cfg)
		lines := make([]string, len(corpus.Lines))
		for i, l := range corpus.Lines {
			lines[i] = l.Format()
		}
		res, err := node.Import(context.Background(), lines, corpus.JobLines)
		if err != nil {
			panic(err)
		}
		if res.EventsLoaded != len(corpus.Events) || res.RunsLoaded != len(corpus.Runs) {
			panic(fmt.Sprintf("import incomplete: %+v", res))
		}
		ts := httptest.NewServer(node.Server)
		theStack = &stack{cfg: cfg, ts: ts, cli: client.New(ts.URL)}
	})
	return theStack
}

func (s *stack) query(t *testing.T, req query.Request, out any) {
	t.Helper()
	raw, err := s.cli.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("op %s failed over the wire: %v", req.Op, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("op %s: decode result: %v", req.Op, err)
	}
}

func (s *stack) window() query.Context {
	return query.Context{
		From: s.cfg.Start.Unix(),
		To:   s.cfg.Start.Add(s.cfg.Duration).Unix(),
	}
}

func TestIntegrationHotspotOverWire(t *testing.T) {
	s := getStack(t)
	ctx := s.window()
	ctx.EventType = "MCE"
	var hm struct {
		Counts [25][8]int
		Max    int
		Total  int
	}
	s.query(t, query.Request{Op: query.OpHeatmap, Context: ctx}, &hm)
	if hm.Total == 0 || hm.Counts[0][1] != hm.Max {
		t.Fatalf("hotspot cabinet c1-0 not maximal over the wire: %d vs %d", hm.Counts[0][1], hm.Max)
	}
}

func TestIntegrationStormForensicsOverWire(t *testing.T) {
	s := getStack(t)
	storm := s.cfg.Storms[0]
	ctx := query.Context{
		EventType: "LUSTRE",
		From:      storm.Start.Unix(),
		To:        storm.Start.Add(storm.Duration).Unix(),
	}
	var words []query.WordCountEntry
	s.query(t, query.Request{Op: query.OpWordCount, Context: ctx, TopK: 30}, &words)
	found := false
	for _, w := range words {
		if w.Term == "ost0012" {
			found = true
		}
	}
	if !found {
		t.Fatal("culprit OST not surfaced over the wire")
	}
}

func TestIntegrationMiningOverWire(t *testing.T) {
	s := getStack(t)
	var rules []struct {
		Antecedent string  `json:"Antecedent"`
		Consequent string  `json:"Consequent"`
		Lift       float64 `json:"Lift"`
	}
	s.query(t, query.Request{Op: query.OpRules, Context: s.window(), BinSeconds: 60}, &rules)
	if len(rules) == 0 {
		t.Fatal("no rules over the wire")
	}
	var episodes []struct {
		Count int
	}
	ctx := s.window()
	ctx.EventType = "LUSTRE"
	s.query(t, query.Request{Op: query.OpEpisodes, Context: ctx, BinSeconds: 60}, &episodes)
	best := 0
	for _, ep := range episodes {
		if ep.Count > best {
			best = ep.Count
		}
	}
	if best < 1000 {
		t.Fatalf("storm episode not visible over the wire (max count %d)", best)
	}
}

func TestIntegrationReliabilityOverWire(t *testing.T) {
	s := getStack(t)
	var payload struct {
		Stats struct {
			N    int
			MTBF int64
		} `json:"stats"`
		TopFailing []struct {
			Component string
			Failures  int
		} `json:"top_failing"`
	}
	s.query(t, query.Request{Op: query.OpReliability, Context: s.window(), TopK: 3}, &payload)
	if payload.Stats.N < 2 || len(payload.TopFailing) == 0 {
		t.Fatalf("reliability payload: %+v", payload)
	}
	if payload.TopFailing[0].Component != "c1-0" {
		t.Fatalf("top failing = %s, want MCE hotspot cabinet c1-0", payload.TopFailing[0].Component)
	}
}

func TestIntegrationCQLOverWire(t *testing.T) {
	s := getStack(t)
	hour := model.HourOf(s.cfg.Start)
	stmt := fmt.Sprintf("SELECT amount FROM event_by_time WHERE partition = '%d:MEM_ECC' LIMIT 5", hour)
	result, err := s.cli.Session("").Execute(context.Background(), stmt)
	if err != nil {
		t.Fatalf("cql failed: %v", err)
	}
	if len(result.Rows) == 0 || len(result.Rows) > 5 {
		t.Fatalf("%d CQL rows", len(result.Rows))
	}
}

func TestIntegrationStreamingIntoSameStore(t *testing.T) {
	s := getStack(t)
	// Write events into an hour far from the corpus, one CQL INSERT each,
	// through the live write path every client uses.
	base := s.cfg.Start.Add(48 * time.Hour)
	sess := s.cli.Session("")
	for i := 0; i < 20; i++ {
		e := model.Event{
			Time:   base.Add(time.Duration(i) * time.Second),
			Type:   model.GPUDBE,
			Source: "c0-0c0s0n0",
			Count:  1,
		}
		stmt := fmt.Sprintf("INSERT INTO event_by_time (partition, key, source, amount) VALUES ('%s', '%s', '%s', '1')",
			model.EventByTimeKey(model.HourOf(e.Time), e.Type), model.EventToTimeRow(e).Key, e.Source)
		if _, err := sess.Execute(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	// The written data answers queries over the same HTTP surface.
	var events []query.EventRecord
	ctx := query.Context{
		EventType: "GPU_DBE",
		From:      base.Unix(),
		To:        base.Add(time.Minute).Unix(),
	}
	s.query(t, query.Request{Op: query.OpEvents, Context: ctx}, &events)
	if len(events) != 20 {
		t.Fatalf("%d inserted events visible over the wire, want 20", len(events))
	}
}

func TestIntegrationQueryStatsAccumulate(t *testing.T) {
	s := getStack(t)
	stats, err := s.cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries.Simple+stats.Queries.BigData == 0 {
		t.Fatal("no queries recorded after the integration suite")
	}
	if len(stats.Nodes) != 6 {
		t.Fatalf("stats nodes = %v", stats.Nodes)
	}
}
