package query

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
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
	q      *Engine
}

var shared *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 2 * time.Hour
	cfg.Hotspots = []logs.Hotspot{{Component: topology.CabinetAt(0, 0), Type: model.MCE, Multiplier: 40}}
	cfg.Storms[0].Start = cfg.Start.Add(time.Hour)
	cfg.Storms[0].EventsPerSec = 20
	cfg.Jobs.MaxNodes = 32
	corpus := logs.Generate(cfg)
	db := openShared(t, store.Config{Nodes: 4, RF: 2, VNodes: 16, FlushThreshold: 1024})
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
	hours := model.HoursIn(cfg.Start, cfg.Start.Add(cfg.Duration))
	if err := ingest.RefreshSynopsis(eng, db, hours, store.Quorum); err != nil {
		t.Fatal(err)
	}
	shared = &fixture{cfg: cfg, corpus: corpus, db: db, q: New(db, eng)}
	return shared
}

func (f *fixture) ctx() Context {
	return Context{
		From: f.cfg.Start.Unix(),
		To:   f.cfg.Start.Add(f.cfg.Duration).Unix(),
	}
}

func TestOpTypes(t *testing.T) {
	f := getFixture(t)
	res, err := f.q.Execute(Request{Op: OpTypes})
	if err != nil {
		t.Fatal(err)
	}
	types, ok := res.(map[string]string)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if len(types) != len(model.EventTypes) {
		t.Fatalf("%d types", len(types))
	}
	if types["MCE"] == "" {
		t.Fatal("MCE missing description")
	}
}

func TestOpEventsByType(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "MCE"
	res, err := f.q.Execute(Request{Op: OpEvents, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	events := res.([]EventRecord)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i, e := range events {
		if e.Type != "MCE" {
			t.Fatalf("event %d has type %s", i, e.Type)
		}
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatal("events not chronological")
		}
	}
}

func TestOpEventsBySourceFiltersType(t *testing.T) {
	f := getFixture(t)
	var src string
	for _, e := range f.corpus.Events {
		if e.Type == model.MCE {
			src = e.Source
			break
		}
	}
	ctx := f.ctx()
	ctx.Source = src
	res, err := f.q.Execute(Request{Op: OpEvents, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	all := res.([]EventRecord)
	ctx.EventType = "MCE"
	res, err = f.q.Execute(Request{Op: OpEvents, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	mceOnly := res.([]EventRecord)
	if len(mceOnly) == 0 || len(mceOnly) > len(all) {
		t.Fatalf("filtering broken: %d MCE of %d total", len(mceOnly), len(all))
	}
	for _, e := range mceOnly {
		if e.Type != "MCE" || e.Source != src {
			t.Fatalf("bad record %+v", e)
		}
	}
}

func TestOpRunsByUserAndApp(t *testing.T) {
	f := getFixture(t)
	run := f.corpus.Runs[0]
	res, err := f.q.Execute(Request{Op: OpRuns, Context: Context{User: run.User}})
	if err != nil {
		t.Fatal(err)
	}
	byUser := res.([]RunRecord)
	if len(byUser) == 0 {
		t.Fatal("no runs for user")
	}
	for _, r := range byUser {
		if r.User != run.User {
			t.Fatalf("foreign user %s", r.User)
		}
	}
	res, err = f.q.Execute(Request{Op: OpRuns, Context: Context{App: run.App}})
	if err != nil {
		t.Fatal(err)
	}
	byApp := res.([]RunRecord)
	if len(byApp) == 0 {
		t.Fatal("no runs for app")
	}
	for _, r := range byApp {
		if r.App != run.App {
			t.Fatalf("foreign app %s", r.App)
		}
	}
	// Window-only query returns every run.
	res, err = f.q.Execute(Request{Op: OpRuns, Context: f.ctx()})
	if err != nil {
		t.Fatal(err)
	}
	all := res.([]RunRecord)
	if len(all) != len(f.corpus.Runs) {
		t.Fatalf("window query returned %d runs, corpus has %d", len(all), len(f.corpus.Runs))
	}
}

func TestOpSynopsis(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "LUSTRE"
	res, err := f.q.Execute(Request{Op: OpSynopsis, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	entries := res.([]SynopsisEntry)
	if len(entries) == 0 {
		t.Fatal("no synopsis entries")
	}
	total := 0
	for _, e := range entries {
		total += e.Count
		if e.Sources <= 0 {
			t.Fatalf("entry %+v has no sources", e)
		}
	}
	if total == 0 {
		t.Fatal("synopsis total zero")
	}
}

func TestOpNodeInfo(t *testing.T) {
	f := getFixture(t)
	res, err := f.q.Execute(Request{Op: OpNodeInfo, Context: Context{Source: "c0-0c1s2"}})
	if err != nil {
		t.Fatal(err)
	}
	infos := res.([]map[string]string)
	if len(infos) != topology.NodesPerBlade {
		t.Fatalf("blade query returned %d nodes", len(infos))
	}
	for _, m := range infos {
		if m["cname"] == "" || m["gemini"] == "" {
			t.Fatalf("incomplete nodeinfo %v", m)
		}
	}
	if _, err := f.q.Execute(Request{Op: OpNodeInfo}); err == nil {
		t.Fatal("nodeinfo without source accepted")
	}
}

func TestOpHeatmapAndDistribution(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "MCE"
	res, err := f.q.Execute(Request{Op: OpHeatmap, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	hm := res.(*analytics.HeatMap)
	if hm.Counts[0][0] != hm.Max || hm.Max == 0 {
		t.Fatalf("hotspot cabinet not maximal: %d vs %d", hm.Counts[0][0], hm.Max)
	}
	res, err = f.q.Execute(Request{Op: OpDistribution, Context: ctx, Level: "node", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	buckets := res.([]analytics.Bucket)
	if len(buckets) > 5 {
		t.Fatalf("topK not applied: %d buckets", len(buckets))
	}
	if _, err := f.q.Execute(Request{Op: OpDistribution, Context: ctx, Level: "galaxy"}); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestOpHistogram(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "LUSTRE"
	res, err := f.q.Execute(Request{Op: OpHistogram, Context: ctx, BinSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	hist := res.([]int)
	if len(hist) != 120 {
		t.Fatalf("histogram bins = %d", len(hist))
	}
}

func TestOpTransferEntropy(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "LUSTRE"
	res, err := f.q.Execute(Request{
		Op: OpTE, Context: ctx, SecondType: "APP_ABORT", BinSeconds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	te := res.(TEResponse)
	if te.TEForward <= 0 {
		t.Fatalf("TE forward = %v", te.TEForward)
	}
	if _, err := f.q.Execute(Request{Op: OpTE, Context: ctx}); err == nil {
		t.Fatal("TE without second_type accepted")
	}
}

func TestOpWordCountAndTFIDF(t *testing.T) {
	f := getFixture(t)
	storm := f.cfg.Storms[0]
	ctx := Context{
		EventType: "LUSTRE",
		From:      storm.Start.Unix(),
		To:        storm.Start.Add(storm.Duration).Unix(),
	}
	res, err := f.q.Execute(Request{Op: OpWordCount, Context: ctx, TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	words := res.([]WordCountEntry)
	if len(words) == 0 || len(words) > 20 {
		t.Fatalf("wordcount returned %d entries", len(words))
	}
	seen := false
	for _, w := range words {
		if w.Term == "ost0012" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("culprit OST not in top word counts")
	}
	res, err = f.q.Execute(Request{Op: OpTFIDF, Context: ctx, TopK: 15})
	if err != nil {
		t.Fatal(err)
	}
	scores := res.([]analytics.TermScore)
	if len(scores) == 0 || len(scores) > 15 {
		t.Fatalf("tfidf returned %d entries", len(scores))
	}
}

// TestWordCountTopKIsSortedPrefix: the wordcount op's k-heap selection
// returns exactly the first k entries of the whole vocabulary sorted by
// descending count, ties by term, for k around the edges.
func TestWordCountTopKIsSortedPrefix(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	for _, typ := range []model.EventType{model.Lustre, model.MCE, model.MemECC} {
		vocab, err := analytics.TextFold.Scan(f.q.compute, f.q.db, typ, f.cfg.Start, f.cfg.Start.Add(f.cfg.Duration), analytics.ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var full []WordCountEntry
		for term, c := range vocab.WordCounts() {
			full = append(full, WordCountEntry{term, c})
		}
		sort.Slice(full, func(i, j int) bool {
			if full[i].Count != full[j].Count {
				return full[i].Count > full[j].Count
			}
			return full[i].Term < full[j].Term
		})
		n := len(full)
		if n < 4 {
			t.Fatalf("%s: a vocabulary of %d terms is too small to cut", typ, n)
		}
		ctx.EventType = string(typ)
		for _, k := range []int{1, 2, 50, n - 1, n, n + 3} {
			res, err := f.q.Execute(Request{Op: OpWordCount, Context: ctx, TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.([]WordCountEntry), full[:min(k, n)]; !slices.Equal(got, want) {
				t.Fatalf("%s, top_k %d: %d entries that are not the first %d of the full sort", typ, k, len(got), len(want))
			}
		}
	}
}

func TestOpPlacementAndSites(t *testing.T) {
	f := getFixture(t)
	at := f.corpus.Runs[0].Start.Add(time.Second)
	res, err := f.q.Execute(Request{Op: OpPlacement, At: at.Unix()})
	if err != nil {
		t.Fatal(err)
	}
	placement := res.(map[string]string)
	if len(placement) == 0 {
		t.Fatal("no placement")
	}
	var stormAt time.Time
	for _, e := range f.corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(f.cfg.Storms[0].Start) {
			stormAt = e.Time
			break
		}
	}
	res, err = f.q.Execute(Request{
		Op: OpSites, At: stormAt.Unix(),
		Context: Context{EventType: "LUSTRE"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := res.(map[string]int)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
}

func TestRequestValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := f.q.Execute(Request{Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := f.q.Execute(Request{Op: OpHeatmap}); err == nil {
		t.Fatal("heatmap without type accepted")
	}
	if _, err := f.q.Execute(Request{Op: OpHeatmap, Context: Context{EventType: "MCE"}}); err == nil {
		t.Fatal("heatmap without window accepted")
	}
}

func TestStatsRouting(t *testing.T) {
	f := getFixture(t)
	before := f.q.Stats()
	ctx := f.ctx()
	ctx.EventType = "MCE"
	if _, err := f.q.Execute(Request{Op: OpTypes}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.q.Execute(Request{Op: OpHeatmap, Context: ctx}); err != nil {
		t.Fatal(err)
	}
	after := f.q.Stats()
	if after.Simple != before.Simple+1 {
		t.Fatalf("simple count %d -> %d", before.Simple, after.Simple)
	}
	if after.BigData != before.BigData+1 {
		t.Fatalf("bigdata count %d -> %d", before.BigData, after.BigData)
	}
}

func TestResultsAreJSONSerializable(t *testing.T) {
	f := getFixture(t)
	ctx := f.ctx()
	ctx.EventType = "MCE"
	for _, req := range []Request{
		{Op: OpTypes},
		{Op: OpEvents, Context: ctx},
		{Op: OpHeatmap, Context: ctx},
		{Op: OpSynopsis, Context: ctx},
		{Op: OpHistogram, Context: ctx},
	} {
		res, err := f.q.Execute(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%s result not JSON-serializable: %v", req.Op, err)
		}
	}
}

// TestOpAnswers checks one property of each op's answer on the shared
// fixture that the per-op tests above leave out.
func TestOpAnswers(t *testing.T) {
	f := getFixture(t)
	window := f.ctx()
	mce, lustre := window, window
	mce.EventType, lustre.EventType = "MCE", "LUSTRE"
	storm := f.cfg.Storms[0]
	stormLustre := Context{EventType: "LUSTRE", From: storm.Start.Unix(), To: storm.Start.Add(storm.Duration).Unix()}
	for _, tc := range []struct {
		name  string
		req   Request
		check func(res any) string
	}{
		{"distribution by cabinet is not empty",
			Request{Op: OpDistribution, Context: mce, Level: "cabinet"},
			func(res any) string {
				if len(res.([]analytics.Bucket)) == 0 {
					return "no buckets"
				}
				return ""
			}},
		{"distribution by app names a running application",
			Request{Op: OpDistribution, Context: lustre, Level: "app"},
			func(res any) string {
				for _, b := range res.([]analytics.Bucket) {
					if b.Label != "(idle)" {
						return ""
					}
				}
				return fmt.Sprintf("only idle buckets: %v", res)
			}},
		{"transfer entropy is non-negative both ways",
			Request{Op: OpTE, Context: lustre, SecondType: "APP_ABORT", BinSeconds: 30},
			func(res any) string {
				if te := res.(TEResponse); te.TEForward < 0 || te.TEReverse < 0 {
					return fmt.Sprintf("%+v", te)
				}
				return ""
			}},
		{"wordcount over the storm holds the template token",
			Request{Op: OpWordCount, Context: stormLustre, TopK: 1 << 20},
			func(res any) string {
				for _, w := range res.([]WordCountEntry) {
					if w.Term == "lustreerror" && w.Count > 0 {
						return ""
					}
				}
				return "no lustreerror token"
			}},
		{"the storm's events come from most of the machine",
			Request{Op: OpEvents, Context: stormLustre},
			func(res any) string {
				sources := map[string]bool{}
				for _, e := range res.([]EventRecord) {
					sources[e.Source] = true
				}
				if len(sources) < f.cfg.Nodes/2 {
					return fmt.Sprintf("%d distinct sources of %d nodes", len(sources), f.cfg.Nodes)
				}
				return ""
			}},
		{"reliability has a positive MTBF",
			Request{Op: OpReliability, Context: window},
			func(res any) string {
				stats := res.(struct {
					Stats      analytics.InterarrivalStats   `json:"stats"`
					TopFailing []analytics.ComponentFailures `json:"top_failing"`
				}).Stats
				if stats.N < 2 || stats.MTBF <= 0 {
					return fmt.Sprintf("stats %+v", stats)
				}
				return ""
			}},
	} {
		res, err := f.q.Execute(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if msg := tc.check(res); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}
