package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/topology"
)

// TestFacadeSurface exercises every analytic passthrough of the Framework
// against one imported corpus, asserting the minimal correctness property
// of each (non-empty, correctly keyed, or matching ground truth) and that
// the facade and the query engine read through one path.
func TestFacadeSurface(t *testing.T) {
	fw, cfg, corpus := testFramework(t)
	if err := fw.LoadGroundTruth(corpus); err != nil {
		t.Fatal(err)
	}
	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)

	if got := fw.Options().StoreNodes; got != 4 {
		t.Fatalf("Options().StoreNodes = %d", got)
	}

	buckets, err := fw.Distribution(model.MCE, from, to, topology.LevelCabinet)
	if err != nil || len(buckets) == 0 {
		t.Fatalf("Distribution: %v (%d buckets)", err, len(buckets))
	}
	byApp, err := fw.DistributionByApp(model.Lustre, from, to)
	if err != nil || len(byApp) == 0 {
		t.Fatalf("DistributionByApp: %v (%d buckets)", err, len(byApp))
	}

	te, err := fw.TransferEntropy(model.Lustre, model.AppAbort, from, to, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if te.XToY < 0 || te.YToX < 0 {
		t.Fatalf("TE = %+v", te)
	}

	storm := cfg.Storms[0]
	counts, err := fw.WordCount(model.Lustre, storm.Start, storm.Start.Add(storm.Duration))
	if err != nil {
		t.Fatal(err)
	}
	if counts["lustreerror"] == 0 {
		t.Fatal("WordCount missed the template token")
	}
	scores, err := fw.TFIDF(model.Lustre, storm.Start, storm.Start.Add(storm.Duration))
	if err != nil || len(scores) == 0 {
		t.Fatalf("TFIDF: %v (%d scores)", err, len(scores))
	}

	at := corpus.Runs[0].Start.Add(time.Second)
	placement, err := fw.Placement(at)
	if err != nil || len(placement) == 0 {
		t.Fatalf("Placement: %v (%d nodes)", err, len(placement))
	}
	var stormAt time.Time
	for _, e := range corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(storm.Start) {
			stormAt = e.Time
			break
		}
	}
	sites, err := fw.EventSites(model.Lustre, stormAt)
	if err != nil || len(sites) == 0 {
		t.Fatalf("EventSites: %v (%d sites)", err, len(sites))
	}

	rules, err := fw.MineRules(from, to, time.Minute, 0.001, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("MineRules found nothing on a storm corpus")
	}
	if _, err := fw.MineSequences(from, to, time.Minute, 5); err != nil {
		t.Fatal(err)
	}
	episodes, err := fw.Episodes(model.Lustre, from, to, time.Minute, false)
	if err != nil || len(episodes) == 0 {
		t.Fatalf("Episodes: %v (%d)", err, len(episodes))
	}
	if _, err := fw.DetectComposite(mining.CompositeDef{
		Name:    "PAIR",
		Members: []model.EventType{model.Lustre, model.AppAbort},
		Window:  time.Minute,
	}, from, to); err != nil {
		t.Fatal(err)
	}

	profiles, err := fw.Profiles(from, to)
	if err != nil || len(profiles) == 0 {
		t.Fatalf("Profiles: %v (%d)", err, len(profiles))
	}
	stats, err := fw.Reliability(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if stats.N < 2 || stats.MTBF <= 0 {
		t.Fatalf("Reliability stats = %+v", stats)
	}

	// One path: each facade method answers exactly what the /v1 op it
	// mirrors answers on the same window.
	op := func(o query.Op, typ model.EventType, from, to time.Time) any {
		t.Helper()
		res, err := fw.Query.Execute(query.Request{Op: o, TopK: 1 << 20, Context: query.Context{
			EventType: string(typ), From: from.Unix(), To: to.Unix()}})
		if err != nil {
			t.Fatalf("Execute(%s): %v", o, err)
		}
		return res
	}
	sameJSON := func(name string, facade, wire any) {
		t.Helper()
		f, err := json.Marshal(facade)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, w) {
			t.Fatalf("%s: facade and query op differ\nfacade %.300s\nop     %.300s", name, f, w)
		}
	}
	wc := map[string]int{}
	for _, e := range op(query.OpWordCount, model.Lustre, storm.Start, storm.Start.Add(storm.Duration)).([]query.WordCountEntry) {
		wc[e.Term] = e.Count
	}
	sameJSON("WordCount", counts, wc)
	sameJSON("TFIDF", scores, op(query.OpTFIDF, model.Lustre, storm.Start, storm.Start.Add(storm.Duration)))
	hm, err := fw.Heatmap(model.MCE, from, to)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON("Heatmap", hm, op(query.OpHeatmap, model.MCE, from, to))
	events, err := fw.Events(model.Lustre, from, to)
	if err != nil || len(events) == 0 {
		t.Fatalf("Events: %v (%d)", err, len(events))
	}
	recs := make([]query.EventRecord, len(events))
	for i, e := range events {
		recs[i] = query.EventRecord{Time: e.Time.Unix(), Type: string(e.Type), Source: e.Source,
			Count: e.Count, Raw: e.Raw, Attrs: e.Attrs}
	}
	sameJSON("Events", recs, op(query.OpEvents, model.Lustre, from, to))
	rules, err = fw.MineRules(from, to, time.Minute, 0.01, 0.2) // the op's thresholds
	if err != nil {
		t.Fatal(err)
	}
	sameJSON("MineRules", rules, op(query.OpRules, "", from, to))
	var rel struct {
		Stats json.RawMessage `json:"stats"`
	}
	b, err := json.Marshal(op(query.OpReliability, "", from, to))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rel); err != nil {
		t.Fatal(err)
	}
	sameJSON("Reliability", stats, rel.Stats)

	res, err := fw.CQL("DESCRIBE TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != len(model.AllTables) {
		t.Fatalf("CQL DESCRIBE TABLES = %v", res.Tables)
	}
	hour := model.HourOf(from)
	sel, err := fw.CQL("SELECT amount FROM event_by_time WHERE partition = '" +
		model.EventByTimeKey(hour, model.MemECC) + "' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) == 0 {
		t.Fatal("CQL SELECT returned nothing")
	}
	if _, err := fw.CQL("DROP EVERYTHING"); err == nil {
		t.Fatal("bad CQL accepted")
	}
}

func TestRefreshSynopsisThroughFacade(t *testing.T) {
	fw, cfg, corpus := testFramework(t)
	if err := fw.LoadGroundTruth(corpus); err != nil {
		t.Fatal(err)
	}
	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)
	if err := fw.RefreshSynopsis(from, to); err != nil {
		t.Fatal(err)
	}
	res, err := fw.CQL("SELECT count FROM eventsynopsis WHERE partition = 'LUSTRE'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("synopsis empty after refresh")
	}
	for _, r := range res.Rows {
		if r.Columns["count"] == "" || strings.HasPrefix(r.Columns["count"], "-") {
			t.Fatalf("bad synopsis row %+v", r)
		}
	}
}

func TestImportCorpusReportsUnmatched(t *testing.T) {
	fw, err := New(Options{StoreNodes: 2, RF: 1, MachineNodes: topology.NodesPerCabinet})
	if err != nil {
		t.Fatal(err)
	}
	corpus := &logs.Corpus{
		Lines: []logs.RawLine{
			{Time: time.Unix(3600*500, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
				Text: "Kernel panic - not syncing: test"},
			{Time: time.Unix(3600*500+1, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
				Text: "an unrecognized message"},
		},
		Events: []model.Event{{
			Time: time.Unix(3600*500, 0).UTC(), Type: model.KernelPanic,
			Source: "c0-0c0s0n0", Count: 1,
		}},
	}
	res, err := fw.ImportCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != 1 || res.Unmatched != 1 {
		t.Fatalf("import stats = %+v", res)
	}
}
