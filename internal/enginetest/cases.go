package enginetest

import (
	"encoding/json"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/model"
	"hpclog/internal/query"
)

// Case is one engine-test: a frontend request and a check over its
// (wire-format) result. The harness additionally asserts the direct
// (serial) and wire (parallel) executions byte-for-byte identical before
// Check runs.
type Case struct {
	Name  string
	Req   query.Request
	Check func(t *testing.T, h *Harness, result json.RawMessage)
}

func mustDecode[T any](t *testing.T, raw json.RawMessage) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %T: %v (raw %.200s)", v, err, raw)
	}
	return v
}

// stormInstant returns the timestamp of the first storm-window Lustre
// event, the instant the sites query targets.
func (h *Harness) stormInstant() time.Time {
	storm := h.Cfg.Storms[0]
	for _, e := range h.Corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(storm.Start) {
			return e.Time
		}
	}
	return storm.Start
}

// Cases is the request→expected-result table covering every query.Op.
// Each expectation asserts the ground truth the corpus was seeded with
// (the hot cabinet, the unresponsive OST, the injected causal coupling),
// not just shape.
func Cases(h *Harness) []Case {
	from, to := h.Window()
	win := query.Context{From: from.Unix(), To: to.Unix()}
	withType := func(typ model.EventType) query.Context {
		c := win
		c.EventType = string(typ)
		return c
	}
	firstRun := h.Corpus.Runs[0]
	storm := h.Cfg.Storms[0]

	return []Case{
		{
			Name: "types",
			Req:  query.Request{Op: query.OpTypes},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				types := mustDecode[map[string]string](t, raw)
				if len(types) != len(model.EventTypes) {
					t.Fatalf("catalog has %d types, want %d", len(types), len(model.EventTypes))
				}
				for _, et := range model.EventTypes {
					if types[string(et)] != model.TypeDescriptions[et] {
						t.Fatalf("type %s: description %q", et, types[string(et)])
					}
				}
			},
		},
		{
			Name: "nodeinfo",
			Req:  query.Request{Op: query.OpNodeInfo, Context: query.Context{Source: "c0-0"}},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				infos := mustDecode[[]map[string]string](t, raw)
				if len(infos) == 0 {
					t.Fatal("no nodeinfos for cabinet c0-0")
				}
				for _, info := range infos {
					if info["cname"] == "" || info["cpu"] == "" {
						t.Fatalf("incomplete nodeinfo %v", info)
					}
				}
			},
		},
		{
			Name: "events",
			Req:  query.Request{Op: query.OpEvents, Context: withType(model.MCE)},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				events := mustDecode[[]query.EventRecord](t, raw)
				if len(events) == 0 {
					t.Fatal("no MCE events")
				}
				last := int64(0)
				for _, e := range events {
					if e.Type != string(model.MCE) {
						t.Fatalf("wrong type %q in filtered query", e.Type)
					}
					if e.Time < last {
						t.Fatal("events not chronological")
					}
					last = e.Time
				}
			},
		},
		{
			Name: "events_by_source",
			Req: query.Request{Op: query.OpEvents,
				Context: query.Context{Source: h.Corpus.Events[0].Source, From: from.Unix(), To: to.Unix()}},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				events := mustDecode[[]query.EventRecord](t, raw)
				if len(events) == 0 {
					t.Fatal("no events for source")
				}
				for _, e := range events {
					if e.Source != h.Corpus.Events[0].Source {
						t.Fatalf("event from wrong source %q", e.Source)
					}
				}
			},
		},
		{
			Name: "runs",
			Req:  query.Request{Op: query.OpRuns, Context: win},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				runs := mustDecode[[]query.RunRecord](t, raw)
				if len(runs) == 0 {
					t.Fatal("no runs in window")
				}
				for i := 1; i < len(runs); i++ {
					if runs[i].Start < runs[i-1].Start {
						t.Fatal("runs not sorted by start")
					}
				}
			},
		},
		{
			Name: "synopsis",
			Req:  query.Request{Op: query.OpSynopsis, Context: withType(model.MCE)},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				entries := mustDecode[[]query.SynopsisEntry](t, raw)
				if len(entries) == 0 {
					t.Fatal("no synopsis entries")
				}
				// The synopsis totals must agree with a full event scan.
				eventsRaw, err := h.Direct(query.Request{Op: query.OpEvents, Context: withType(model.MCE)})
				if err != nil {
					t.Fatal(err)
				}
				events := mustDecode[[]query.EventRecord](t, eventsRaw)
				wantTotal := 0
				for _, e := range events {
					wantTotal += e.Count
				}
				gotTotal := 0
				for _, s := range entries {
					if s.Count <= 0 || s.Sources <= 0 {
						t.Fatalf("degenerate synopsis entry %+v", s)
					}
					gotTotal += s.Count
				}
				if gotTotal != wantTotal {
					t.Fatalf("synopsis total %d != event scan total %d", gotTotal, wantTotal)
				}
			},
		},
		{
			Name: "placement",
			Req:  query.Request{Op: query.OpPlacement, At: firstRun.Start.Add(time.Second).Unix()},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				placement := mustDecode[map[string]string](t, raw)
				if len(placement) == 0 {
					t.Fatal("empty placement")
				}
				if app := placement[firstRun.Nodes[0]]; app != firstRun.App {
					t.Fatalf("node %s runs %q, want %q", firstRun.Nodes[0], app, firstRun.App)
				}
			},
		},
		{
			Name: "sites",
			Req: query.Request{Op: query.OpSites,
				Context: query.Context{EventType: string(model.Lustre)}, At: h.stormInstant().Unix()},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				sites := mustDecode[map[string]int](t, raw)
				if len(sites) == 0 {
					t.Fatal("no sites at storm instant")
				}
				for src, n := range sites {
					if n <= 0 {
						t.Fatalf("site %s has count %d", src, n)
					}
				}
			},
		},
		{
			Name: "heatmap",
			Req:  query.Request{Op: query.OpHeatmap, Context: withType(model.MCE)},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				hm := mustDecode[analytics.HeatMap](t, raw)
				if hm.Total == 0 {
					t.Fatal("empty heat map")
				}
				// The injected hotspot is cabinet c2-0 = row 0, col 2.
				if hm.Counts[0][2] != hm.Max {
					t.Fatalf("hot cabinet count %d is not the max %d", hm.Counts[0][2], hm.Max)
				}
			},
		},
		{
			Name: "distribution_cabinet",
			Req:  query.Request{Op: query.OpDistribution, Context: withType(model.MCE), Level: "cabinet"},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				buckets := mustDecode[[]analytics.Bucket](t, raw)
				if len(buckets) == 0 {
					t.Fatal("no buckets")
				}
				if buckets[0].Label != "c2-0" {
					t.Fatalf("top bucket %q, want hotspot c2-0", buckets[0].Label)
				}
				for i := 1; i < len(buckets); i++ {
					if buckets[i].Count > buckets[i-1].Count {
						t.Fatal("buckets not sorted by descending count")
					}
				}
			},
		},
		{
			Name: "distribution_app",
			Req:  query.Request{Op: query.OpDistribution, Context: withType(model.Lustre), Level: "app"},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				buckets := mustDecode[[]analytics.Bucket](t, raw)
				if len(buckets) == 0 {
					t.Fatal("no per-app buckets")
				}
			},
		},
		{
			Name: "histogram",
			Req:  query.Request{Op: query.OpHistogram, Context: withType(model.Lustre), BinSeconds: 60},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				hist := mustDecode[[]int](t, raw)
				wantBins := int(to.Sub(from) / time.Minute)
				if len(hist) != wantBins {
					t.Fatalf("%d bins, want %d", len(hist), wantBins)
				}
				// The storm minute must dominate the histogram.
				stormBin := int(storm.Start.Sub(from) / time.Minute)
				maxBin, maxVal := 0, 0
				for i, v := range hist {
					if v > maxVal {
						maxBin, maxVal = i, v
					}
				}
				if maxBin < stormBin || maxBin >= stormBin+int(storm.Duration/time.Minute)+1 {
					t.Fatalf("peak bin %d outside storm window starting at bin %d", maxBin, stormBin)
				}
			},
		},
		{
			Name: "transfer_entropy",
			Req: query.Request{Op: query.OpTE, Context: withType(model.Lustre),
				SecondType: string(model.AppAbort), BinSeconds: 30},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				te := mustDecode[query.TEResponse](t, raw)
				if te.First != string(model.Lustre) || te.Second != string(model.AppAbort) {
					t.Fatalf("wrong pair %s/%s", te.First, te.Second)
				}
				if te.TEForward <= 0 {
					t.Fatalf("TE(Lustre→Abort) = %v, want > 0 (injected coupling)", te.TEForward)
				}
				if te.TEForward <= te.TEReverse {
					t.Fatalf("TE forward %v not above reverse %v", te.TEForward, te.TEReverse)
				}
			},
		},
		{
			Name: "wordcount",
			Req: query.Request{Op: query.OpWordCount,
				Context: query.Context{EventType: string(model.Lustre),
					From: storm.Start.Unix(), To: storm.Start.Add(storm.Duration).Unix()},
				TopK: 100},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				counts := mustDecode[[]query.WordCountEntry](t, raw)
				if len(counts) == 0 {
					t.Fatal("no word counts")
				}
				found := false
				for _, c := range counts {
					if c.Term == "ost0012" && c.Count > 0 {
						found = true
					}
				}
				if !found {
					t.Fatal("culprit OST0012 missing from storm word count")
				}
			},
		},
		{
			Name: "tfidf",
			Req: query.Request{Op: query.OpTFIDF,
				Context: query.Context{EventType: string(model.Lustre),
					From: storm.Start.Unix(), To: storm.Start.Add(storm.Duration).Unix()}},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				scores := mustDecode[[]analytics.TermScore](t, raw)
				if len(scores) == 0 {
					t.Fatal("no TF-IDF scores")
				}
				for i := 1; i < len(scores); i++ {
					if scores[i].Score > scores[i-1].Score {
						t.Fatal("scores not sorted descending")
					}
				}
			},
		},
		{
			Name: "tfidf_default_top_k",
			Req:  query.Request{Op: query.OpTFIDF, Context: withType(model.MCE)},
			// MCE's one-off status words are far more than the default top_k,
			// so the answer pinned in testdata/answers.txt holds that many.
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				if scores := mustDecode[[]analytics.TermScore](t, raw); len(scores) == 0 {
					t.Fatal("no TF-IDF scores")
				}
			},
		},
		{
			Name: "rules",
			Req:  query.Request{Op: query.OpRules, Context: win, BinSeconds: 60},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				rules := mustDecode[[]map[string]any](t, raw)
				// The corpus injects Lustre→AppAbort association; with the
				// default thresholds the miner may or may not surface it,
				// but the result must be a well-formed rule list.
				for _, r := range rules {
					if r["Antecedent"] == "" {
						t.Fatalf("malformed rule %v", r)
					}
				}
			},
		},
		{
			Name: "sequences",
			Req:  query.Request{Op: query.OpSequences, Context: win, BinSeconds: 60},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				mustDecode[[]map[string]any](t, raw)
			},
		},
		{
			Name: "episodes",
			Req:  query.Request{Op: query.OpEpisodes, Context: withType(model.Lustre), BinSeconds: 60},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				episodes := mustDecode[[]map[string]any](t, raw)
				if len(episodes) == 0 {
					t.Fatal("no Lustre episodes despite storm")
				}
			},
		},
		{
			Name: "profiles",
			Req:  query.Request{Op: query.OpProfiles, Context: win},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				profiles := mustDecode[map[string]json.RawMessage](t, raw)
				if len(profiles) == 0 {
					t.Fatal("no application profiles")
				}
				if _, ok := profiles[firstRun.App]; !ok {
					t.Fatalf("profiles missing app %q", firstRun.App)
				}
			},
		},
		{
			Name: "run_report",
			Req:  query.Request{Op: query.OpRunReport, Context: query.Context{App: firstRun.App, From: from.Unix(), To: to.Unix()}},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				reports := mustDecode[[]map[string]any](t, raw)
				if len(reports) == 0 {
					t.Fatalf("no run reports for app %q", firstRun.App)
				}
				for _, r := range reports {
					if r["App"] != firstRun.App {
						t.Fatalf("report for wrong app: %v", r["App"])
					}
				}
			},
		},
		{
			Name: "reliability",
			Req:  query.Request{Op: query.OpReliability, Context: win},
			Check: func(t *testing.T, h *Harness, raw json.RawMessage) {
				var res struct {
					Stats      analytics.InterarrivalStats   `json:"stats"`
					TopFailing []analytics.ComponentFailures `json:"top_failing"`
				}
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Fatal(err)
				}
				if res.Stats.N < 2 || res.Stats.MTBF <= 0 {
					t.Fatalf("degenerate reliability stats %+v", res.Stats)
				}
				if len(res.TopFailing) == 0 {
					t.Fatal("no failing components ranked")
				}
			},
		},
	}
}

// opsCovered returns the set of operations the table exercises.
func opsCovered(cases []Case) map[query.Op]bool {
	out := make(map[query.Op]bool, len(cases))
	for _, c := range cases {
		out[c.Req.Op] = true
	}
	return out
}
