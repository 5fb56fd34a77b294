package load

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpclog/internal/benchfmt"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

// newTestServer stands up an empty in-process v1 server — no corpus; the
// harness's own ingest traffic is the only data, which is exactly the
// situation a fresh deployment presents.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := store.OpenDurable(store.Config{Nodes: 4, RF: 2, VNodes: 16, FlushThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.Bootstrap(db, 4); err != nil {
		t.Fatal(err)
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	eng := query.NewWithOptions(db, comp, query.Options{CacheSize: -1})
	srv := server.New(eng, db, comp)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		db.Close()
	})
	return ts
}

// TestRunnerMixedScenario drives a short mixed open-loop scenario —
// every traffic class plus long-lived watchers — against a live server
// and checks the full report: per-class completions, no errors, sane
// percentiles, watch deliveries, and that the CSV and bench-line
// renderings round-trip through the benchfmt parser.
func TestRunnerMixedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke, skipped in -short")
	}
	ts := newTestServer(t)
	s := Scenario{Name: "unit", DurationS: 1.5, Rate: 150, Clients: 8, Watchers: 4}.withDefaults()
	r := &Runner{Target: ts.URL, Scenario: s, Logf: t.Logf}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	Summarize(&out, rep)
	t.Log("\n" + out.String())

	if rep.Offered < int64(s.Rate*s.DurationS)/2 {
		t.Fatalf("offered only %d arrivals for a %v run at %v rps", rep.Offered, s.Duration(), s.Rate)
	}
	if rep.Shed != 0 {
		t.Fatalf("shed %d arrivals at trivial load", rep.Shed)
	}
	for _, class := range Classes {
		cr := rep.Classes[class]
		if cr == nil {
			t.Fatalf("class %s missing from report", class)
		}
		if cr.Count == 0 {
			t.Errorf("class %s completed nothing", class)
			continue
		}
		if cr.Errors != 0 {
			t.Errorf("class %s: %d errors at trivial load", class, cr.Errors)
		}
		if cr.P50 <= 0 || cr.P99 < cr.P50 || cr.P999 < cr.P99 || cr.Max < cr.P999 {
			t.Errorf("class %s: implausible percentiles %+v", class, cr.Percentiles)
		}
	}
	if rep.WatchDeliveries == 0 {
		t.Error("long-lived watchers saw no deliveries despite ingest traffic")
	}
	if rep.WatcherErrs != 0 {
		t.Errorf("%d watcher errors", rep.WatcherErrs)
	}
	if rep.HTTPAttempts < rep.CompletedTotal() {
		t.Errorf("observer saw %d attempts for %d completions", rep.HTTPAttempts, rep.CompletedTotal())
	}
	if rep.ServerHTTP == nil {
		t.Error("server stats not captured")
	} else if rep.ServerHTTP.WatchDelivered == 0 {
		t.Error("server reports zero watch deliveries")
	}

	// CSV: header + one row per active class.
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(Classes) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(Classes), csvBuf.String())
	}

	if rep.WatchLagN == 0 {
		t.Error("no write-to-delivery lag samples despite ingest + watchers")
	}
	if rep.WatchLag.P50 <= 0 || rep.WatchLag.P99 < rep.WatchLag.P50 {
		t.Errorf("implausible watch lag percentiles %+v", rep.WatchLag)
	}

	// Bench lines: 3 percentile lines per class plus the watchlag
	// pseudo-class, parseable by the same parser cmd/benchjson uses, so
	// the BENCH_load.json pipeline holds.
	var benchBuf bytes.Buffer
	if err := WriteBenchLines(&benchBuf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	parsed := map[string]benchfmt.Result{}
	for _, line := range strings.Split(benchBuf.String(), "\n") {
		benchfmt.ParseLine(line, parsed)
	}
	if want := 3 * (len(Classes) + 1); len(parsed) != want {
		t.Fatalf("parsed %d bench lines, want %d:\n%s", len(parsed), want, benchBuf.String())
	}
	if _, ok := parsed["BenchmarkLoad/unit/watchlag/p99"]; !ok {
		t.Fatalf("missing watchlag bench line:\n%s", benchBuf.String())
	}
	for name, res := range parsed {
		if !strings.HasPrefix(name, "BenchmarkLoad/unit/") || res.NsOp <= 0 {
			t.Fatalf("bad bench result %s %+v", name, res)
		}
	}
}

// TestRunnerMergesRepeats: two repeats of one scenario pool their
// histograms into a single set of bench lines.
func TestRunnerMergesRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke, skipped in -short")
	}
	ts := newTestServer(t)
	s := Scenario{
		Name: "rep", DurationS: 0.5, Rate: 80, Clients: 4,
		Mix: map[string]float64{ClassIngest: 1},
	}.withDefaults()
	var reports []*Report
	for rep := 0; rep < 2; rep++ {
		r := &Runner{Target: ts.URL, Scenario: s, Repeat: rep}
		out, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, out)
	}
	var buf bytes.Buffer
	if err := WriteBenchLines(&buf, reports); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if n := len(strings.Split(got, "\n")); n != 3 {
		t.Fatalf("want exactly 3 pooled lines for one class, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "BenchmarkLoad/rep/ingest/p99") {
		t.Fatalf("missing pooled p99 line:\n%s", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{Name: "x", Mix: map[string]float64{"nope": 1}}).validate(); err == nil {
		t.Fatal("unknown class accepted")
	}
	if err := (Scenario{Name: "x", Mix: map[string]float64{ClassCQL: -1}}).validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := (Scenario{Name: "x", Mix: map[string]float64{}}).validate(); err == nil {
		t.Fatal("empty mix with no watchers accepted")
	}
	if err := (Scenario{Mix: DefaultMix()}).validate(); err == nil {
		t.Fatal("nameless scenario accepted")
	}
	if err := (Scenario{Name: "w", Watchers: 3, Mix: map[string]float64{}}).validate(); err != nil {
		t.Fatalf("watcher-only scenario rejected: %v", err)
	}
}

func TestLoadGrid(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{
	  "repeats": 2,
	  "scenarios": [
	    {"name": "a", "rate": 50},
	    {"name": "b", "rate": 100, "mix": {"ingest": 1, "watch": 1}, "watchers": 10}
	  ]
	}`)
	g, err := LoadGrid(good)
	if err != nil {
		t.Fatal(err)
	}
	if g.Repeats != 2 || len(g.Scenarios) != 2 {
		t.Fatalf("grid %+v", g)
	}
	if g.Scenarios[0].Clients == 0 || g.Scenarios[0].EventType != "MCE" {
		t.Fatalf("defaults not applied: %+v", g.Scenarios[0])
	}
	if g.Scenarios[1].Watchers != 10 || len(g.Scenarios[1].Mix) != 2 {
		t.Fatalf("explicit fields lost: %+v", g.Scenarios[1])
	}

	for name, body := range map[string]string{
		"dup.json":   `{"scenarios": [{"name": "a"}, {"name": "a"}]}`,
		"empty.json": `{"scenarios": []}`,
		"bad.json":   `{"scenarios": [{"name": "a", "mix": {"zzz": 1}}]}`,
		"syn.json":   `{not json`,
	} {
		if _, err := LoadGrid(write(name, body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := LoadGrid(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
