package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// expoSample is one parsed exposition sample line.
type expoSample struct {
	name   string
	labels string // raw {..} text, "" when unlabeled
	value  float64
	line   int
}

// parseExposition parses Prometheus text format 0.0.4 strictly enough
// to lint our own output: every non-comment line must be
// name[{labels}] value, every # TYPE declares a metric exactly once
// and before its first sample.
func parseExposition(t *testing.T, body string) (map[string]string, []expoSample) {
	t.Helper()
	types := map[string]string{}
	var samples []expoSample
	seenSample := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i+1, line)
			}
			name, typ := fields[2], fields[3]
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: metric %s TYPE-declared twice", i+1, name)
			}
			if seenSample[name] {
				t.Fatalf("line %d: TYPE for %s appears after its samples", i+1, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", i+1, line)
		}
		name := line
		labels := ""
		if j := strings.IndexByte(line, '{'); j >= 0 {
			k := strings.LastIndexByte(line, '}')
			if k < j {
				t.Fatalf("line %d: unbalanced braces in %q", i+1, line)
			}
			name, labels = line[:j], line[j:k+1]
		}
		rest := name
		if labels == "" {
			var ok bool
			name, rest, ok = strings.Cut(line, " ")
			if !ok {
				t.Fatalf("line %d: no sample value in %q", i+1, line)
			}
		} else {
			rest = strings.TrimSpace(line[strings.LastIndexByte(line, '}')+1:])
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil && rest != "+Inf" {
			t.Fatalf("line %d: bad sample value %q: %v", i+1, rest, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, declared := types[base]; !declared {
			if _, selfDeclared := types[name]; !selfDeclared {
				t.Fatalf("line %d: sample %s has no preceding TYPE", i+1, name)
			}
		}
		seenSample[base] = true
		samples = append(samples, expoSample{name: name, labels: labels, value: v, line: i + 1})
	}
	return types, samples
}

// labelsWithoutLe strips the le pair from a bucket label set so buckets
// group by their parent series.
func labelsWithoutLe(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range strings.Split(inner, ",") {
		if !strings.HasPrefix(pair, `le="`) {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

// metricsFixture builds an isolated instrumented server (its own tracer
// and histograms — the shared fixture would leak traffic between tests)
// over the shared corpus-loaded store.
func metricsFixture(t *testing.T, threshold time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	f := getFixture(t)
	eng := compute.NewEngine(compute.Config{Workers: f.db.NodeIDs()})
	srv := NewWithConfig(query.New(f.db, eng), f.db, eng, Config{SlowQueryThreshold: threshold})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestMetricsExposition drives traffic through several routes, scrapes
// /v1/metrics, lints the exposition and finds the traffic in it.
func TestMetricsExposition(t *testing.T) {
	_, ts := metricsFixture(t, 0)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/cql", "application/json",
			strings.NewReader(`{"query":"DESCRIBE TABLES"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	samples := scrapeAndLint(t, ts.URL)

	// The traffic we just offered must be visible.
	var admitted, routeCount float64
	for _, s := range samples {
		if s.name == "hpclog_http_requests_total" {
			admitted += s.value
		}
		if s.name == "hpclog_http_request_seconds_count" && strings.Contains(s.labels, "/v1/cql") {
			routeCount += s.value
		}
	}
	if admitted < 3 {
		t.Errorf("hpclog_http_requests_total = %v after 3 requests", admitted)
	}
	if routeCount < 3 {
		t.Errorf("/v1/cql route histogram count = %v after 3 requests", routeCount)
	}
}

// TestMetricsExpositionBackgroundRounds lints the exposition of a
// durable, tiered store after a flush round, a compaction round and a
// tier sweep, and asserts each left its duration in its histogram.
func TestMetricsExpositionBackgroundRounds(t *testing.T) {
	db, err := store.OpenDurable(store.Config{
		Nodes: 2, RF: 2, VNodes: 8, FlushThreshold: 64, Dir: t.TempDir(), CompactInterval: -1,
		Tier: objstore.Config{Backend: "fs", Dir: t.TempDir(), CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := ingest.Bootstrap(db, 8); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("rounds"); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ { // two flush rounds: something to compact
		for p := 0; p < 4; p++ {
			rows := make([]store.Row, 10)
			for i := range rows {
				rows[i] = store.MapRow(store.EncodeTS(int64(100*gen+i))+":src", 0, map[string]string{"gen": fmt.Sprint(gen)})
			}
			if err := db.PutBatch("rounds", fmt.Sprint("p", p), rows, store.All); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TierSweep(true); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := NewWithConfig(query.New(db, eng), db, eng, Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	got := map[string]float64{}
	for _, s := range scrapeAndLint(t, ts.URL) {
		got[s.name] += s.value
	}
	for _, name := range []string{
		"hpclog_store_flush_round_seconds_count",
		"hpclog_store_compact_round_seconds_count",
		"hpclog_tier_sweep_seconds_count",
		"hpclog_store_flush_rounds_total",
	} {
		if got[name] < 1 {
			t.Errorf("%s = %v after a flush, a compaction and a sweep", name, got[name])
		}
	}
	// Rounds batch segments: fewer barriers than flushed segments.
	if rounds, segs := got["hpclog_store_flush_rounds_total"], got["hpclog_store_flushes_total"]; rounds >= segs {
		t.Errorf("%v flush rounds for %v flushed segments", rounds, segs)
	}
	if got["hpclog_store_maintenance_errors_total"] != 0 {
		t.Errorf("maintenance errors = %v", got["hpclog_store_maintenance_errors_total"])
	}
}

// TestMetricsExpositionScanPaths drives one batch partition scan down each
// read path — a flushed segment alone (chained), then the same keys
// rewritten into the memtable above it (merged) — and finds both under
// hpclog_store_partition_scans_total on /v1/metrics and in /v1/stats. The
// same puts exercise both memtable write paths — two batches into an
// empty memtable (append), a third over the keys it holds (merge) — found
// under hpclog_store_memtable_puts_total.
func TestMetricsExpositionScanPaths(t *testing.T) {
	db, err := store.OpenDurable(store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, Dir: t.TempDir(), CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("paths"); err != nil {
		t.Fatal(err)
	}
	put := func() {
		rows := make([]store.Row, 10)
		for i := range rows {
			rows[i] = store.MapRow(store.EncodeTS(int64(i))+":src", 0, map[string]string{"amount": "1"})
		}
		if err := db.PutBatch("paths", "p", rows, store.All); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		err := db.ScanPartitionBatches(context.Background(), "paths", "p", store.Range{}, nil, nil, nil,
			func(*store.Batch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	put()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	scan() // one segment: chained
	put()
	scan() // the memtable shadows the segment: merged
	put()  // the memtable holds these keys: a merge, where the first two puts appended

	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := NewWithConfig(query.New(db, eng), db, eng, Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	byPath, putsByPath := map[string]float64{}, map[string]float64{}
	for _, s := range scrapeAndLint(t, ts.URL) {
		switch s.name {
		case "hpclog_store_partition_scans_total":
			byPath[s.labels] += s.value
		case "hpclog_store_memtable_puts_total":
			putsByPath[s.labels] += s.value
		}
	}
	if byPath[`{path="chained"}`] != 1 || byPath[`{path="merged"}`] != 1 {
		t.Errorf("hpclog_store_partition_scans_total = %v, want one chained and one merged scan", byPath)
	}
	if putsByPath[`{path="append"}`] != 2 || putsByPath[`{path="merge"}`] != 1 {
		t.Errorf("hpclog_store_memtable_puts_total = %v, want two appends and one merge", putsByPath)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Result api.StatsPayload `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if st := env.Result.Storage; st.ChainedScans != 1 || st.MergedScans != 1 {
		t.Errorf("/v1/stats storage scan paths = %d chained, %d merged, want 1 and 1", st.ChainedScans, st.MergedScans)
	}
	if st := env.Result.Storage; st.AppendPuts != 2 || st.MergePuts != 1 {
		t.Errorf("/v1/stats storage memtable puts = %d appended, %d merged, want 2 and 1", st.AppendPuts, st.MergePuts)
	}
}

// scrapeAndLint scrapes /v1/metrics and lints the exposition: every line
// parses, every metric is typed exactly once before its samples,
// counters are named _total and non-negative, histogram buckets are
// cumulative and monotone over an increasing le ladder with
// +Inf == _count, and _sum/_count exist per histogram series.
func scrapeAndLint(t *testing.T, url string) []expoSample {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(raw))

	// Counters end in _total (or _seconds_total) and never go negative.
	for name, typ := range types {
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s does not end in _total", name)
		}
	}
	for _, s := range samples {
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.name, "_bucket"), "_sum"), "_count")
		if types[base] == "counter" || types[base] == "histogram" {
			if s.value < 0 {
				t.Errorf("line %d: %s%s = %v; counters must be non-negative", s.line, s.name, s.labels, s.value)
			}
		}
	}

	// Histogram linting per label set.
	type bucket struct {
		le    float64
		inf   bool
		count float64
	}
	buckets := map[string][]bucket{} // "name|labels-sans-le" -> buckets in emission order
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			base := strings.TrimSuffix(s.name, "_bucket")
			key := base + "|" + labelsWithoutLe(s.labels)
			le, inf := 0.0, false
			if strings.Contains(s.labels, `le="+Inf"`) {
				inf = true
			} else {
				start := strings.Index(s.labels, `le="`)
				if start < 0 {
					t.Fatalf("line %d: bucket without le label: %s%s", s.line, s.name, s.labels)
				}
				end := strings.Index(s.labels[start+4:], `"`)
				var err error
				if le, err = strconv.ParseFloat(s.labels[start+4:start+4+end], 64); err != nil {
					t.Fatalf("line %d: bad le: %v", s.line, err)
				}
			}
			buckets[key] = append(buckets[key], bucket{le: le, inf: inf, count: s.value})
		case strings.HasSuffix(s.name, "_count"):
			if types[strings.TrimSuffix(s.name, "_count")] == "histogram" {
				counts[strings.TrimSuffix(s.name, "_count")+"|"+labelsWithoutLe(s.labels)] = s.value
			}
		case strings.HasSuffix(s.name, "_sum"):
			if types[strings.TrimSuffix(s.name, "_sum")] == "histogram" {
				sums[strings.TrimSuffix(s.name, "_sum")+"|"+labelsWithoutLe(s.labels)] = true
			}
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series in exposition")
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		bs := buckets[key]
		if !bs[len(bs)-1].inf {
			t.Errorf("histogram %s: last bucket is not +Inf", key)
			continue
		}
		for i := 1; i < len(bs); i++ {
			if !bs[i].inf && bs[i].le <= bs[i-1].le {
				t.Errorf("histogram %s: le ladder not increasing at index %d", key, i)
			}
			if bs[i].count < bs[i-1].count {
				t.Errorf("histogram %s: cumulative count decreases at index %d (%v < %v)",
					key, i, bs[i].count, bs[i-1].count)
			}
		}
		total, ok := counts[key]
		if !ok {
			t.Errorf("histogram %s: no _count sample", key)
		} else if inf := bs[len(bs)-1].count; inf != total {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", key, inf, total)
		}
		if !sums[key] {
			t.Errorf("histogram %s: no _sum sample", key)
		}
	}
	return samples
}

// TestSlowQueryLog captures a CQL request under a 1ns threshold and
// asserts the trace at /v1/debug/slow carries the propagated request
// ID, the CQL text, the EXPLAIN plan, and the per-stage timings of the
// read path.
func TestSlowQueryLog(t *testing.T) {
	f := getFixture(t)
	_, ts := metricsFixture(t, time.Nanosecond)

	part := fmt.Sprintf("%d:MCE", f.cfg.Start.Unix()/3600)
	stmt := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%s' LIMIT 5", part)
	body := fmt.Sprintf(`{"query":%q}`, stmt)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cql", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, "trace-slow-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cql returned HTTP %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var env api.Response
	if err := json.NewDecoder(sresp.Body).Decode(&env); err != nil {
		t.Fatalf("decode /v1/debug/slow envelope: %v", err)
	}
	if !env.OK {
		t.Fatalf("/v1/debug/slow error: %+v", env.Err)
	}
	var traces []obs.SlowTrace
	if err := json.Unmarshal(env.Result, &traces); err != nil {
		t.Fatalf("decode slow traces: %v", err)
	}
	var tr *obs.SlowTrace
	for i := range traces {
		if traces[i].RequestID == "trace-slow-test" {
			tr = &traces[i]
			break
		}
	}
	if tr == nil {
		t.Fatalf("no trace with propagated request ID among %d slow traces", len(traces))
	}
	if tr.Name != "/v1/cql" {
		t.Errorf("trace route = %q, want /v1/cql", tr.Name)
	}
	if !strings.Contains(tr.Query, "SELECT * FROM event_by_time") {
		t.Errorf("trace query = %q; CQL text not captured", tr.Query)
	}
	if len(tr.Plan) == 0 {
		t.Error("trace has no EXPLAIN plan")
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"decode", "parse", "plan.build", "scan"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}
}
