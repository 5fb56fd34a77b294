// Command loadgen is the open-loop load harness for the hpclog v1
// server: it drives configurable mixes of ingest, query, pagination,
// streaming, CQL, and watch traffic through the public SDK at a fixed
// offered arrival rate, records HDR latency percentiles per traffic
// class, and renders experiment grids as CSV plus Go-benchmark lines for
// the BENCH_load.json trajectory.
//
//	loadgen -smoke -selfhost                 # built-in CI smoke scenario
//	loadgen -grid experiments.json -selfhost # reproducible experiment grid
//	loadgen -target http://host:9090 -rate 500 -duration 30 -watchers 100
//	loadgen -target http://n0:8081,http://n1:8082,http://n2:8083 -rate 500
//
// With -selfhost (or no -target) loadgen stands up an in-process server
// on a loopback port, sized so the largest scenario's watcher count fits
// the watch limiter; a scenario with "nodes": N > 1 gets an in-process
// N-member replicated cluster instead, with the SDK client pool
// round-robined across all coordinators. With -target it drives a live
// deployment — a comma-separated list round-robins the pool across
// cluster nodes the same way. Bench output (-bench) pipes into
// cmd/benchjson, and the recorded percentiles are gated by cmd/benchdiff
// like any other benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/dist"
	"hpclog/internal/ingest"
	"hpclog/internal/load"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// selfhosted is an in-process v1 deployment on loopback ports: either a
// single server or an N-member replicated cluster, closed as one unit.
type selfhosted struct {
	db     *store.DB      // single-node only
	srv    *server.Server // single-node only
	nodes  []*dist.Node   // cluster only
	hs     []*http.Server
	urls   []string
	tmpDir string // durable scratch directory, removed on close
}

// watchLimit sizes the watch limiter: long-lived subscriptions plus
// slack for transient watch-class ops.
func watchLimit(maxWatchers int) int {
	if maxWatchers+256 > 256 {
		return maxWatchers + 256
	}
	return 256
}

// selfhost stands up an empty in-process server. maxWatchers sizes the
// watch limiter so large subscription scenarios are admitted instead of
// rejected at the door. With durable, the store writes a real commitlog
// into a scratch directory so group-commit fsync shows up in /v1/metrics
// under load, exactly as it would against a production deployment.
func selfhost(maxWatchers int, durable bool) (*selfhosted, error) {
	cfg := store.Config{Nodes: 8, RF: 2, VNodes: 32, FlushThreshold: 1 << 15}
	var tmpDir string
	if durable {
		var err error
		if tmpDir, err = os.MkdirTemp("", "loadgen-wal-*"); err != nil {
			return nil, err
		}
		cfg.Dir = tmpDir
		// Periodic group commit (the production deployment default posture
		// for high-rate ingest) rather than fsync-per-append: the commitlog
		// and its fsync-latency series stay live under load without gating
		// every ingest ack on a disk flush.
		cfg.WALSyncPeriod = 2 * time.Millisecond
	}
	db, err := store.OpenDurable(cfg)
	if err != nil {
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
		return nil, err
	}
	if err := ingest.Bootstrap(db, 8); err != nil {
		db.Close()
		return nil, err
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	eng := query.NewWithOptions(db, comp, query.Options{CacheSize: -1})
	srv := server.NewWithConfig(eng, db, comp, server.Config{WatchInFlight: watchLimit(maxWatchers)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		db.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return &selfhosted{
		db: db, srv: srv,
		hs:     []*http.Server{hs},
		urls:   []string{"http://" + ln.Addr().String()},
		tmpDir: tmpDir,
	}, nil
}

// selfhostCluster stands up an in-process n-member replicated cluster —
// n dist nodes, each serving its own loopback listener — and waits until
// every member sees every other member up, so the first arrivals don't
// race the failure detector.
func selfhostCluster(n, maxWatchers int) (*selfhosted, error) {
	lns := make([]net.Listener, n)
	ids := make([]string, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		ids[i] = fmt.Sprintf("n%d", i)
		urls[i] = "http://" + ln.Addr().String()
	}
	sh := &selfhosted{urls: urls}
	for i := 0; i < n; i++ {
		peers := make(map[string]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[ids[j]] = urls[j]
			}
		}
		node, err := dist.Open(dist.Config{
			ID:                ids[i],
			AdvertiseURL:      urls[i],
			Peers:             peers,
			VNodes:            32,
			MachineNodes:      8,
			FlushThreshold:    1 << 15,
			HeartbeatInterval: 100 * time.Millisecond,
			ServerConfig:      server.Config{WatchInFlight: watchLimit(maxWatchers)},
		})
		if err != nil {
			// Listeners not yet handed to a server must be closed by hand;
			// sh.close() covers the ones already serving.
			for j := i; j < n; j++ {
				lns[j].Close()
			}
			sh.close()
			return nil, err
		}
		hs := &http.Server{Handler: node.Server}
		go hs.Serve(lns[i])
		sh.nodes = append(sh.nodes, node)
		sh.hs = append(sh.hs, hs)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		allUp := true
		for _, node := range sh.nodes {
			for _, m := range node.Status().Members {
				if !m.Up {
					allUp = false
				}
			}
		}
		if allUp {
			return sh, nil
		}
		if time.Now().After(deadline) {
			sh.close()
			return nil, fmt.Errorf("self-hosted %d-node cluster never converged to all-up", n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (s *selfhosted) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	for _, hs := range s.hs {
		hs.Close()
	}
	for _, node := range s.nodes {
		node.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.tmpDir != "" {
		os.RemoveAll(s.tmpDir)
	}
}

// splitTargets parses the -target flag: a comma-separated list of base
// URLs (a cluster's coordinators), or empty for self-hosting.
func splitTargets(spec string) []string {
	var out []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// parseMix parses "-mix ingest=4,oneshot=1" into a weight map.
func parseMix(spec string) (map[string]float64, error) {
	mix := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not class=weight", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: %w", part, err)
		}
		mix[strings.TrimSpace(k)] = w
	}
	return mix, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "base URL(s) of a live deployment, comma-separated for a cluster; empty self-hosts in-process")
		self     = fs.Bool("selfhost", false, "stand up an in-process deployment (implied when -target is empty)")
		gridPath = fs.String("grid", "", "experiments.json grid file (scenarios × repeats)")
		only     = fs.String("scenario", "", "run only the named scenario from the grid (comma-separated for several)")
		smoke    = fs.Bool("smoke", false, "run the built-in CI smoke scenario")

		name        = fs.String("name", "adhoc", "ad-hoc scenario name")
		duration    = fs.Float64("duration", 5, "ad-hoc run length, seconds")
		rate        = fs.Float64("rate", 100, "ad-hoc offered arrival rate, requests/second")
		clients     = fs.Int("clients", 16, "ad-hoc SDK client pool size")
		watchers    = fs.Int("watchers", 0, "ad-hoc long-lived watch subscriptions")
		mixSpec     = fs.String("mix", "", "ad-hoc traffic mix, e.g. ingest=4,oneshot=1,watch=1")
		seed        = fs.Int64("seed", 1, "ad-hoc arrival-mix RNG seed")
		outstanding = fs.Int("max-outstanding", 0, "ad-hoc in-flight request cap (0 = default 4096)")
		repeats     = fs.Int("repeats", 1, "repeats for -smoke and ad-hoc runs (grids carry their own)")

		durable      = fs.Bool("durable", false, "self-hosted single-node store writes a real commitlog in a scratch dir (exercises group-commit fsync)")
		metricsCheck = fs.Bool("metrics-check", false, "scrape /v1/metrics mid-run and fail unless traffic shows up in the exposition")

		csvPath    = fs.String("csv", "", "write per-class experiment rows to this CSV file")
		benchPath  = fs.String("bench", "", `write Go-benchmark percentile lines here ("-" = stdout, for cmd/benchjson)`)
		profileDir = fs.String("profile", "", "write per-run goroutine and heap pprof profiles into this directory")
		maxErrRate = fs.Float64("max-error-rate", -1, "exit 1 when (errors+watcher errors)/attempted ops exceeds this fraction")
		quiet      = fs.Bool("q", false, "suppress per-run summaries")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Assemble the scenario list.
	var scenarios []load.Scenario
	runRepeats := *repeats
	switch {
	case *gridPath != "":
		g, err := load.LoadGrid(*gridPath)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 2
		}
		scenarios, runRepeats = g.Scenarios, g.Repeats
	case *smoke:
		scenarios = []load.Scenario{load.Smoke()}
	default:
		s := load.Scenario{
			Name: *name, DurationS: *duration, Rate: *rate,
			Clients: *clients, Watchers: *watchers, Seed: *seed,
			MaxOutstanding: *outstanding,
		}
		if *mixSpec != "" {
			mix, err := parseMix(*mixSpec)
			if err != nil {
				fmt.Fprintln(stderr, "loadgen:", err)
				return 2
			}
			s.Mix = mix
		}
		scenarios = []load.Scenario{s}
	}
	if runRepeats <= 0 {
		runRepeats = 1
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var filtered []load.Scenario
		for _, s := range scenarios {
			if keep[s.Name] {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(stderr, "loadgen: -scenario %s matched nothing in the grid\n", *only)
			return 2
		}
		scenarios = filtered
	}

	// Resolve targets per scenario: a live deployment serves every
	// scenario as-is (comma-separated URLs round-robin a cluster), while
	// self-hosting lazily stands up one in-process topology per distinct
	// node count — single-node scenarios share one server, "nodes": 3
	// scenarios share one 3-member cluster.
	maxWatchers := 0
	for _, s := range scenarios {
		if s.Watchers > maxWatchers {
			maxWatchers = s.Watchers
		}
	}
	live := splitTargets(*target)
	hosted := map[int]*selfhosted{}
	defer func() {
		for _, sh := range hosted {
			sh.close()
		}
	}()
	targetsFor := func(s load.Scenario) ([]string, error) {
		if len(live) > 0 && !*self {
			return live, nil
		}
		n := s.Nodes
		if n <= 1 {
			n = 1
		}
		if sh, ok := hosted[n]; ok {
			return sh.urls, nil
		}
		var sh *selfhosted
		var err error
		if n == 1 {
			sh, err = selfhost(maxWatchers, *durable)
		} else {
			sh, err = selfhostCluster(n, maxWatchers)
		}
		if err != nil {
			return nil, err
		}
		hosted[n] = sh
		if !*quiet {
			fmt.Fprintf(stderr, "loadgen: self-hosted %d-node deployment at %s (watch limit sized for %d watchers)\n",
				n, strings.Join(sh.urls, ","), maxWatchers)
		}
		return sh.urls, nil
	}

	// Run the grid.
	var reports []*load.Report
	var errOps, attempted int64
	for _, s := range scenarios {
		targets, err := targetsFor(s)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen: selfhost:", err)
			return 2
		}
		for rep := 0; rep < runRepeats; rep++ {
			r := &load.Runner{Targets: targets, Scenario: s, Repeat: rep}
			if !*quiet {
				r.Logf = func(format string, a ...any) {
					fmt.Fprintf(stderr, "loadgen: "+format+"\n", a...)
				}
			}
			// The metrics check scrapes while traffic is still flowing —
			// halfway through the run — so gauges like in-flight requests
			// and live watch subscribers are observed under load, not after
			// the harness has drained.
			var scraped chan scrapeResult
			if *metricsCheck {
				scraped = make(chan scrapeResult, 1)
				go func(url string, wait time.Duration) {
					time.Sleep(wait)
					scraped <- scrapeMetrics(url)
				}(targets[0], time.Duration(s.DurationS*float64(time.Second))/2)
			}
			report, err := r.Run(context.Background())
			if err != nil {
				fmt.Fprintf(stderr, "loadgen: scenario %s repeat %d: %v\n", s.Name, rep, err)
				return 2
			}
			if scraped != nil {
				res := <-scraped
				if res.err == nil {
					res.err = validateMetrics(res.series, s, *durable)
				}
				if res.err != nil {
					fmt.Fprintf(stderr, "loadgen: FAIL metrics check (scenario %s repeat %d): %v\n", s.Name, rep, res.err)
					return 1
				}
				if !*quiet {
					fmt.Fprintf(stderr, "loadgen: metrics check ok (%d series mid-run)\n", len(res.series))
				}
			}
			reports = append(reports, report)
			if !*quiet {
				load.Summarize(stderr, report)
			}
			errOps += report.ErrorTotal() + report.WatcherErrs
			attempted += report.CompletedTotal() + report.ErrorTotal()
			if *profileDir != "" {
				if err := writeProfiles(*profileDir, report); err != nil {
					fmt.Fprintln(stderr, "loadgen: profiles:", err)
					return 2
				}
			}
		}
	}

	// Render outputs.
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err == nil {
			err = load.WriteCSV(f, reports)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "loadgen: csv:", err)
			return 2
		}
	}
	if *benchPath != "" {
		out := stdout
		var f *os.File
		if *benchPath != "-" {
			var err error
			if f, err = os.Create(*benchPath); err != nil {
				fmt.Fprintln(stderr, "loadgen: bench:", err)
				return 2
			}
			out = f
		}
		err := load.WriteBenchLines(out, reports)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "loadgen: bench:", err)
			return 2
		}
	}

	// The CI gate: a smoke run that errors its way through traffic fails
	// loudly instead of recording garbage percentiles.
	if *maxErrRate >= 0 && attempted > 0 {
		rate := float64(errOps) / float64(attempted)
		if rate > *maxErrRate {
			fmt.Fprintf(stderr, "loadgen: FAIL error rate %.4f > %.4f (%d errored of %d attempted)\n",
				rate, *maxErrRate, errOps, attempted)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stderr, "loadgen: error rate %.4f within %.4f\n", rate, *maxErrRate)
		}
	}
	return 0
}

// scrapeResult is one /v1/metrics scrape folded to per-series sums:
// "name" -> sum of every sample of that metric across label sets.
type scrapeResult struct {
	series map[string]float64
	err    error
}

// scrapeMetrics fetches and parses a Prometheus text exposition. Label
// sets are summed per metric name — the check only asks "did traffic
// reach this subsystem", not which route or peer it hit.
func scrapeMetrics(base string) scrapeResult {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return scrapeResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrapeResult{err: fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrapeResult{err: err}
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			return scrapeResult{err: fmt.Errorf("unparseable exposition line %q", line)}
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			// The sample value follows the closing brace.
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				rest = strings.TrimSpace(line[j+1:])
			}
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return scrapeResult{err: fmt.Errorf("bad sample value in %q: %v", line, err)}
		}
		series[name] += v
	}
	return scrapeResult{series: series}
}

// validateMetrics fails the run unless the mid-run scrape shows the
// traffic the scenario offered: admitted HTTP requests always; live
// watch subscribers and tail-ring activity when the scenario holds
// subscriptions; commitlog fsync latency when the store is durable;
// per-peer replication latency when driving a multi-node cluster.
func validateMetrics(series map[string]float64, s load.Scenario, durable bool) error {
	positive := func(name string) error {
		if series[name] <= 0 {
			return fmt.Errorf("series %s is %v mid-run; expected > 0", name, series[name])
		}
		return nil
	}
	if err := positive("hpclog_http_requests_total"); err != nil {
		return err
	}
	if err := positive("hpclog_http_request_seconds_count"); err != nil {
		return err
	}
	if err := positive("hpclog_trace_requests_total"); err != nil {
		return err
	}
	if s.Watchers > 0 {
		if err := positive("hpclog_watch_subscribers"); err != nil {
			return err
		}
		if err := positive("hpclog_watch_wakeups_total"); err != nil {
			return err
		}
		if err := positive("hpclog_watch_tail_hits_total"); err != nil {
			return err
		}
	}
	if durable && s.Nodes <= 1 {
		if err := positive("hpclog_wal_fsync_seconds_count"); err != nil {
			return err
		}
	}
	if s.Nodes > 1 {
		if err := positive("hpclog_dist_replication_seconds_count"); err != nil {
			return err
		}
	}
	return nil
}

// writeProfiles snapshots goroutine and heap profiles after a run, named
// by scenario and repeat.
func writeProfiles(dir string, rep *load.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, kind := range []string{"goroutine", "heap"} {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-r%d-%s.pprof", rep.Scenario, rep.Repeat, kind)))
		if err != nil {
			return err
		}
		err = p.WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
