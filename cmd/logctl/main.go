// Command logctl is a CLI frontend for hpclogd: it issues queries
// through the v1 Go client SDK (hpclog/client) and renders the results in
// the terminal, standing in for the paper's web UI. Subcommands mirror
// the frontend's views:
//
//	logctl -server http://localhost:8080 types
//	logctl heatmap   -type MCE -from 2017-08-23T06:00:00Z -to 2017-08-23T12:00:00Z
//	logctl hist      -type LUSTRE -from ... -to ... -bin 60
//	logctl dist      -type MCE -level cabinet -from ... -to ...
//	logctl te        -type LUSTRE -second APP_ABORT -from ... -to ...
//	logctl words     -type LUSTRE -from ... -to ... -k 15
//	logctl events    -type MCE -from ... -to ... [-page 1000] [-stream]
//	                 (-page pages through the cursor API; -stream reads
//	                 the NDJSON stream; default is one-shot)
//	logctl runs      -user user007
//	logctl watch     -type MCE [-since RFC3339] [-timeout 2m]
//	                 (live push subscription over /v1/watch)
//	logctl cql       "SELECT ... FROM ... WHERE partition = '...'"
//	                 (WHERE takes arbitrary column predicates — =, !=, <,
//	                 <=, >, >=, IN, LIKE, AND/OR/NOT — plus COUNT/MIN/MAX/
//	                 SUM/AVG aggregates with GROUP BY; "EXPLAIN SELECT ..."
//	                 prints the physical plan instead of running it)
//	logctl rules     -from ... -to ...            (association rules)
//	logctl sequences -from ... -to ...            (A-followed-by-B patterns)
//	logctl episodes  -type LUSTRE -from ... -to ... (time coalescing)
//	logctl reliability -from ... -to ...          (MTBF, top failing)
//	logctl profiles  [-type LUSTRE] -from ... -to ... (app profiles/exposure)
//	logctl storage-stats                          (storage engine counters)
//	logctl compact                                (flush + compact + WAL truncate)
//	logctl tier                                   (force upload + evict sealed
//	                 segments to the object-store tier)
//	logctl segments                               (per-segment inventory: key
//	                 ranges, Merkle roots, tier placement)
//	logctl cluster                                (ring layout, liveness,
//	                 ownership shares, and replication lag via /v1/cluster)
//	logctl slow      [-k 10]                      (slow-query log: per-stage
//	                 timings, CQL text, and EXPLAIN plan via /v1/debug/slow)
//
// Exit codes distinguish failure classes: 1 = the server answered with an
// error (the machine-readable code and HTTP status are printed), 2 = the
// request never completed (transport failure, bad usage).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/store"
	"hpclog/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("logctl: ")
	server := flag.String("server", "http://localhost:8080", "hpclogd base URL")
	flag.Parse()
	if flag.NArg() < 1 {
		usageExit("usage: logctl [-server URL] <types|heatmap|hist|dist|te|words|tfidf|events|runs|watch|placement|cql|rules|sequences|episodes|reliability|profiles|storage-stats|compact|tier|segments|cluster|slow> [flags]")
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		typ     = sub.String("type", "", "event type")
		second  = sub.String("second", "", "second event type (te)")
		from    = sub.String("from", "", "window start, RFC3339")
		to      = sub.String("to", "", "window end, RFC3339")
		at      = sub.String("at", "", "instant, RFC3339 (placement)")
		level   = sub.String("level", "cabinet", "distribution level")
		bin     = sub.Int("bin", 60, "bin seconds")
		k       = sub.Int("k", 15, "top-k results")
		user    = sub.String("user", "", "user filter (runs)")
		app     = sub.String("app", "", "application filter (runs)")
		page    = sub.Int("page", 0, "page size for cursor pagination (events; 0 = one-shot)")
		stream  = sub.Bool("stream", false, "read the NDJSON stream instead of one-shot (events)")
		since   = sub.String("since", "", "watch from this instant, RFC3339 (default: now)")
		timeout = sub.Duration("timeout", 2*time.Minute, "watch duration (server-capped)")
	)
	if err := sub.Parse(args); err != nil {
		usageExit(err.Error())
	}

	cli := client.New(*server)
	ctx := context.Background()

	req := query.Request{
		Context:    query.Context{EventType: *typ, User: *user, App: *app},
		SecondType: *second,
		BinSeconds: *bin,
		TopK:       *k,
		Level:      *level,
	}
	req.Context.From = parseTime(*from)
	req.Context.To = parseTime(*to)
	req.At = parseTime(*at)

	switch cmd {
	case "types":
		types, err := cli.Types(ctx)
		check(err)
		for t, d := range types {
			fmt.Printf("%-13s %s\n", t, d)
		}
	case "heatmap":
		req.Op = query.OpHeatmap
		hm := run[analytics.HeatMap](ctx, cli, req)
		fmt.Print(viz.SystemMap(&hm))
	case "hist":
		req.Op = query.OpHistogram
		hist := run[[]int](ctx, cli, req)
		fmt.Print(viz.Histogram(hist, 10))
	case "dist":
		req.Op = query.OpDistribution
		buckets := run[[]analytics.Bucket](ctx, cli, req)
		fmt.Print(viz.Distribution(buckets, *k, 50))
	case "te":
		req.Op = query.OpTE
		te := run[query.TEResponse](ctx, cli, req)
		fmt.Printf("TE(%s -> %s) = %.4f bits\n", te.First, te.Second, te.TEForward)
		fmt.Printf("TE(%s -> %s) = %.4f bits\n", te.Second, te.First, te.TEReverse)
		if te.Direction != "" {
			fmt.Printf("information flows %s\n", te.Direction)
		}
	case "words":
		req.Op = query.OpWordCount
		for _, w := range run[[]query.WordCountEntry](ctx, cli, req) {
			fmt.Printf("%-20s %8d\n", w.Term, w.Count)
		}
	case "tfidf":
		req.Op = query.OpTFIDF
		scores := run[[]analytics.TermScore](ctx, cli, req)
		fmt.Print(viz.WordBubbles(scores, *k))
	case "events":
		runEvents(ctx, cli, req.Context, *page, *stream)
	case "runs":
		req.Op = query.OpRuns
		for _, r := range run[[]query.RunRecord](ctx, cli, req) {
			status := "ok"
			if !r.ExitOK {
				status = "FAILED"
			}
			fmt.Printf("%s %-10s %-10s %5d nodes %v  %s\n",
				r.JobID, r.App, r.User, len(r.Nodes),
				time.Unix(r.End-r.Start, 0).UTC().Format("15:04:05"), status)
		}
	case "watch":
		runWatch(ctx, cli, *typ, *since, *timeout)
	case "placement":
		req.Op = query.OpPlacement
		fmt.Print(viz.PlacementMap(run[map[string]string](ctx, cli, req)))
	case "cql":
		if sub.NArg() < 1 {
			usageExit("usage: logctl cql 'SELECT ... FROM ... WHERE ...'")
		}
		runCQL(ctx, cli, sub.Arg(0))
	case "rules":
		req.Op = query.OpRules
		rules := run[[]struct {
			Antecedent string  `json:"Antecedent"`
			Consequent string  `json:"Consequent"`
			Support    float64 `json:"Support"`
			Confidence float64 `json:"Confidence"`
			Lift       float64 `json:"Lift"`
		}](ctx, cli, req)
		for i, r := range rules {
			if i >= *k {
				break
			}
			fmt.Printf("%-13s => %-13s supp %.3f conf %.2f lift %.2f\n",
				r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
		}
	case "sequences":
		req.Op = query.OpSequences
		patterns := run[[]struct {
			First     string `json:"First"`
			Then      string `json:"Then"`
			Count     int    `json:"Count"`
			Prob      float64
			MedianLag int64 `json:"MedianLag"`
		}](ctx, cli, req)
		for i, p := range patterns {
			if i >= *k {
				break
			}
			fmt.Printf("%-13s -> %-13s p=%.2f n=%d lag=%v\n",
				p.First, p.Then, p.Prob, p.Count, time.Duration(p.MedianLag))
		}
	case "episodes":
		req.Op = query.OpEpisodes
		episodes := run[[]struct {
			Type    string `json:"Type"`
			Start   time.Time
			End     time.Time
			Count   int
			Sources []string
		}](ctx, cli, req)
		for i, ep := range episodes {
			if i >= *k {
				break
			}
			fmt.Printf("%s %-13s %6d events %4d sources %v\n",
				ep.Start.Format(time.RFC3339), ep.Type, ep.Count, len(ep.Sources),
				ep.End.Sub(ep.Start).Round(time.Second))
		}
	case "reliability":
		req.Op = query.OpReliability
		payload := run[struct {
			Stats struct {
				N                           int
				MTBF, Median, P95, Min, Max int64
			} `json:"stats"`
			TopFailing []struct {
				Component string
				Failures  int
				MTBF      int64
			} `json:"top_failing"`
		}](ctx, cli, req)
		fmt.Printf("failures: %d, MTBF %v (median %v, p95 %v)\n",
			payload.Stats.N, time.Duration(payload.Stats.MTBF),
			time.Duration(payload.Stats.Median), time.Duration(payload.Stats.P95))
		for _, c := range payload.TopFailing {
			fmt.Printf("  %-12s %5d failures  MTBF %v\n",
				c.Component, c.Failures, time.Duration(c.MTBF))
		}
	case "profiles":
		req.Op = query.OpProfiles
		if *typ != "" {
			exposure := run[[]struct {
				App  string
				Rate float64
				Runs int
			}](ctx, cli, req)
			for i, e := range exposure {
				if i >= *k {
					break
				}
				fmt.Printf("%-12s %8.3f ev/node-h (%d runs)\n", e.App, e.Rate, e.Runs)
			}
			break
		}
		profiles := run[map[string]struct {
			Runs       int
			FailedRuns int
			NodeHours  float64
		}](ctx, cli, req)
		for app, p := range profiles {
			fmt.Printf("%-12s %4d runs (%d failed) %10.1f node-hours\n",
				app, p.Runs, p.FailedRuns, p.NodeHours)
		}
	case "storage-stats":
		st, err := cli.StorageStats(ctx)
		check(err)
		printStorageStats(st)
	case "compact":
		res, err := cli.Compact(ctx)
		check(err)
		fmt.Printf("compacted %d partitions\n", res.PartitionsCompacted)
		printStorageStats(res.Storage)
	case "tier":
		res, err := cli.TierSweep(ctx)
		check(err)
		fmt.Printf("tier sweep: %d uploaded, %d evicted\n", res.Uploaded, res.Evicted)
		printStorageStats(res.Storage)
	case "segments":
		res, err := cli.ShardSegments(ctx)
		check(err)
		printSegments(res)
	case "cluster":
		st, err := cli.ClusterStatus(ctx)
		check(err)
		printClusterStatus(st)
	case "slow":
		traces, err := cli.SlowQueries(ctx)
		check(err)
		printSlowTraces(traces, *k)
	default:
		usageExit(fmt.Sprintf("unknown subcommand %q", cmd))
	}
}

// run executes a query through the SDK, exiting on failure.
func run[T any](ctx context.Context, cli *client.Client, req query.Request) T {
	out, err := client.Query[T](ctx, cli, req)
	check(err)
	return out
}

// runEvents renders events one-shot, paginated, or streamed.
func runEvents(ctx context.Context, cli *client.Client, qc query.Context, page int, stream bool) {
	print := func(e query.EventRecord) error {
		fmt.Printf("%s %-13s %-12s x%d %s\n",
			time.Unix(e.Time, 0).UTC().Format(time.RFC3339), e.Type, e.Source, e.Count, e.Raw)
		return nil
	}
	switch {
	case stream:
		check(cli.StreamEvents(ctx, qc, print))
	case page > 0:
		check(cli.EachEvent(ctx, qc, page, print))
	default:
		events, err := cli.Events(ctx, qc)
		check(err)
		for _, e := range events {
			_ = print(e)
		}
	}
}

// runWatch subscribes to live events and prints them as they arrive.
func runWatch(ctx context.Context, cli *client.Client, typ, since string, timeout time.Duration) {
	if typ == "" {
		usageExit("watch requires -type")
	}
	opts := client.WatchOptions{Timeout: timeout}
	if since != "" {
		t, err := time.Parse(time.RFC3339, since)
		if err != nil {
			usageExit(fmt.Sprintf("bad -since %q: %v", since, err))
		}
		opts.Since = t
	}
	w, err := cli.Watch(ctx, typ, opts)
	check(err)
	defer w.Close()
	fmt.Fprintf(os.Stderr, "watching %s (push, no polling) — ctrl-c to stop\n", typ)
	for {
		e, ok := w.Next()
		if !ok {
			check(w.Err())
			return
		}
		fmt.Printf("%s %-13s %-12s x%d %s\n",
			time.Unix(e.Time, 0).UTC().Format(time.RFC3339), e.Type, e.Source, e.Count, e.Raw)
	}
}

func printStorageStats(st store.StorageStats) {
	fmt.Printf("storage: %s\n", st.Dir)
	fmt.Printf("  commitlog: %d appends, %d syncs, %d rotations, %.1f MB, %d live segments (%d truncated)\n",
		st.WALAppends, st.WALSyncs, st.WALRotations, float64(st.WALBytes)/(1<<20),
		st.WALSegments, st.WALTruncatedSegments)
	fmt.Printf("  flush:     %d flushes, %d rows\n", st.Flushes, st.FlushedRows)
	fmt.Printf("  compact:   %d compactions, %d segments in, %d rows out\n",
		st.Compactions, st.CompactedSegments, st.CompactedRows)
	fmt.Printf("  on disk:   %d segments in %d files, %.1f MB\n", st.DiskSegments, st.DiskFiles, float64(st.DiskBytes)/(1<<20))
	fmt.Printf("  recovery:  %d records / %d rows replayed, %d torn bytes ignored\n",
		st.ReplayedRecords, st.ReplayedRows, st.TornBytes)
	if st.Tier != nil {
		ts := st.Tier
		fmt.Printf("  tier:      %d segments evicted (%.1f MB logical), %d uploads (%.1f MB), %d blocks fetched (%.1f MB)\n",
			st.TieredSegments, float64(st.TieredBytes)/(1<<20),
			ts.Uploads, float64(ts.UploadedBytes)/(1<<20),
			ts.FetchedBlocks, float64(ts.FetchedBytes)/(1<<20))
		fmt.Printf("  cache:     %d/%d bytes, %d entries, %d hits / %d misses, fetch p99 %v\n",
			ts.CacheUsed, ts.CacheBudget, ts.CacheEntries, ts.CacheHits, ts.CacheMisses, ts.FetchNanos.P99)
		if ts.VerifyFailures > 0 {
			fmt.Printf("  WARNING:   %d tier verification failures (corrupt object-store reads rejected)\n",
				ts.VerifyFailures)
		}
	}
	if st.MaintenanceErrors > 0 {
		fmt.Printf("  WARNING:   %d background maintenance errors (compaction/WAL truncation/tier upload failing — check disk and object store)\n",
			st.MaintenanceErrors)
	}
}

// printSegments renders /v1/shard/segments: one line per segment with
// its tier placement and Merkle root (abbreviated — roots are compared,
// not read).
func printSegments(p api.SegmentsPayload) {
	total := 0
	for _, n := range p.Nodes {
		total += len(n.Segments)
	}
	if total == 0 {
		fmt.Println("no on-disk segments (nothing flushed yet)")
		return
	}
	for _, n := range p.Nodes {
		if len(n.Segments) == 0 {
			continue
		}
		fmt.Printf("%s: %d segments\n", n.Node, len(n.Segments))
		fmt.Printf("  %-20s %-12s %6s %-8s %10s %-16s %s\n",
			"TABLE/PARTITION", "SEQ", "ROWS", "TIER", "BYTES", "ROOT", "KEYS")
		for _, sg := range n.Segments {
			root := sg.Root
			if len(root) > 16 {
				root = root[:16]
			}
			if root == "" {
				root = "-"
			}
			fmt.Printf("  %-20s %-12d %6d %-8s %10d %-16s [%s .. %s]\n",
				sg.Table+"/"+sg.Partition, sg.Seq, sg.Rows, sg.Tier, sg.Bytes, root,
				abbrevKey(sg.MinKey), abbrevKey(sg.MaxKey))
		}
	}
}

// abbrevKey keeps segment listings one line per segment even with long
// clustering keys.
func abbrevKey(k string) string {
	if len(k) > 24 {
		return k[:24] + "…"
	}
	return k
}

// printClusterStatus renders the /v1/cluster answer: the answering
// member, the ring's replication factor, and per-member liveness,
// primary ownership share, replication lag (hints this process queues
// toward the member), and last contact.
func printClusterStatus(st api.ClusterStatus) {
	fmt.Printf("cluster as seen by %s: %d members, rf=%d, clock=%d\n",
		st.Self, len(st.Members), st.RF, st.WriteTS)
	fmt.Printf("  %-12s %-6s %-5s %9s %7s %-9s %s\n",
		"MEMBER", "WHERE", "STATE", "OWNERSHIP", "HINTS", "LAST SEEN", "URL")
	for _, m := range st.Members {
		where, state := "remote", "down"
		if m.Local {
			where = "local"
		}
		if m.Up {
			state = "up"
		}
		seen := "-"
		if m.Local {
			seen = "self"
		} else if m.LastSeenUnixMS > 0 {
			ago := time.Since(time.UnixMilli(m.LastSeenUnixMS)).Round(time.Millisecond)
			seen = ago.String() + " ago"
		}
		fmt.Printf("  %-12s %-6s %-5s %8.1f%% %7d %-9s %s\n",
			m.ID, where, state, m.Share*100, m.PendingHints, seen, m.URL)
	}
}

// printSlowTraces renders the slow-query log, newest first: one header
// line per trace (when, route, total duration, request id), the CQL text
// and EXPLAIN plan when the trace captured them, then per-stage timings
// as offset+duration pairs so the dominant stage is obvious at a glance.
func printSlowTraces(traces []obs.SlowTrace, k int) {
	if len(traces) == 0 {
		fmt.Println("no slow queries retained (is the server's -slow-query threshold too high?)")
		return
	}
	for i, tr := range traces {
		if i >= k {
			fmt.Printf("(%d more not shown; raise -k)\n", len(traces)-i)
			break
		}
		fmt.Printf("%s %-22s %10v  request_id=%s\n",
			tr.Start.UTC().Format(time.RFC3339), tr.Name,
			tr.Duration.Round(time.Microsecond), tr.RequestID)
		if tr.Query != "" {
			fmt.Printf("    query: %s\n", tr.Query)
		}
		for _, line := range tr.Plan {
			fmt.Printf("    plan:  %s\n", line)
		}
		for _, st := range tr.Stages {
			fmt.Printf("    %-18s +%-12v %v\n",
				st.Name, st.Offset.Round(time.Microsecond), st.Dur.Round(time.Microsecond))
		}
		if tr.StagesDropped > 0 {
			fmt.Printf("    (%d stages dropped)\n", tr.StagesDropped)
		}
	}
}

// runCQL executes a raw CQL statement through the SDK session and prints
// the result.
func runCQL(ctx context.Context, cli *client.Client, stmt string) {
	res, err := cli.Session("").Execute(ctx, stmt)
	check(err)
	switch {
	case res.Applied:
		fmt.Println("applied")
	case res.Plan != nil:
		for _, line := range res.Plan {
			fmt.Println(line)
		}
	case res.Tables != nil:
		for _, t := range res.Tables {
			fmt.Println(t)
		}
	case res.Schema != nil:
		for _, c := range res.Schema {
			fmt.Println(c)
		}
	default:
		for _, r := range res.Rows {
			fmt.Printf("%s", r.Key)
			cols := make([]string, 0, len(r.Columns))
			for k := range r.Columns {
				cols = append(cols, k)
			}
			sort.Strings(cols)
			for _, k := range cols {
				fmt.Printf("  %s=%q", k, r.Columns[k])
			}
			fmt.Println()
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}

func parseTime(s string) int64 {
	if s == "" {
		return 0
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		usageExit(fmt.Sprintf("bad time %q: %v", s, err))
	}
	return t.Unix()
}

// check exits with a code distinguishing failure classes: a server-side
// error (the envelope said no — machine-readable code + HTTP status) is
// exit 1; a transport failure (the request never completed) is exit 2.
// Pre-SDK logctl swallowed both into the same path, hiding non-2xx
// statuses entirely.
func check(err error) {
	if err == nil {
		return
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		fmt.Fprintf(os.Stderr, "logctl: request failed (%s, HTTP %d): %s\n", ae.Code, ae.Status, ae.Message)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "logctl: %v\n", err)
	os.Exit(2)
}

// usageExit reports bad usage (exit 2, like the transport class — the
// request never reached the server).
func usageExit(msg string) {
	fmt.Fprintln(os.Stderr, "logctl: "+msg)
	os.Exit(2)
}
