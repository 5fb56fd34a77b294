// Command ingestd runs the batch ETL of Section III-D: it reads raw
// console and job logs, parses them in parallel (package parse's line
// scanners), bulk-loads the events and application runs into an
// in-process store cluster, refreshes the eventsynopsis table, and hands
// the result to hpclogd as a durable data directory (commitlog + on-disk
// segment files, served directly with -data-dir). It opens hpclogd's stack but
// never serves it, so -wal-nosync stays a load-time knob.
//
// Usage:
//
//	ingestd -console /tmp/titan/console.log -jobs /tmp/titan/jobs.log \
//	        -data-dir /tmp/titan/data -wal-nosync
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpclog/internal/dist"
	"hpclog/internal/obs"
	"hpclog/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ingestd: ")
	// SIGINT/SIGTERM abort between pipeline stages; the deferred
	// Node.Close always runs, so the commitlog and segment files are
	// closed cleanly and a durable directory stays recoverable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatal(err)
	}
}

// checkpoint returns ctx.Err at stage boundaries so an interrupt exits
// through the deferred cleanup instead of mid-write.
func checkpoint(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted before %s (storage closed cleanly): %w", stage, err)
	}
	return nil
}

func run(ctx context.Context) error {
	var (
		consolePath = flag.String("console", "console.log", "console log file")
		jobsPath    = flag.String("jobs", "", "job log file (optional)")
		dataDir     = flag.String("data-dir", "", "durable storage directory (commitlog + segment files) to load into; hpclogd serves it directly (required)")
		walNoSync   = flag.Bool("wal-nosync", false, "skip commitlog fsync during the bulk load")
		walTolerate = flag.Bool("wal-tolerate-corrupt", false, "truncate a corrupt commitlog tail instead of refusing to open; records after the damage are lost")
		storeNodes  = flag.Int("store-nodes", 1, "store cluster size")
		rf          = flag.Int("rf", 1, "replication factor")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()
	if *dataDir == "" {
		return fmt.Errorf("need -data-dir DIR: without it the load stays in RAM and is lost on exit")
	}

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lg := obs.NewLogger(os.Stderr, lvl, *logFormat).With("component", "ingestd")

	node, err := dist.Open(dist.Config{Store: store.Config{
		Nodes: *storeNodes, RF: *rf,
		Dir: *dataDir, WALNoSync: *walNoSync, WALTolerateCorruptTail: *walTolerate,
		Logger: lg,
	}})
	if err != nil {
		return err
	}
	defer node.Close()

	lines, err := readLines(*consolePath)
	if err != nil {
		return err
	}
	var jobLines []string
	if *jobsPath != "" {
		if jobLines, err = readLines(*jobsPath); err != nil {
			return err
		}
	}
	if err := checkpoint(ctx, "import"); err != nil {
		return err
	}
	started := time.Now()
	res, err := node.Import(ctx, lines, jobLines)
	if err != nil {
		return err
	}
	elapsed := time.Since(started)
	fmt.Printf("imported %d events (unmatched %d) and %d runs, malformed %d, in %v (%.0f lines/s)\n",
		res.EventsLoaded, res.Unmatched, res.RunsLoaded, res.Malformed, elapsed.Round(time.Millisecond),
		float64(len(lines)+len(jobLines))/elapsed.Seconds())

	if err := checkpoint(ctx, "compaction checkpoint"); err != nil {
		return err
	}
	// Push every memtable into on-disk segments and truncate the commitlog
	// so hpclogd opens the directory without replay work (Compact starts
	// with a full Flush checkpoint).
	if _, err := node.DB.Compact(); err != nil {
		return err
	}
	st := node.DB.StorageStats()
	fmt.Printf("durable: %s (%d segments, %.1f MB on disk)\n",
		*dataDir, st.DiskSegments, float64(st.DiskBytes)/(1<<20))
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}
