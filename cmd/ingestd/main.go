// Command ingestd runs the batch ETL of Section III-D: it reads raw
// console and job logs, parses them in parallel with the regex pattern
// tables, bulk-loads the events and application runs into an in-process
// store cluster, refreshes the eventsynopsis table, and hands the result
// to analyticsd as a durable data directory (commitlog + on-disk segment
// files, served directly with -data-dir).
//
// Usage:
//
//	ingestd -console /tmp/titan/console.log -jobs /tmp/titan/jobs.log \
//	        -data-dir /tmp/titan/data -wal-nosync -store-nodes 32
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

	"hpclog/internal/core"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/obs"
	"hpclog/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ingestd: ")
	// SIGINT/SIGTERM abort between pipeline stages; the deferred
	// Framework.Close always runs, so the commitlog and segment files are
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
		dataDir     = flag.String("data-dir", "", "durable storage directory (commitlog + segment files) to load into; analyticsd serves it directly (required)")
		walNoSync   = flag.Bool("wal-nosync", false, "skip commitlog fsync during the bulk load")
		walTolerate = flag.Bool("wal-tolerate-corrupt", false, "truncate a corrupt commitlog tail instead of refusing to open; records after the damage are lost")
		storeNodes  = flag.Int("store-nodes", 32, "store cluster size")
		rf          = flag.Int("rf", 3, "replication factor")
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

	fw, err := core.New(core.Options{Store: store.Config{
		Nodes: *storeNodes, RF: *rf,
		Dir: *dataDir, WALNoSync: *walNoSync, WALTolerateCorruptTail: *walTolerate,
		Logger: lg,
	}})
	if err != nil {
		return err
	}
	defer fw.Close()

	lines, err := readLines(*consolePath)
	if err != nil {
		return err
	}
	if err := checkpoint(ctx, "console import"); err != nil {
		return err
	}
	started := time.Now()
	nparts := 4 * len(fw.Compute.Workers())
	res, err := ingest.BatchImport(fw.Compute, fw.DB, lines, fw.Loader.CL, nparts)
	if err != nil {
		return err
	}
	elapsed := time.Since(started)
	fmt.Printf("console: parsed %d, unmatched %d, malformed %d in %v (%.0f lines/s)\n",
		res.Parsed, res.Unmatched, res.Malformed, elapsed.Round(time.Millisecond),
		float64(len(lines))/elapsed.Seconds())

	if *jobsPath != "" {
		if err := checkpoint(ctx, "job import"); err != nil {
			return err
		}
		jobLines, err := readLines(*jobsPath)
		if err != nil {
			return err
		}
		jres, err := ingest.BatchImportJobs(fw.Compute, fw.DB, jobLines, fw.Loader.CL, nparts)
		if err != nil {
			return err
		}
		fmt.Printf("jobs: parsed %d, malformed %d\n", jres.Parsed, jres.Malformed)
	}

	if err := checkpoint(ctx, "synopsis refresh"); err != nil {
		return err
	}
	// Synopsis over every hour present in the imported data.
	var hours []int64
	pkeys, err := fw.DB.PartitionKeys(ctx, model.TableEventByTime)
	if err != nil {
		return err
	}
	for _, pkey := range pkeys {
		var h int64
		var typ string
		if _, err := fmt.Sscanf(pkey, "%d:%s", &h, &typ); err == nil {
			hours = append(hours, h)
		}
	}
	hours = dedupe(hours)
	if err := ingest.RefreshSynopsis(fw.Compute, fw.DB, hours, fw.Loader.CL); err != nil {
		return err
	}

	if err := checkpoint(ctx, "compaction checkpoint"); err != nil {
		return err
	}
	// Push every memtable into on-disk segments and truncate the commitlog
	// so analyticsd opens the directory without replay work (Compact
	// starts with a full Flush checkpoint).
	if _, err := fw.DB.Compact(); err != nil {
		return err
	}
	st := fw.DB.StorageStats()
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

func dedupe(in []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
