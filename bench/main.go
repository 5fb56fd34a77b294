// Command bench is the repository's benchmark: four fixed-work workloads
// over one in-process deployment, driven through the public SDK. See
// README.md in this directory for what is measured and why.
//
//	bench --workload dashboard --seed 42 --seconds 12 --trace 0
//	bench -runs 10 -out set-a.json        # every workload, ten seeds each
//	bench -compare set-a.json set-b.json  # apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// processStart is as close to process start as Go code gets; setup_s is
// measured from it.
var processStart = time.Now()

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: dashboard, browse, cold or ingest")
		seed     = fs.Int64("seed", 42, "seed of the corpus and of every op sequence")
		seconds  = fs.Float64("seconds", 12, "nominal measured seconds: scales the frozen op counts")
		trace    = fs.Int("trace", 0, "1 records spans, runs the layer ladder and reports per-layer metrics")
		workDir  = fs.String("dir", ".bench_build", "directory for the run's scratch data (created if missing)")
		runs     = fs.Int("runs", 0, "run every workload this many times, each with another seed, and write -out")
		out      = fs.String("out", "", "with -runs: the set file to write")
		compare  = fs.Bool("compare", false, "compare two set files given as arguments against BENCHMARK.json's bounds")
		spec     = fs.String("spec", "BENCHMARK.json", "benchmark contract read by -compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two set files")
			return 2
		}
		return compareSets(*spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	case *runs > 0:
		if *out == "" {
			fmt.Fprintln(os.Stderr, "bench: -runs needs -out")
			return 2
		}
		return runSet(*runs, *seed, *seconds, *workDir, *out)
	}
	if *seconds <= 0 || *seconds > 60 {
		// Beyond a minute the classes run out of unique windows.
		fmt.Fprintln(os.Stderr, "bench: --seconds must be in (0, 60]")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep, err := execute(options{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace != 0, scale: 1, workDir: *workDir, traceFile: defaultTraceFile,
	}, processStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printReport(os.Stdout, rep, *trace != 0)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport writes every metric by name with its unit, then the result
// line: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func printReport(w io.Writer, rep *report, traced bool) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed; corpus %d lines, %d events stored; query sequence took %.2f s, process %.2f s\n",
		rep.workload, rep.attempted, rep.failed, rep.lines, rep.events, rep.measured.Seconds(), time.Since(processStart).Seconds())
	for _, e := range rep.errs {
		fmt.Fprintln(w, "  failed:", e)
	}
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, title)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	section("end-to-end:", rep.e2e)
	section("per-layer:", rep.layer)
	classes := make([]string, 0, len(rep.samples))
	for c := range rep.samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprint(w, "samples per class:")
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, rep.samples[c])
	}
	fmt.Fprintln(w)

	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if traced {
		res.Metrics = rep.layer
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	fmt.Fprintln(w, string(line))
}
