package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testScale shrinks corpus and op counts so every workload runs in
// seconds; the code paths are the benchmark's.
const testScale = 1.0 / 50

// render is the canonical text of everything a seed freezes.
func render(seed int64) string {
	c := generateCorpus(seed, testScale)
	opt := options{seconds: 18, scale: testScale}
	var b strings.Builder
	for _, l := range c.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	g := newSeqGen(c, seed)
	for _, seq := range []*sequence{
		g.build(dashboardClasses, opt.ops(wDashboard), true, warmOps),
		g.build(browseClasses, opt.ops(wBrowse), false, warmOps),
		g.build(dashboardClasses, opt.ops(wCold), false, warmOps),
	} {
		for _, o := range append(append(append([]op(nil), seq.hot...), seq.warm...), seq.ops...) {
			b.WriteString(o.String())
			b.WriteByte('\n')
		}
	}
	stream := generateStream(c, seed, 64)
	for _, e := range stream {
		b.WriteString(e.stmt)
		b.WriteByte('\n')
	}
	for _, o := range ingestSeq(c, seed, stream, opt.ops(wIngest)).ops {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSeedFreezesInputs(t *testing.T) {
	a, b := render(7), render(7)
	if a != b {
		t.Fatal("two generations of seed 7 differ")
	}
	if a == render(8) {
		t.Fatal("seeds 7 and 8 generate the same inputs")
	}
}

func TestUniqueWindowsAndHotPlacement(t *testing.T) {
	c := generateCorpus(7, testScale)
	seq := newSeqGen(c, 7).build(dashboardClasses, 400, true, warmOps)
	seen := map[string]bool{}
	hot := 0
	for i, o := range seq.ops {
		if o.class == classHot {
			hot++
			if i%hotEvery != hotEvery-1 {
				t.Fatalf("hot op at position %d", i)
			}
			continue
		}
		if seen[o.String()] {
			t.Fatalf("window asked twice: %s", o)
		}
		seen[o.String()] = true
	}
	for _, o := range seq.warm {
		if seen[o.String()] {
			t.Fatalf("warm-up window is also a timed one: %s", o)
		}
	}
	if hot != 400/hotEvery {
		t.Fatalf("%d hot ops in 400, want %d", hot, 400/hotEvery)
	}
}

// TestWorkloads runs every workload end to end, traced, at 1/50 scale:
// no op may fail (the dashboard run itself checks the cache hit count
// against the number of hot ops in the sequence), and every metric
// BENCHMARK.json names must be printed exactly once with its unit.
func TestWorkloads(t *testing.T) {
	c, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadNames))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			start := time.Now()
			dir := t.TempDir()
			rep, err := execute(options{
				workload: w.Name, seed: 7, seconds: 18, trace: true, scale: testScale,
				workDir: dir, traceFile: filepath.Join(dir, "trace.json"),
			}, start)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.errs)
			}
			if took := time.Since(start); took > 20*time.Second {
				t.Errorf("took %v, want under 20s", took)
			}
			var out bytes.Buffer
			printReport(&out, rep, false)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			listing := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range append(c.EndToEnd, c.PerLayer...) {
				re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if n := len(re.FindAllString(listing, -1)); n != 1 {
					t.Errorf("metric %s [%s] printed %d times", m.Name, m.Unit, n)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if len(res.Metrics) != len(c.EndToEnd) {
				t.Errorf("result line has %d metrics, BENCHMARK.json %d end-to-end", len(res.Metrics), len(c.EndToEnd))
			}
			for _, m := range c.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value == 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want unit %s and a non-zero value", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.layer) != len(c.PerLayer) {
				t.Errorf("run reports %d per-layer metrics, BENCHMARK.json lists %d", len(rep.layer), len(c.PerLayer))
			}
			spans, err := os.ReadFile(filepath.Join(dir, "trace.json"))
			if err != nil || !json.Valid(spans) {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0];
	// the median is 13.5.
	got := quartileSpread([]float64{46, 1, 2, 37, 4, 7, 11, 29, 16, 22})
	if want := (31.0 - 3.5) / 13.5; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
}
