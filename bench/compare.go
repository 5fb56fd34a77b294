package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// setRun is one run of a set: a workload at a seed, its end-to-end
// metrics, and the host slowdown the calibration kernels saw during its
// query phase (1 is the reference speed).
type setRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Slowdown float64            `json:"host_slowdown"`
	Metrics  map[string]float64 `json:"metrics"`
	// Layer holds the per-layer metrics the run printed, raw times among
	// them, so a set can be studied without running it again.
	Layer map[string]float64 `json:"layer"`
}

// runSet runs every workload `runs` times, each time with another seed,
// one child process per run so no run inherits another's heap, and writes
// the set file -compare reads.
func runSet(runs int, seed int64, seconds float64, workDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var set []setRun
	for i := 0; i < runs; i++ {
		for _, w := range workloadNames {
			s := seed + int64(i)
			cmd := exec.Command(self,
				"--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
				"--trace", "0", "--dir", workDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n%s", w, s, err, stdout)
				return 1
			}
			run, err := parseRun(w, s, stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, s, err)
				return 1
			}
			set = append(set, run)
			fmt.Fprintf(os.Stderr, "bench: %-9s seed %d done (host slowdown %.2f)\n", w, s, run.Slowdown)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return 0
}

// parseRun reads one child's standard output: the result line is last,
// the host slowdown is in the per-layer listing above it.
func parseRun(workload string, seed int64, stdout []byte) (setRun, error) {
	run := setRun{Workload: workload, Seed: seed, Metrics: map[string]float64{}, Layer: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return run, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return run, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		run.Metrics[name] = m.Value
	}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 3 || !strings.HasPrefix(l, "  ") {
			continue // not a "  name value unit" line of the listing
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if _, gated := run.Metrics[f[0]]; err != nil || gated {
			continue
		}
		run.Layer[f[0]] = v
	}
	run.Slowdown = run.Layer["host.slowdown"]
	return run, nil
}

// specMetric is one metric of BENCHMARK.json (Bound only end to end).
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json as far as -compare and the test read it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	return spec, err
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method).
func quartileSpread(values []float64) float64 {
	v := append([]float64(nil), values...)
	q := func(p float64) float64 {
		// Exclusive method: position p*(n+1) on 1-based order statistics.
		pos := p * float64(len(v)+1)
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(v)-1)
		return v[lo-1] + (v[lo]-v[lo-1])*(pos-float64(lo))
	}
	med := median(v) // sorts v
	if len(v) < 2 || med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

func loadSet(path string) (map[string][]setRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []setRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]setRun)
	for _, r := range runs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

func column(runs []setRun, get func(setRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = get(r)
	}
	return out
}

// compareSets applies BENCHMARK.json's bounds to two sets of runs, per
// workload and end-to-end metric. A cell is "worse" when set b's median
// is worse than set a's by more than the bound, "unresolved" — not
// "unchanged" — when a set's own spread exceeds the bound or, for a timed
// metric, the host itself differed between the sets by more than the
// bound (medians of host.slowdown), and "within" otherwise. Returns 1 when any
// cell is worse.
func compareSets(specPath, pathA, pathB string, w io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: read spec:", err)
		return 2
	}
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-10s %-24s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "b vs a", "spread a", "spread b", "bound", "verdict")
	worse := 0
	for _, wl := range workloadNames {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		calib := func(r setRun) float64 { return r.Slowdown }
		ca, cb := median(column(ra, calib)), median(column(rb, calib))
		hostShift := math.Abs(cb/ca - 1)
		fmt.Fprintf(&buf, "%-10s %-24s %12.4f %12.4f %+7.1f%%\n", wl, "host.slowdown", ca, cb, 100*(cb/ca-1))
		for _, m := range spec.EndToEnd {
			get := func(r setRun) float64 { return r.Metrics[m.Name] }
			va, vb := column(ra, get), column(rb, get)
			ma, mb := median(va), median(vb)
			sa, sb := quartileSpread(va), quartileSpread(vb)
			change := mb/ma - 1 // positive = b larger
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			// A count of bytes does not depend on how fast the host was.
			timed := m.Unit == "s" || m.Unit == "ms" || m.Unit == "1/s"
			verdict := "within"
			switch {
			case timed && hostShift > m.Bound, sa > m.Bound, sb > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(&buf, "%-10s %-24s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return 2
	}
	if worse > 0 {
		return 1
	}
	return 0
}
