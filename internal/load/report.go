package load

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/obs"
)

// ClassResult is one traffic class's outcome for one run.
type ClassResult struct {
	Class string `json:"class"`
	// Count is completed operations (successes only; errors and watch
	// timeouts are counted separately and never pollute the latency data).
	Count      int64 `json:"count"`
	Errors     int64 `json:"errors"`
	Overloaded int64 `json:"overloaded"`
	Timeouts   int64 `json:"timeouts"`
	obs.Percentiles
	hist *obs.Hist
}

// Report is the outcome of one scenario repeat.
type Report struct {
	Scenario string        `json:"scenario"`
	Repeat   int           `json:"repeat"`
	Start    time.Time     `json:"start"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// Offered counts clock-scheduled arrivals; Shed is the subset dropped
	// at the MaxOutstanding backlog cap before any request was sent.
	Offered int64 `json:"offered"`
	Shed    int64 `json:"shed"`
	// OfferedRate is arrivals/s over the arrival window; AchievedRate is
	// completed operations/s over the whole run including drain. The gap
	// between them is the run's headline overload signal.
	OfferedRate  float64 `json:"offered_rps"`
	AchievedRate float64 `json:"achieved_rps"`

	Classes map[string]*ClassResult `json:"classes"`

	// Long-lived subscription results.
	Watchers        int   `json:"watchers"`
	WatchDeliveries int64 `json:"watch_deliveries"`
	WatcherErrs     int64 `json:"watcher_errs"`
	// WatchLag is the write-to-delivery lag distribution: ingest ack to
	// watch receipt, one sample per (event, watcher) delivery of an event
	// this run ingested. WatchLagN counts the samples.
	WatchLagN int64           `json:"watch_lag_n"`
	WatchLag  obs.Percentiles `json:"watch_lag"`
	lagHist   *obs.Hist

	// Generator-side process accounting.
	HTTPAttempts  int64  `json:"http_attempts"`
	TransportErrs int64  `json:"transport_errs"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	Mallocs       uint64 `json:"mallocs"`
	GoroutinePeak int    `json:"goroutine_peak"`

	// ServerHTTP is the server's own limiter/watch counters after the run
	// (nil when /v1/stats was unreachable).
	ServerHTTP *api.HTTPStats `json:"server_http,omitempty"`
}

// Errors sums error counts across classes.
func (r *Report) ErrorTotal() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.Errors
	}
	return n
}

// CompletedTotal sums completed operations across classes.
func (r *Report) CompletedTotal() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.Count
	}
	return n
}

// csvHeader is the experiment CSV schema: one row per
// (scenario, repeat, class), with run-level columns repeated so each row
// is self-contained for downstream tooling (spreadsheets, gnuplot).
var csvHeader = []string{
	"scenario", "repeat", "class",
	"count", "errors", "overloaded", "timeouts",
	"p50_us", "p99_us", "p999_us", "max_us",
	"offered_rps", "achieved_rps", "shed",
	"watchers", "watch_deliveries", "watcher_errs",
	"goroutine_peak", "mallocs",
}

// WriteCSV writes the header plus one row per class of every report.
func WriteCSV(w io.Writer, reports []*Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	us := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 1, 64)
	}
	for _, rep := range reports {
		for _, class := range Classes {
			cr, ok := rep.Classes[class]
			if !ok || (cr.Count == 0 && cr.Errors == 0 && cr.Timeouts == 0) {
				continue
			}
			row := []string{
				rep.Scenario, strconv.Itoa(rep.Repeat), class,
				strconv.FormatInt(cr.Count, 10),
				strconv.FormatInt(cr.Errors, 10),
				strconv.FormatInt(cr.Overloaded, 10),
				strconv.FormatInt(cr.Timeouts, 10),
				us(cr.P50), us(cr.P99), us(cr.P999), us(cr.Max),
				strconv.FormatFloat(rep.OfferedRate, 'f', 1, 64),
				strconv.FormatFloat(rep.AchievedRate, 'f', 1, 64),
				strconv.FormatInt(rep.Shed, 10),
				strconv.Itoa(rep.Watchers),
				strconv.FormatInt(rep.WatchDeliveries, 10),
				strconv.FormatInt(rep.WatcherErrs, 10),
				strconv.Itoa(rep.GoroutinePeak),
				strconv.FormatUint(rep.Mallocs, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBenchLines renders the reports as Go benchmark lines so the
// existing cmd/benchjson | cmd/benchdiff pipeline records and gates load
// percentiles exactly like micro-benchmarks:
//
//	BenchmarkLoad/<scenario>/<class>/p99     1   1234567 ns/op
//
// Repeats of one scenario are pooled (histograms merged) before the
// percentiles are taken, so more repeats mean tighter tails, not more
// lines. Only latency keys are emitted — every metric then shares one
// regression direction (higher is worse) in cmd/benchdiff.
func WriteBenchLines(w io.Writer, reports []*Report) error {
	type pooled struct {
		scenario string
		class    string
		hist     *obs.Hist
	}
	var order []string
	merged := map[string]*pooled{}
	for _, rep := range reports {
		for _, class := range Classes {
			cr, ok := rep.Classes[class]
			if !ok || cr.hist == nil || cr.Count == 0 {
				continue
			}
			key := rep.Scenario + "/" + class
			p, ok := merged[key]
			if !ok {
				p = &pooled{scenario: rep.Scenario, class: class, hist: &obs.Hist{}}
				merged[key] = p
				order = append(order, key)
			}
			p.hist.Merge(cr.hist)
		}
		// Write-to-delivery lag rides the same pipeline as a pseudo-class,
		// so the benchdiff gate covers delivery latency directly.
		if rep.lagHist != nil && rep.WatchLagN > 0 {
			key := rep.Scenario + "/watchlag"
			p, ok := merged[key]
			if !ok {
				p = &pooled{scenario: rep.Scenario, class: "watchlag", hist: &obs.Hist{}}
				merged[key] = p
				order = append(order, key)
			}
			p.hist.Merge(rep.lagHist)
		}
	}
	sort.Strings(order)
	for _, key := range order {
		p := merged[key]
		for _, pct := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
			ns := p.hist.Quantile(pct.q).Nanoseconds()
			if _, err := fmt.Fprintf(w, "BenchmarkLoad/%s/%s/%s \t       1\t%d ns/op\n",
				p.scenario, p.class, pct.name, ns); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summarize renders one report as human-readable text.
func Summarize(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "scenario %s repeat %d: offered %.0f rps, achieved %.0f rps, shed %d, errors %d, elapsed %v\n",
		rep.Scenario, rep.Repeat, rep.OfferedRate, rep.AchievedRate, rep.Shed, rep.ErrorTotal(), rep.Elapsed.Round(time.Millisecond))
	if rep.Watchers > 0 {
		fmt.Fprintf(w, "  watchers %d: %d deliveries, %d errors\n", rep.Watchers, rep.WatchDeliveries, rep.WatcherErrs)
	}
	if rep.WatchLagN > 0 {
		fmt.Fprintf(w, "  watchlag  n=%-6d p50=%-10v p99=%-10v p999=%-10v max=%v\n",
			rep.WatchLagN, rep.WatchLag.P50.Round(time.Microsecond), rep.WatchLag.P99.Round(time.Microsecond),
			rep.WatchLag.P999.Round(time.Microsecond), rep.WatchLag.Max.Round(time.Microsecond))
	}
	for _, class := range Classes {
		cr, ok := rep.Classes[class]
		if !ok || (cr.Count == 0 && cr.Errors == 0 && cr.Timeouts == 0) {
			continue
		}
		fmt.Fprintf(w, "  %-9s n=%-6d err=%-4d over=%-4d tmo=%-4d p50=%-10v p99=%-10v p999=%-10v max=%v\n",
			class, cr.Count, cr.Errors, cr.Overloaded, cr.Timeouts,
			cr.P50.Round(time.Microsecond), cr.P99.Round(time.Microsecond),
			cr.P999.Round(time.Microsecond), cr.Max.Round(time.Microsecond))
	}
	if rep.ServerHTTP != nil {
		fmt.Fprintf(w, "  server: %d watch subscribers, %d delivered, %d wakeups (%d coalesced), tail %d hit / %d miss\n",
			rep.ServerHTTP.WatchSubscribers, rep.ServerHTTP.WatchDelivered, rep.ServerHTTP.WatchWakeups,
			rep.ServerHTTP.WatchCoalesced, rep.ServerHTTP.WatchTailHits, rep.ServerHTTP.WatchTailMisses)
	}
}
