package analytics

import (
	"fmt"
	"sort"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/topology"
)

// Reliability analysis: the paper motivates log analytics with the
// ability to "evaluate system reliability characteristics" and cites the
// classic MTBF studies (Schroeder & Gibson, [13]). These helpers compute
// failure interarrival statistics and per-component failure rankings from
// event streams.

// FailureTypes is the default set of event classes counted as failures
// for reliability statistics.
var FailureTypes = map[model.EventType]bool{
	model.KernelPanic: true,
	model.GPUFail:     true,
	model.MCE:         true,
}

// InterarrivalStats summarizes the gaps between consecutive failures.
type InterarrivalStats struct {
	// N is the number of failure events observed.
	N int
	// MTBF is the mean time between failures.
	MTBF time.Duration
	// Median and P95 are interarrival percentiles.
	Median time.Duration
	P95    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Interarrivals computes failure interarrival statistics over the events
// whose type is in failureTypes (nil selects FailureTypes). Events are
// sorted internally; fewer than two failures is an error.
func Interarrivals(events []model.Event, failureTypes map[model.EventType]bool) (InterarrivalStats, error) {
	if failureTypes == nil {
		failureTypes = FailureTypes
	}
	var failures []model.Event
	for _, e := range events {
		if failureTypes[e.Type] {
			failures = append(failures, e)
		}
	}
	if len(failures) < 2 {
		return InterarrivalStats{}, fmt.Errorf("analytics: %d failures, need >= 2 for interarrival statistics", len(failures))
	}
	model.SortEvents(failures)
	gaps := make([]time.Duration, 0, len(failures)-1)
	for i := 1; i < len(failures); i++ {
		gaps = append(gaps, failures[i].Time.Sub(failures[i-1].Time))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	var sum time.Duration
	for _, g := range gaps {
		sum += g
	}
	st := InterarrivalStats{
		N:      len(failures),
		MTBF:   sum / time.Duration(len(gaps)),
		Median: gaps[len(gaps)/2],
		P95:    gaps[(len(gaps)*95)/100],
		Min:    gaps[0],
		Max:    gaps[len(gaps)-1],
	}
	return st, nil
}

// ComponentFailures is a per-component failure tally with MTBF computed
// over the observation window.
type ComponentFailures struct {
	Component string
	Failures  int
	// MTBF is window / failures, the rate-based estimator appropriate
	// for sparse per-component failure data.
	MTBF time.Duration
}

// FailuresByComponent tallies failures per physical component at the
// requested granularity over the window spanned by the events, returning
// components sorted by descending failure count.
func FailuresByComponent(events []model.Event, failureTypes map[model.EventType]bool, level topology.Level) ([]ComponentFailures, error) {
	if failureTypes == nil {
		failureTypes = FailureTypes
	}
	var first, last time.Time
	counts := make(map[string]int)
	for _, e := range events {
		if !failureTypes[e.Type] {
			continue
		}
		if first.IsZero() || e.Time.Before(first) {
			first = e.Time
		}
		if e.Time.After(last) {
			last = e.Time
		}
		loc, err := topology.ParseCName(e.Source)
		if err != nil {
			counts[e.Source]++ // off-machine source kept verbatim
			continue
		}
		comp := topology.Component{Level: level, Loc: truncateLoc(loc, level)}
		counts[comp.String()]++
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("analytics: no failures in input")
	}
	window := last.Sub(first)
	if window <= 0 {
		window = time.Second
	}
	out := make([]ComponentFailures, 0, len(counts))
	for comp, n := range counts {
		out = append(out, ComponentFailures{
			Component: comp,
			Failures:  n,
			MTBF:      window / time.Duration(n),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Failures != out[j].Failures {
			return out[i].Failures > out[j].Failures
		}
		return out[i].Component < out[j].Component
	})
	return out, nil
}
