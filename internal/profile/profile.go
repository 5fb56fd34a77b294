// Package profile implements the application profiling extension the
// paper plans in Section V: "the framework will need to develop
// application profiles in terms of event occurred during its runs. This
// will help understand correlations between application runtime
// characteristics and variations observed in the system on account of
// faults and errors."
//
// A Profile aggregates, per application, the rates of every event type
// observed on the application's nodes during its runs, normalized to
// events per node-hour. Individual runs are then evaluated against their
// application's profile to flag anomalous exposure — the "why was this
// run slow/failed" question end users bring to the framework.
package profile

import (
	"fmt"
	"sort"
	"time"

	"hpclog/internal/model"
)

// Profile is the aggregate event exposure of one application.
type Profile struct {
	App string
	// Runs is the number of runs aggregated.
	Runs int
	// FailedRuns counts runs with ExitOK == false.
	FailedRuns int
	// NodeHours is the total node-hours across runs.
	NodeHours float64
	// Counts is the total event occurrences per type on the app's nodes
	// during its runs.
	Counts map[model.EventType]int
	// Rates is Counts normalized to events per node-hour.
	Rates map[model.EventType]float64
}

// Build scans events and runs and produces one profile per application.
// An event is attributed to a run when its source node belongs to the
// run's allocation and its timestamp falls within [Start, End).
func Build(events []model.Event, runs []model.AppRun) map[string]*Profile {
	profiles := make(map[string]*Profile)
	type span struct {
		start, end time.Time
		app        string
	}
	byNode := make(map[string][]span)
	for _, r := range runs {
		p := profiles[r.App]
		if p == nil {
			p = &Profile{
				App:    r.App,
				Counts: make(map[model.EventType]int),
				Rates:  make(map[model.EventType]float64),
			}
			profiles[r.App] = p
		}
		p.Runs++
		if !r.ExitOK {
			p.FailedRuns++
		}
		p.NodeHours += float64(len(r.Nodes)) * r.End.Sub(r.Start).Hours()
		for _, n := range r.Nodes {
			byNode[n] = append(byNode[n], span{r.Start, r.End, r.App})
		}
	}
	for _, e := range events {
		for _, s := range byNode[e.Source] {
			if !e.Time.Before(s.start) && e.Time.Before(s.end) {
				profiles[s.app].Counts[e.Type] += max(1, e.Count)
			}
		}
	}
	for _, p := range profiles {
		if p.NodeHours > 0 {
			for typ, n := range p.Counts {
				p.Rates[typ] = float64(n) / p.NodeHours
			}
		}
	}
	return profiles
}

// Anomaly flags one event type whose rate during a run deviates from the
// application's profile.
type Anomaly struct {
	Type model.EventType
	// RunRate is the run's observed events per node-hour.
	RunRate float64
	// ProfileRate is the application's baseline rate.
	ProfileRate float64
	// Factor is RunRate / ProfileRate (infinite baselines are clamped;
	// a type never seen in the profile reports Factor = +Inf as 0-guarded
	// large value).
	Factor float64
}

// RunReport evaluates one run against its application profile.
type RunReport struct {
	JobID     string
	App       string
	NodeHours float64
	ExitOK    bool
	Counts    map[model.EventType]int
	Anomalies []Anomaly
}

// Evaluate attributes events to the run and flags types whose rate
// exceeds minFactor times the application baseline. Events must cover the
// run's window; extraneous events are ignored.
func Evaluate(run model.AppRun, events []model.Event, prof *Profile, minFactor float64) (RunReport, error) {
	if prof == nil {
		return RunReport{}, fmt.Errorf("profile: nil profile for app %q", run.App)
	}
	if minFactor <= 0 {
		minFactor = 2
	}
	nodes := make(map[string]bool, len(run.Nodes))
	for _, n := range run.Nodes {
		nodes[n] = true
	}
	report := RunReport{
		JobID:     run.JobID,
		App:       run.App,
		NodeHours: float64(len(run.Nodes)) * run.End.Sub(run.Start).Hours(),
		ExitOK:    run.ExitOK,
		Counts:    make(map[model.EventType]int),
	}
	for _, e := range events {
		if !nodes[e.Source] || e.Time.Before(run.Start) || !e.Time.Before(run.End) {
			continue
		}
		report.Counts[e.Type] += max(1, e.Count)
	}
	if report.NodeHours == 0 {
		return report, nil
	}
	for typ, n := range report.Counts {
		runRate := float64(n) / report.NodeHours
		base := prof.Rates[typ]
		var factor float64
		if base > 0 {
			factor = runRate / base
		} else {
			factor = runRate * 1e6 // never-seen type: effectively infinite
		}
		if factor >= minFactor {
			report.Anomalies = append(report.Anomalies, Anomaly{
				Type: typ, RunRate: runRate, ProfileRate: base, Factor: factor,
			})
		}
	}
	sort.Slice(report.Anomalies, func(i, j int) bool {
		if report.Anomalies[i].Factor != report.Anomalies[j].Factor {
			return report.Anomalies[i].Factor > report.Anomalies[j].Factor
		}
		return report.Anomalies[i].Type < report.Anomalies[j].Type
	})
	return report, nil
}

// Compare ranks applications by their exposure to one event type —
// "trends among the system events and contention on shared resources that
// occur during the run of their applications".
type Exposure struct {
	App  string
	Rate float64 // events per node-hour
	Runs int
}

// Compare returns per-application exposure to typ, descending.
func Compare(profiles map[string]*Profile, typ model.EventType) []Exposure {
	out := make([]Exposure, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, Exposure{App: p.App, Rate: p.Rates[typ], Runs: p.Runs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].App < out[j].App
	})
	return out
}
