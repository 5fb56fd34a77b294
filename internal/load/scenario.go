// Package load is the open-loop load harness behind cmd/loadgen: a
// fixed-arrival-rate pacer, weighted traffic mixes over the hpclog/client
// SDK, and reproducible experiment grids. Latencies are recorded in
// obs.Hist — the histogram behind the server's own /v1/metrics — so a
// loadgen p99 and a scraped hpclog_http_request_seconds p99 share one
// bucket layout and error bound.
package load

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Traffic classes a scenario can mix. Each is one kind of SDK call
// against the live server.
const (
	// ClassIngest writes one event through CQL INSERT (the wire write
	// path), which also feeds the watch hub.
	ClassIngest = "ingest"
	// ClassOneshot runs a one-shot events query (full JSON body).
	ClassOneshot = "oneshot"
	// ClassPaginated pages through an events result with cursors.
	ClassPaginated = "paginated"
	// ClassStreamed streams an events result as NDJSON.
	ClassStreamed = "streamed"
	// ClassCQL runs a CQL SELECT over the current hour partition.
	ClassCQL = "cql"
	// ClassWatch opens a push subscription and measures the time until the
	// first event is delivered (ingest traffic keeps events flowing).
	ClassWatch = "watch"
)

// Classes lists every traffic class in canonical report order.
var Classes = []string{ClassIngest, ClassOneshot, ClassPaginated, ClassStreamed, ClassCQL, ClassWatch}

// Scenario is one named open-loop experiment: a fixed offered arrival
// rate, a weighted traffic mix, a pool of SDK clients, and an optional
// set of long-lived watch subscriptions held open for the whole run.
type Scenario struct {
	Name string `json:"name"`
	// DurationS is the measured run length in seconds.
	DurationS float64 `json:"duration_s"`
	// Rate is the offered arrival rate in requests/second. Open loop:
	// arrivals are scheduled by the clock, never by completions, so a slow
	// server faces a growing backlog instead of a self-throttling client
	// (coordinated omission is the closed-loop artifact this avoids).
	Rate float64 `json:"rate"`
	// Clients is the size of the SDK client pool arrivals draw from,
	// round-robin. Each pool entry is an independent client.Client with
	// its own transport (its own connections), modeling distinct users.
	Clients int `json:"clients"`
	// Watchers holds this many long-lived /v1/watch subscriptions open for
	// the whole run, each on its own SDK client — concurrent sessions on
	// top of the request traffic.
	Watchers int `json:"watchers"`
	// Mix maps traffic class -> relative weight; absent or zero-weight
	// classes never fire. Defaults to an ingest-heavy mixed workload.
	Mix map[string]float64 `json:"mix"`
	// PageSize is the page limit for paginated traffic (default 200).
	PageSize int `json:"page_size"`
	// MaxPages bounds how many pages one paginated op walks (default 5;
	// the result keeps growing under ingest, so "all pages" is unbounded).
	MaxPages int `json:"max_pages"`
	// EventType is the event type ingested, queried, and watched
	// (default "MCE").
	EventType string `json:"event_type"`
	// LookbackS is how far behind the run start query windows begin, in
	// seconds (default 3600).
	LookbackS float64 `json:"lookback_s"`
	// WatchFirstEventTimeoutMS bounds how long a watch op waits for its
	// first delivery before counting a timeout (default 2000).
	WatchFirstEventTimeoutMS int `json:"watch_first_event_timeout_ms"`
	// MaxOutstanding bounds in-flight requests so an overwhelmed server
	// degrades into recorded shed arrivals instead of unbounded goroutine
	// growth on the generator box (default 4096).
	MaxOutstanding int `json:"max_outstanding"`
	// Nodes asks a self-hosting harness for an in-process cluster of this
	// many members (RF = min(3, nodes)) instead of a single server; the
	// runner then round-robins its SDK clients across all coordinators.
	// 0 or 1 means single-node. Ignored when the harness targets a live
	// deployment.
	Nodes int `json:"nodes"`
	// Seed fixes the arrival-mix RNG (default 1); repeats r use Seed+r, so
	// a grid is reproducible run for run.
	Seed int64 `json:"seed"`
}

// DefaultMix is the ingest-heavy mixed workload used when a scenario
// does not specify one.
func DefaultMix() map[string]float64 {
	return map[string]float64{
		ClassIngest:    4,
		ClassOneshot:   1,
		ClassPaginated: 1,
		ClassStreamed:  1,
		ClassCQL:       1,
		ClassWatch:     1,
	}
}

// withDefaults fills unset fields.
func (s Scenario) withDefaults() Scenario {
	if s.DurationS <= 0 {
		s.DurationS = 5
	}
	if s.Rate <= 0 {
		s.Rate = 100
	}
	if s.Clients <= 0 {
		s.Clients = 16
	}
	if s.Mix == nil {
		s.Mix = DefaultMix()
	}
	if s.PageSize <= 0 {
		s.PageSize = 200
	}
	if s.MaxPages <= 0 {
		s.MaxPages = 5
	}
	if s.EventType == "" {
		s.EventType = "MCE"
	}
	if s.LookbackS <= 0 {
		s.LookbackS = 3600
	}
	if s.WatchFirstEventTimeoutMS <= 0 {
		s.WatchFirstEventTimeoutMS = 2000
	}
	if s.MaxOutstanding <= 0 {
		s.MaxOutstanding = 4096
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Duration returns the run length.
func (s Scenario) Duration() time.Duration {
	return time.Duration(s.DurationS * float64(time.Second))
}

// validate rejects nonsense before a run starts.
func (s Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("load: scenario without a name")
	}
	total := 0.0
	for class, w := range s.Mix {
		if w < 0 {
			return fmt.Errorf("load: scenario %s: negative weight for %s", s.Name, class)
		}
		known := false
		for _, c := range Classes {
			if c == class {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("load: scenario %s: unknown traffic class %q", s.Name, class)
		}
		total += w
	}
	if total <= 0 && s.Watchers <= 0 {
		return fmt.Errorf("load: scenario %s: empty mix and no watchers", s.Name)
	}
	return nil
}

// Grid is a reproducible experiment grid: named scenarios × repeats,
// loaded from an experiments.json file.
type Grid struct {
	// Repeats runs every scenario this many times (default 1); repeat r
	// reseeds the mix RNG with Seed+r.
	Repeats   int        `json:"repeats"`
	Scenarios []Scenario `json:"scenarios"`
}

// LoadGrid reads and validates an experiments.json grid file.
func LoadGrid(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	if g.Repeats <= 0 {
		g.Repeats = 1
	}
	if len(g.Scenarios) == 0 {
		return nil, fmt.Errorf("load: %s: no scenarios", path)
	}
	seen := map[string]bool{}
	for i := range g.Scenarios {
		g.Scenarios[i] = g.Scenarios[i].withDefaults()
		if err := g.Scenarios[i].validate(); err != nil {
			return nil, err
		}
		if seen[g.Scenarios[i].Name] {
			return nil, fmt.Errorf("load: %s: duplicate scenario %q", path, g.Scenarios[i].Name)
		}
		seen[g.Scenarios[i].Name] = true
	}
	return &g, nil
}

// Smoke is the built-in short scenario `make ci` drives against a
// self-hosted server: every traffic class exercised, a handful of
// watchers, small enough to finish in seconds on a loaded CI box.
func Smoke() Scenario {
	return Scenario{
		Name:      "smoke",
		DurationS: 2,
		Rate:      200,
		Clients:   32,
		Watchers:  8,
	}.withDefaults()
}

// mixedClasses returns the scenario's active classes sorted by name, for
// deterministic weighted selection and reporting.
func (s Scenario) mixedClasses() []string {
	var out []string
	for class, w := range s.Mix {
		if w > 0 {
			out = append(out, class)
		}
	}
	sort.Strings(out)
	return out
}
