package main

import (
	"slices"
	"sort"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

// corpusStart anchors every generated timestamp. It lies after any
// plausible run date on purpose: the watch hub's delivered-key window
// slides with the wall clock (now − 1 h), so rows stamped in the past
// would be dropped from a live subscription, and stamping rows with the
// wall clock would make the inputs differ from run to run. Nothing else
// in the system compares event time with the wall clock.
var corpusStart = time.Date(2100, 1, 4, 6, 0, 0, 0, time.UTC)

const (
	corpusCabinets = 2
	corpusHours    = 3
	// rateFactor multiplies logs.DefaultConfig's per-node-hour base rates
	// so 192 nodes over three hours produce a corpus worth scanning.
	rateFactor = 800
)

// corpusConfig is the base corpus every workload loads: two cabinets,
// three hours, one MCE hotspot, one five-minute Lustre storm, one
// Lustre→AppAbort causal rule, jobs of at most 128 nodes. scale shrinks
// the machine, and with it both the event count and the number of
// per-source partitions the store has to flush (the test runs at 1/50).
func corpusConfig(seed int64, scale float64) logs.Config {
	cfg := logs.DefaultConfig()
	cfg.Seed = seed
	cfg.Start = corpusStart
	cfg.Nodes = max(int(corpusCabinets*topology.NodesPerCabinet*scale), 8)
	cfg.Duration = corpusHours * time.Hour
	for typ := range cfg.BaseRates {
		cfg.BaseRates[typ] *= rateFactor
	}
	cfg.Hotspots = []logs.Hotspot{
		{Component: topology.CabinetAt(0, 1), Type: model.MCE, Multiplier: 8},
	}
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(90 * time.Minute),
		Duration:     5 * time.Minute,
		NodeFraction: 0.7,
		EventsPerSec: 80 * scale,
		Attrs:        map[string]string{"ost": "OST0012", "op": "ost_read", "errno": "-110"},
	}}
	cfg.Causal = []logs.CausalRule{{
		Cause: model.Lustre, Effect: model.AppAbort,
		Prob: 0.08, Lag: 30 * time.Second, Jitter: 20 * time.Second,
	}}
	cfg.Jobs.MaxNodes = min(128, cfg.Nodes)
	return cfg
}

type typeSource struct {
	typ model.EventType
	src string
}

// eventKey identifies one stored event: the store keeps a single row per
// (type, second, source), so the generator's duplicates collapse onto it.
type eventKey struct {
	typ model.EventType
	ts  int64
	src string
}

// corpus is the generated input plus the ground truth the oracle checks
// answers against.
type corpus struct {
	cfg   logs.Config
	lines []string // raw console lines, chronological
	jobs  []string // raw job-log lines
	runs  []model.AppRun
	// stored is the number of distinct (type, second, source) keys: the
	// store keeps one event_by_time row per key, so this — not the raw
	// line count — is what a full scan returns.
	stored int
	// times holds, per event type, the sorted unix seconds of the distinct
	// stored rows; bySource the same per source (over all types), and
	// byTypeSource per (type, source) pair.
	times        map[model.EventType][]int64
	bySource     map[string][]int64
	byTypeSource map[typeSource][]int64
	// sources lists the sources that emitted anything, busiest first.
	sources []string
}

func generateCorpus(seed int64, scale float64) *corpus {
	cfg := corpusConfig(seed, scale)
	g := logs.Generate(cfg)
	c := &corpus{
		cfg:          cfg,
		lines:        make([]string, len(g.Lines)),
		jobs:         g.JobLines,
		runs:         g.Runs,
		times:        make(map[model.EventType][]int64),
		bySource:     make(map[string][]int64),
		byTypeSource: make(map[typeSource][]int64),
	}
	for i, l := range g.Lines {
		c.lines[i] = l.Format()
	}
	seen := make(map[eventKey]bool, len(g.Events))
	for _, e := range g.Events {
		k := eventKey{e.Type, e.Time.Unix(), e.Source}
		if seen[k] {
			continue
		}
		seen[k] = true
		c.times[k.typ] = append(c.times[k.typ], k.ts)
		c.bySource[k.src] = append(c.bySource[k.src], k.ts)
		ts := typeSource{k.typ, k.src}
		c.byTypeSource[ts] = append(c.byTypeSource[ts], k.ts)
	}
	c.stored = len(seen)
	for _, ts := range c.times {
		slices.Sort(ts)
	}
	for _, ts := range c.byTypeSource {
		slices.Sort(ts)
	}
	for src, ts := range c.bySource {
		slices.Sort(ts)
		c.sources = append(c.sources, src)
	}
	sort.Slice(c.sources, func(i, j int) bool {
		a, b := c.sources[i], c.sources[j]
		if len(c.bySource[a]) != len(c.bySource[b]) {
			return len(c.bySource[a]) > len(c.bySource[b])
		}
		return a < b
	})
	return c
}

// countIn returns how many of the sorted timestamps fall in [from, to).
func countIn(ts []int64, from, to int64) int {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] >= to })
	return hi - lo
}

// typeCount is the ground-truth row count of one event type in a window.
func (c *corpus) typeCount(typ model.EventType, from, to int64) int {
	return countIn(c.times[typ], from, to)
}

// sourceCount is the ground-truth row count of one source in a window:
// event_by_location keys a source's rows by (second, type), so its rows
// are exactly the distinct keys bySource holds.
func (c *corpus) sourceCount(src string, from, to int64) int {
	return countIn(c.bySource[src], from, to)
}

// runsOverlapping is the ground-truth count of application runs that
// overlap [from, to).
func (c *corpus) runsOverlapping(from, to int64) int {
	n := 0
	for _, r := range c.runs {
		if r.Start.Unix() < to && r.End.Unix() > from {
			n++
		}
	}
	return n
}
