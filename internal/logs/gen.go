package logs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/topology"
)

// Hotspot elevates the rate of one event type within a physical component,
// producing the spatially concentrated anomalies that the paper's heat map
// view reveals (Fig 5-bottom: "MCE errors occurred abnormally high in some
// compute nodes").
type Hotspot struct {
	Component  topology.Component
	Type       model.EventType
	Multiplier float64 // rate multiplier for nodes inside the component
}

// Storm is a system-wide event burst, modeled on the Lustre incident of
// Fig 7: "tens of thousands of Lustre error messages ... afflicting most
// of compute nodes", all pointing at one unresponsive object storage
// target.
type Storm struct {
	Type         model.EventType
	Start        time.Time
	Duration     time.Duration
	NodeFraction float64 // fraction of nodes afflicted
	EventsPerSec float64 // aggregate events per second during the storm
	// Attrs are forced onto every storm event, e.g. the culprit OST id.
	Attrs map[string]string
}

// CausalRule emits an effect event after each cause event with some
// probability and lag. This injects the directed dependency that the
// transfer entropy analysis (Fig 7-top) must detect.
type CausalRule struct {
	Cause  model.EventType
	Effect model.EventType
	Prob   float64
	Lag    time.Duration
	Jitter time.Duration
}

// Config parameterizes the generator.
type Config struct {
	Seed  int64
	Start time.Time
	// Duration of the generated window.
	Duration time.Duration
	// BaseRates gives background event rates in events per node-hour.
	// Types absent from the map are not generated as background noise.
	BaseRates map[model.EventType]float64
	Hotspots  []Hotspot
	Storms    []Storm
	Causal    []CausalRule
	Jobs      JobConfig
	// Nodes restricts generation to the first N nodes of the machine
	// (0 = all of Titan). Smaller values keep unit tests fast while
	// preserving the topology addressing.
	Nodes int
	// Diurnal, in [0, 1), modulates background rates sinusoidally with a
	// 24-hour period peaking mid-afternoon — the load-correlated temporal
	// pattern real HPC logs show. Zero disables modulation.
	Diurnal float64
}

// diurnalWeight is the relative rate at time t: 1 + A·sin placed so the
// peak falls at 14:00 UTC.
func (c Config) diurnalWeight(t time.Time) float64 {
	if c.Diurnal <= 0 {
		return 1
	}
	dayFrac := float64(t.Unix()%86400) / 86400
	// Peak at 14:00 → phase shift so sin(...) = 1 at dayFrac = 14/24.
	return 1 + c.Diurnal*math.Sin(2*math.Pi*(dayFrac-14.0/24)+math.Pi/2)
}

// DefaultConfig returns a corpus configuration used by loggen,
// hpclogd -generate, tests and benchmarks: six hours of Titan
// operation with an MCE hotspot, a Lustre storm, and a Lustre→AppAbort
// causal chain.
func DefaultConfig() Config {
	start := time.Date(2017, 8, 23, 6, 0, 0, 0, time.UTC)
	return Config{
		Seed:     42,
		Start:    start,
		Duration: 6 * time.Hour,
		BaseRates: map[model.EventType]float64{
			model.MCE:         0.020,
			model.MemECC:      0.050,
			model.GPUFail:     0.002,
			model.GPUDBE:      0.004,
			model.Lustre:      0.030,
			model.DVS:         0.008,
			model.Network:     0.015,
			model.KernelPanic: 0.0005,
		},
		Hotspots: []Hotspot{
			{Component: topology.CabinetAt(12, 3), Type: model.MCE, Multiplier: 40},
			{Component: topology.CabinetAt(5, 6), Type: model.MemECC, Multiplier: 25},
		},
		Storms: []Storm{{
			Type:         model.Lustre,
			Start:        start.Add(3 * time.Hour),
			Duration:     5 * time.Minute,
			NodeFraction: 0.7,
			EventsPerSec: 120,
			Attrs:        map[string]string{"ost": "OST0012", "op": "ost_read", "errno": "-110"},
		}},
		Causal: []CausalRule{{
			Cause:  model.Lustre,
			Effect: model.AppAbort,
			Prob:   0.08,
			Lag:    30 * time.Second,
			Jitter: 20 * time.Second,
		}},
		Jobs: DefaultJobConfig(),
	}
}

// Corpus is the generator's output.
type Corpus struct {
	// Lines are raw log lines in chronological order (console, netwatch,
	// apsched facilities).
	Lines []RawLine
	// JobLines are raw job-log completion records.
	JobLines []string
	// Events is the ground truth event stream, chronological.
	Events []model.Event
	// Runs is the ground truth application run list.
	Runs []model.AppRun
}

// Generate produces a corpus from cfg. Output is deterministic for a
// given configuration.
func Generate(cfg Config) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := cfg.Nodes
	if nodes <= 0 || nodes > topology.TotalNodes {
		nodes = topology.TotalNodes
	}
	end := cfg.Start.Add(cfg.Duration)
	var events []model.Event

	// Background processes with hotspot weighting.
	hours := cfg.Duration.Hours()
	for _, typ := range model.EventTypes {
		rate := cfg.BaseRates[typ]
		if rate <= 0 {
			continue
		}
		sampler := newNodeSampler(nodes, typ, cfg.Hotspots)
		mean := rate * sampler.totalWeight * hours
		n := poisson(rng, mean)
		maxW := 1 + cfg.Diurnal
		for i := 0; i < n; i++ {
			at := cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
			// Thinning: accept the uniform candidate with probability
			// proportional to the diurnal weight.
			for cfg.Diurnal > 0 && rng.Float64()*maxW >= cfg.diurnalWeight(at) {
				at = cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.Duration)))
			}
			id := sampler.sample(rng)
			e := model.Event{
				Time:   at.Truncate(time.Second),
				Type:   typ,
				Source: topology.LocationOf(id).CName(),
				Count:  1,
			}
			fillAttrs(&e, rng)
			events = append(events, e)
		}
	}

	// Storms.
	for _, s := range cfg.Storms {
		n := int(s.EventsPerSec * s.Duration.Seconds())
		afflicted := int(float64(nodes) * s.NodeFraction)
		if afflicted < 1 {
			afflicted = 1
		}
		perm := rng.Perm(nodes)[:afflicted]
		for i := 0; i < n; i++ {
			at := s.Start.Add(time.Duration(rng.Float64() * float64(s.Duration)))
			id := topology.NodeID(perm[rng.Intn(afflicted)])
			e := model.Event{
				Time:   at.Truncate(time.Second),
				Type:   s.Type,
				Source: topology.LocationOf(id).CName(),
				Count:  1,
				Attrs:  make(map[string]string, len(s.Attrs)+4),
			}
			for k, v := range s.Attrs {
				e.Attrs[k] = v
			}
			fillAttrs(&e, rng)
			events = append(events, e)
		}
	}

	// Causal chains over everything generated so far.
	var effects []model.Event
	for _, rule := range cfg.Causal {
		for _, cause := range events {
			if cause.Type != rule.Cause || rng.Float64() >= rule.Prob {
				continue
			}
			lag := rule.Lag
			if rule.Jitter > 0 {
				lag += time.Duration(rng.Float64() * float64(rule.Jitter))
			}
			at := cause.Time.Add(lag)
			if at.After(end) {
				continue
			}
			e := model.Event{
				Time:   at.Truncate(time.Second),
				Type:   rule.Effect,
				Source: cause.Source,
				Count:  1,
			}
			fillAttrs(&e, rng)
			effects = append(effects, e)
		}
	}
	events = append(events, effects...)

	// Job scheduler: application runs plus failure-coupled aborts.
	runs, jobEvents := generateJobs(rng, cfg, nodes, events)
	events = append(events, jobEvents...)

	model.SortEvents(events)

	c := &Corpus{Events: events, Runs: runs}
	c.Lines = renderLines(events, rng)
	c.JobLines = renderJobLines(runs)
	return c
}

// nodeSampler draws node ids with hotspot-weighted probabilities.
type nodeSampler struct {
	nodes       int
	totalWeight float64
	// hot spans are [start, end) dense id ranges with weight > 1. Titan
	// components map to contiguous id ranges, which keeps sampling O(#hot).
	hot []hotSpan
}

type hotSpan struct {
	ids    []topology.NodeID
	weight float64
}

func newNodeSampler(nodes int, typ model.EventType, hotspots []Hotspot) *nodeSampler {
	s := &nodeSampler{nodes: nodes, totalWeight: float64(nodes)}
	for _, h := range hotspots {
		if h.Type != typ || h.Multiplier <= 1 {
			continue
		}
		var ids []topology.NodeID
		for _, id := range h.Component.Nodes() {
			if int(id) < nodes {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		s.hot = append(s.hot, hotSpan{ids: ids, weight: h.Multiplier - 1})
		s.totalWeight += float64(len(ids)) * (h.Multiplier - 1)
	}
	return s
}

func (s *nodeSampler) sample(rng *rand.Rand) topology.NodeID {
	x := rng.Float64() * s.totalWeight
	if x < float64(s.nodes) {
		return topology.NodeID(rng.Intn(s.nodes))
	}
	x -= float64(s.nodes)
	for _, h := range s.hot {
		span := float64(len(h.ids)) * h.weight
		if x < span {
			return h.ids[rng.Intn(len(h.ids))]
		}
		x -= span
	}
	return topology.NodeID(rng.Intn(s.nodes))
}

// poisson samples a Poisson variate; for large means it uses the normal
// approximation, which is fine at corpus scale.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 200 {
		n := int(mean + math.Sqrt(mean)*rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func renderLines(events []model.Event, rng *rand.Rand) []RawLine {
	lines := make([]RawLine, 0, len(events))
	for i := range events {
		e := &events[i]
		text := RenderText(*e, rng)
		e.Raw = text
		lines = append(lines, RawLine{
			Time:     e.Time,
			Source:   e.Source,
			Facility: facilityOf(e.Type),
			Text:     text,
		})
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].Time.Before(lines[j].Time) })
	return lines
}

func renderJobLines(runs []model.AppRun) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		status := "0"
		if !r.ExitOK {
			status = "1"
		}
		nodes := ""
		for j, n := range r.Nodes {
			if j > 0 {
				nodes += ","
			}
			nodes += n
		}
		out[i] = fmt.Sprintf("jobid=%s user=%s app=%s start=%d end=%d nodes=%s exit=%s",
			r.JobID, r.User, r.App, r.Start.Unix(), r.End.Unix(), nodes, status)
	}
	return out
}
