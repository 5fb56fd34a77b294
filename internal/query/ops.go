package query

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/profile"
	"hpclog/internal/topology"
)

// op declares one operation: its routing class, the request fields it
// requires and how it runs.
type op struct {
	// bigData routes the op to the big data processing unit (a
	// partition-parallel scan, its result cached); otherwise the store
	// serves it directly.
	bigData bool
	// needs are checked in order before run.
	needs []need
	run   func(q *Engine, r Request) (any, error)
}

// exec runs req once it has everything the op needs.
func (o op) exec(q *Engine, req Request) (any, error) {
	for _, n := range o.needs {
		if err := n(req); err != nil {
			return nil, err
		}
	}
	return o.run(q, req)
}

// A need is a request field an op requires: it returns the error of a
// request that lacks it.
type need func(Request) error

func hasType(r Request) error {
	if r.Context.EventType == "" {
		return fmt.Errorf("query: op %q requires context.event_type", r.Op)
	}
	return nil
}

func hasWindow(r Request) error {
	if r.Context.To <= r.Context.From {
		return fmt.Errorf("query: op %q requires a non-empty [from, to) window", r.Op)
	}
	return nil
}

func hasSecondType(r Request) error {
	if r.SecondType == "" {
		return fmt.Errorf("query: transfer_entropy requires second_type")
	}
	return nil
}

func hasSource(r Request) error {
	if r.Context.Source == "" {
		return fmt.Errorf("query: nodeinfo requires context.source (a cabinet cname)")
	}
	return nil
}

func hasApp(r Request) error {
	if r.Context.App == "" {
		return fmt.Errorf("query: run_report requires context.app (and optionally the jobid via context.user)")
	}
	return nil
}

// levels are the distribution levels of the floor; "app" is the other.
var levels = map[string]topology.Level{
	"": topology.LevelCabinet, "cabinet": topology.LevelCabinet,
	"cage": topology.LevelCage, "blade": topology.LevelBlade, "node": topology.LevelNode,
}

func hasLevel(r Request) error {
	if _, ok := levels[r.Level]; !ok && r.Level != "app" {
		return fmt.Errorf("query: unknown distribution level %q", r.Level)
	}
	return nil
}

var (
	typeWindow = []need{hasType, hasWindow}
	window     = []need{hasWindow}
)

// ops declares every operation the engine supports.
var ops = map[Op]op{
	OpTypes:    {run: (*Engine).types},
	OpNodeInfo: {needs: []need{hasSource}, run: (*Engine).nodeInfo},
	OpEvents:   {needs: window, run: (*Engine).events},
	OpRuns: {needs: []need{func(r Request) error {
		if r.Context.User == "" && r.Context.App == "" {
			return hasWindow(r)
		}
		return nil
	}}, run: (*Engine).runs},
	OpSynopsis: {needs: []need{hasType}, run: (*Engine).synopsis},
	OpPlacement: {run: func(q *Engine, r Request) (any, error) {
		return analytics.Placement(q.db, time.Unix(r.At, 0).UTC())
	}},

	OpSites: {bigData: true, needs: []need{hasType}, run: func(q *Engine, r Request) (any, error) {
		at := time.Unix(r.At, 0).UTC()
		sites, err := analytics.SitesFold.Scan(q.compute, q.db, r.typ(), at, at.Add(time.Second), analytics.ScanConfig{})
		return sites.Map(), err
	}},
	OpHeatmap: {bigData: true, needs: typeWindow, run: func(q *Engine, r Request) (any, error) {
		return fold(q, r, analytics.HeatmapFold, func(counts []int) *analytics.HeatMap {
			from, to := r.Context.Window()
			return analytics.NewHeatMap(r.typ(), from, to, counts)
		})
	}},
	OpDistribution: {bigData: true, needs: []need{hasType, hasWindow, hasLevel}, run: func(q *Engine, r Request) (any, error) {
		if r.Level != "app" {
			return fold(q, r, analytics.DistributionFold(levels[r.Level]), func(c analytics.LocCounts) []analytics.Bucket {
				return first(c.Buckets(), r.topK())
			})
		}
		from, to := r.Context.Window()
		runs, err := analytics.RunsIn(q.db, from, to, 24*time.Hour)
		if err != nil {
			return nil, err
		}
		return fold(q, r, analytics.AppDistributionFold(runs), func(c analytics.AppCounts) []analytics.Bucket {
			return first(c.Buckets(), r.topK())
		})
	}},
	OpHistogram: {bigData: true, needs: typeWindow, run: func(q *Engine, r Request) (any, error) {
		from, to := r.Context.Window()
		h, err := analytics.HistogramFold(from, to, r.bin())
		if err != nil {
			return nil, err
		}
		return fold(q, r, h, analytics.BinCounts.Counts)
	}},
	OpTE: {bigData: true, needs: []need{hasType, hasSecondType, hasWindow}, run: func(q *Engine, r Request) (any, error) {
		from, to := r.Context.Window()
		h, err := analytics.HistogramFold(from, to, r.bin())
		if err != nil {
			return nil, err
		}
		x, err := scan(q, r, h, r.typ())
		if err != nil {
			return nil, err
		}
		y, err := scan(q, r, h, model.EventType(r.SecondType))
		if err != nil {
			return nil, err
		}
		te, err := analytics.TransferEntropyBetween(x.Counts(), y.Counts())
		if err != nil {
			return nil, err
		}
		return TEResponse{First: r.Context.EventType, Second: r.SecondType,
			TEForward: te.XToY, TEReverse: te.YToX, Direction: te.Direction(0)}, nil
	}},
	OpWordCount: {bigData: true, needs: typeWindow, run: func(q *Engine, r Request) (any, error) {
		return fold(q, r, analytics.TextFold, func(v *analytics.Vocabulary) []WordCountEntry {
			counts := v.WordCounts()
			out := make([]WordCountEntry, 0, len(counts))
			for term, c := range counts {
				out = append(out, WordCountEntry{Term: term, Count: c})
			}
			return analytics.TopK(out, r.topK(), func(a, b WordCountEntry) int {
				return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Term, b.Term))
			})
		})
	}},
	OpTFIDF: {bigData: true, needs: typeWindow, run: func(q *Engine, r Request) (any, error) {
		return fold(q, r, analytics.TextFold, func(v *analytics.Vocabulary) []analytics.TermScore {
			return v.TopTerms(r.topK())
		})
	}},

	// The Section V roadmap: event mining (rules, sequences, episodes),
	// application profiles and reliability statistics.
	OpRules: {bigData: true, needs: window, run: func(q *Engine, r Request) (any, error) {
		events, err := q.allEvents(r)
		if err != nil {
			return nil, err
		}
		return mining.MineRules(events, r.bin(), 0.01, 0.2)
	}},
	OpSequences: {bigData: true, needs: window, run: func(q *Engine, r Request) (any, error) {
		events, err := q.allEvents(r)
		if err != nil {
			return nil, err
		}
		return mining.MineSequences(events, r.bin(), 5, true)
	}},
	OpEpisodes: {bigData: true, needs: []need{hasWindow, hasType}, run: func(q *Engine, r Request) (any, error) {
		from, to := r.Context.Window()
		events, err := analytics.EventsByTypeScan(q.compute, q.db, r.typ(), from, to, analytics.ScanConfig{})
		if err != nil {
			return nil, err
		}
		return mining.Coalesce(events, r.bin(), false), nil
	}},
	OpProfiles: {bigData: true, needs: window, run: func(q *Engine, r Request) (any, error) {
		events, runs, err := q.eventsAndRuns(r)
		if err != nil {
			return nil, err
		}
		profiles := profile.Build(events, runs)
		if r.Context.EventType != "" {
			return profile.Compare(profiles, r.typ()), nil
		}
		return profiles, nil
	}},
	OpRunReport: {bigData: true, needs: []need{hasWindow, hasApp}, run: func(q *Engine, r Request) (any, error) {
		events, runs, err := q.eventsAndRuns(r)
		if err != nil {
			return nil, err
		}
		prof := profile.Build(events, runs)[r.Context.App]
		if prof == nil {
			return nil, fmt.Errorf("query: no runs of application %q in window", r.Context.App)
		}
		var reports []profile.RunReport
		for _, run := range runs {
			if run.App != r.Context.App {
				continue
			}
			report, err := profile.Evaluate(run, events, prof, 3)
			if err != nil {
				return nil, err
			}
			reports = append(reports, report)
		}
		return reports, nil
	}},
	OpReliability: {bigData: true, needs: window, run: func(q *Engine, r Request) (any, error) {
		events, err := q.allEvents(r)
		if err != nil {
			return nil, err
		}
		stats, err := analytics.Interarrivals(events, nil)
		if err != nil {
			return nil, err
		}
		ranked, err := analytics.FailuresByComponent(events, nil, topology.LevelCabinet)
		if err != nil {
			return nil, err
		}
		return struct {
			Stats      analytics.InterarrivalStats   `json:"stats"`
			TopFailing []analytics.ComponentFailures `json:"top_failing"`
		}{stats, first(ranked, r.topK())}, nil
	}},
}

// scan runs f over the events of typ in the request's window.
func scan[A any](q *Engine, r Request, f analytics.Fold[A], typ model.EventType) (A, error) {
	from, to := r.Context.Window()
	return f.Scan(q.compute, q.db, typ, from, to, analytics.ScanConfig{})
}

// fold runs f over the request's event type and window and answers what
// answer makes of the accumulator.
func fold[A, R any](q *Engine, r Request, f analytics.Fold[A], answer func(A) R) (any, error) {
	acc, err := scan(q, r, f, r.typ())
	if err != nil {
		return nil, err
	}
	return answer(acc), nil
}

// first returns the first k of s, or all of s when it is shorter.
func first[T any](s []T, k int) []T { return s[:min(len(s), k)] }

// allEvents reads the events of every type in the request's window.
func (q *Engine) allEvents(r Request) ([]model.Event, error) {
	from, to := r.Context.Window()
	return analytics.EventsAllTypesScan(q.compute, q.db, from, to, analytics.ScanConfig{})
}

// eventsAndRuns reads the events of every type and the application runs
// in the request's window — once for both a profile and the runs it
// judges.
func (q *Engine) eventsAndRuns(r Request) ([]model.Event, []model.AppRun, error) {
	events, err := q.allEvents(r)
	if err != nil {
		return nil, nil, err
	}
	from, to := r.Context.Window()
	runs, err := analytics.RunsIn(q.db, from, to, 24*time.Hour)
	return events, runs, err
}
