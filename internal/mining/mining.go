// Package mining implements the event mining extensions the paper plans
// in Section V: "new and composite event types will need to be defined for
// capturing the complete status of the system. This will involve event
// mining techniques rather than text pattern matching."
//
// It provides three mining primitives over event streams:
//
//   - Coalesce: time coalescing of bursts into episodes (the technique of
//     the paper's related work [17], Di Martino et al., DSN 2012);
//   - MineRules: association rules between event types co-occurring in
//     time windows (reference [1], support/confidence/lift);
//   - MineSequences: directed A-followed-by-B patterns with lag statistics,
//     the building block for failure precursors.
package mining

import (
	"fmt"
	"sort"
	"time"

	"hpclog/internal/model"
)

// Episode is a coalesced run of related events.
type Episode struct {
	Type  model.EventType
	Start time.Time
	End   time.Time
	// Count is the number of raw occurrences absorbed.
	Count int
	// Sources lists the distinct reporting components, sorted.
	Sources []string
}

// Coalesce merges events of the same type whose interarrival gap is at
// most window into episodes. If perSource is true, events only merge when
// they also share a source — the per-component tupling used for single
// failing parts — otherwise a system-wide storm collapses into one
// episode regardless of source. Input order does not matter.
func Coalesce(events []model.Event, window time.Duration, perSource bool) []Episode {
	if len(events) == 0 {
		return nil
	}
	sorted := make([]model.Event, len(events))
	copy(sorted, events)
	model.SortEvents(sorted)

	type groupKey struct {
		typ    model.EventType
		source string
	}
	open := make(map[groupKey]*Episode)
	srcSets := make(map[groupKey]map[string]bool)
	var done []Episode
	for _, e := range sorted {
		k := groupKey{typ: e.Type}
		if perSource {
			k.source = e.Source
		}
		ep := open[k]
		if ep != nil && e.Time.Sub(ep.End) > window {
			done = append(done, finishEpisode(*ep, srcSets[k]))
			ep = nil
		}
		if ep == nil {
			open[k] = &Episode{Type: e.Type, Start: e.Time, End: e.Time, Count: 0}
			srcSets[k] = make(map[string]bool)
			ep = open[k]
		}
		if e.Time.After(ep.End) {
			ep.End = e.Time
		}
		ep.Count += max(1, e.Count)
		srcSets[k][e.Source] = true
	}
	for k, ep := range open {
		done = append(done, finishEpisode(*ep, srcSets[k]))
	}
	sort.Slice(done, func(i, j int) bool {
		if !done[i].Start.Equal(done[j].Start) {
			return done[i].Start.Before(done[j].Start)
		}
		return done[i].Type < done[j].Type
	})
	return done
}

func finishEpisode(ep Episode, sources map[string]bool) Episode {
	ep.Sources = make([]string, 0, len(sources))
	for s := range sources {
		ep.Sources = append(ep.Sources, s)
	}
	sort.Strings(ep.Sources)
	return ep
}

// Rule is one association rule Antecedent ⇒ Consequent over time windows.
type Rule struct {
	Antecedent model.EventType
	Consequent model.EventType
	// Support is P(A ∧ B): the fraction of windows containing both.
	Support float64
	// Confidence is P(B | A).
	Confidence float64
	// Lift is confidence / P(B); > 1 means positive association.
	Lift float64
	// Windows is the number of windows containing both types.
	Windows int
}

// String implements fmt.Stringer.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (supp %.3f, conf %.2f, lift %.1f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// MineRules bins events into fixed windows, forms the per-window set of
// event types, and emits all pairwise rules meeting the support and
// confidence thresholds, sorted by descending lift.
func MineRules(events []model.Event, window time.Duration, minSupport, minConfidence float64) ([]Rule, error) {
	if window <= 0 {
		return nil, fmt.Errorf("mining: non-positive window %v", window)
	}
	if len(events) == 0 {
		return nil, nil
	}
	// Window id -> set of types present.
	windows := make(map[int64]map[model.EventType]bool)
	minBin, maxBin := int64(1<<62), int64(-1<<62)
	for _, e := range events {
		bin := e.Time.UnixNano() / int64(window)
		if windows[bin] == nil {
			windows[bin] = make(map[model.EventType]bool)
		}
		windows[bin][e.Type] = true
		if bin < minBin {
			minBin = bin
		}
		if bin > maxBin {
			maxBin = bin
		}
	}
	// Count empty windows too: support is relative to the whole span.
	total := float64(maxBin - minBin + 1)
	single := make(map[model.EventType]int)
	pair := make(map[[2]model.EventType]int)
	for _, types := range windows {
		var list []model.EventType
		for t := range types {
			list = append(list, t)
			single[t]++
		}
		for i := 0; i < len(list); i++ {
			for j := 0; j < len(list); j++ {
				if i != j {
					pair[[2]model.EventType{list[i], list[j]}]++
				}
			}
		}
	}
	var rules []Rule
	for p, n := range pair {
		support := float64(n) / total
		if support < minSupport {
			continue
		}
		conf := float64(n) / float64(single[p[0]])
		if conf < minConfidence {
			continue
		}
		pB := float64(single[p[1]]) / total
		rules = append(rules, Rule{
			Antecedent: p[0], Consequent: p[1],
			Support: support, Confidence: conf, Lift: conf / pB,
			Windows: n,
		})
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Lift != rules[j].Lift {
			return rules[i].Lift > rules[j].Lift
		}
		if rules[i].Antecedent != rules[j].Antecedent {
			return rules[i].Antecedent < rules[j].Antecedent
		}
		return rules[i].Consequent < rules[j].Consequent
	})
	return rules, nil
}

// SeqPattern is a directed temporal pattern: occurrences of First followed
// by Then within the mining lag bound.
type SeqPattern struct {
	First model.EventType
	Then  model.EventType
	// Count is the number of First occurrences followed by a Then.
	Count int
	// Prob is Count / occurrences(First).
	Prob float64
	// MedianLag is the median First→Then delay among matches.
	MedianLag time.Duration
}

// MineSequences finds, for every ordered type pair, how often an
// occurrence of the first type is followed by the second within delta,
// and the median lag. When sameSource is true only followers on the same
// component count — the per-node error-propagation view, which suppresses
// coincidental machine-wide background. Patterns with fewer than minCount
// matches are dropped; results sort by descending probability.
func MineSequences(events []model.Event, delta time.Duration, minCount int, sameSource bool) ([]SeqPattern, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("mining: non-positive delta %v", delta)
	}
	sorted := make([]model.Event, len(events))
	copy(sorted, events)
	model.SortEvents(sorted)

	occurrences := make(map[model.EventType]int)
	for _, e := range sorted {
		occurrences[e.Type]++
	}
	type key struct{ a, b model.EventType }
	lags := make(map[key][]time.Duration)
	// For each event, scan forward within delta. Sorted input bounds the
	// inner scan by the number of events in the delta horizon.
	for i, e := range sorted {
		seen := make(map[model.EventType]bool)
		for j := i + 1; j < len(sorted); j++ {
			lag := sorted[j].Time.Sub(e.Time)
			if lag > delta {
				break
			}
			if sameSource && sorted[j].Source != e.Source {
				continue
			}
			b := sorted[j].Type
			if b == e.Type || seen[b] {
				continue // count only the first follower of each type
			}
			seen[b] = true
			lags[key{e.Type, b}] = append(lags[key{e.Type, b}], lag)
		}
	}
	var out []SeqPattern
	for k, ls := range lags {
		if len(ls) < minCount {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		out = append(out, SeqPattern{
			First: k.a, Then: k.b,
			Count:     len(ls),
			Prob:      float64(len(ls)) / float64(occurrences[k.a]),
			MedianLag: ls[len(ls)/2],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Then < out[j].Then
	})
	return out, nil
}
