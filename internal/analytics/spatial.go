package analytics

import (
	"sort"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// HeatMap is the per-cabinet occurrence density of one event type over a
// time interval, rendered onto the physical system map (Fig 5-bottom).
type HeatMap struct {
	Type model.EventType
	From time.Time
	To   time.Time
	// Counts is indexed [row][col] on the machine-room floor grid.
	Counts [25][8]int
	Total  int
	Max    int
}

// HotCabinets returns cabinets whose count exceeds factor × the mean of
// non-zero cabinets — the "unusually higher in some parts of the system"
// signal the heat map view exists to surface.
func (h *HeatMap) HotCabinets(factor float64) []topology.Component {
	nonZero, sum := 0, 0
	for r := 0; r < topology.Rows; r++ {
		for c := 0; c < topology.Cols; c++ {
			if h.Counts[r][c] > 0 {
				nonZero++
				sum += h.Counts[r][c]
			}
		}
	}
	if nonZero == 0 {
		return nil
	}
	mean := float64(sum) / float64(nonZero)
	var hot []topology.Component
	for r := 0; r < topology.Rows; r++ {
		for c := 0; c < topology.Cols; c++ {
			if float64(h.Counts[r][c]) > factor*mean {
				hot = append(hot, topology.CabinetAt(r, c))
			}
		}
	}
	return hot
}

// Bucket is one bar of a distribution.
type Bucket struct {
	Label string
	Count int
}

func truncateLoc(l topology.Location, level topology.Level) topology.Location {
	switch level {
	case topology.LevelCabinet:
		return topology.Location{Row: l.Row, Col: l.Col}
	case topology.LevelCage:
		return topology.Location{Row: l.Row, Col: l.Col, Cage: l.Cage}
	case topology.LevelBlade:
		return topology.Location{Row: l.Row, Col: l.Col, Cage: l.Cage, Slot: l.Slot}
	default:
		return l
	}
}

func sortBuckets(counts map[string]int) []Bucket {
	out := make([]Bucket, 0, len(counts))
	for k, v := range counts {
		out = append(out, Bucket{Label: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Placement reports where the applications running at a given instant
// were placed (Fig 6-bottom): app name per node.
func Placement(db *store.DB, at time.Time) (map[string]string, error) {
	runs, err := RunsIn(db, at, at.Add(time.Second), 24*time.Hour)
	if err != nil {
		return nil, err
	}
	placement := make(map[string]string)
	for _, r := range runs {
		if at.Before(r.Start) || !at.Before(r.End) {
			continue
		}
		for _, n := range r.Nodes {
			placement[n] = r.App
		}
	}
	return placement, nil
}
