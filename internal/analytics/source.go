// Package analytics implements the big data processing unit of Section
// III: the heat map and distribution computations behind the physical
// system map (Fig 5), temporal histograms for the temporal map, event
// correlation via cross-correlation and transfer entropy (Fig 7-top), and
// the text analytics — word count and TF-IDF over raw Lustre messages —
// that surface the culprit component in a system-wide event (Fig
// 7-bottom).
//
// Every heavy computation is one partition-parallel scan on the compute
// engine: store partitions, cut into clustering-key time slices, are read
// as batches by a bounded pool of scan tasks and folded (or, for raw
// events, streamed) in task order. Each operation has one exported
// function, shared by the query engine and the core facade.
package analytics

import (
	"time"

	"hpclog/internal/model"
	"hpclog/internal/store"
)

// RunsIn returns all application runs that overlap [from, to), scanning
// the application_by_time partitions for the window plus a lookback for
// long-running jobs.
func RunsIn(db *store.DB, from, to time.Time, lookback time.Duration) ([]model.AppRun, error) {
	if lookback <= 0 {
		lookback = 24 * time.Hour
	}
	hours := model.HoursIn(from.Add(-lookback), to)
	var runs []model.AppRun
	for _, hour := range hours {
		rows, err := db.Get(model.TableAppByTime, model.AppByTimeKey(hour), store.Range{}, store.One)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			run, err := model.AppFromRow(r)
			if err != nil {
				return nil, err
			}
			if run.Start.Before(to) && run.End.After(from) {
				runs = append(runs, run)
			}
		}
	}
	return runs, nil
}
