// Package analytics implements the big data processing unit of Section
// III: the heat map and distribution computations behind the physical
// system map (Fig 5), temporal histograms for the temporal map, event
// correlation via cross-correlation and transfer entropy (Fig 7-top), and
// the text analytics — word count and TF-IDF over raw Lustre messages —
// that surface the culprit component in a system-wide event (Fig
// 7-bottom).
//
// All heavy computations are expressed as jobs on the compute engine, with
// each store partition read by a task placed on the co-located worker.
package analytics

import (
	"context"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// estRowBytes is a rough per-row size estimate used for locality pricing.
const estRowBytes = 160

// hourly plans an events scan with one task per hour: one dataset
// partition per store partition.
var hourly = ScanConfig{Slice: time.Hour}

// EventsByType builds a dataset of all events of one type within
// [from, to), one partition per hour bucket, each preferring its primary
// storage node.
func EventsByType(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time) *compute.Dataset[model.Event] {
	return eventDataset(eng, db, PlanEvents(typ, "", from, to, hourly), estRowBytes*256)
}

// EventsBySource builds a dataset of all events reported by one component
// within [from, to), using the event_by_location table.
func EventsBySource(eng *compute.Engine, db *store.DB, source string, from, to time.Time) *compute.Dataset[model.Event] {
	return eventDataset(eng, db, PlanEvents("", source, from, to, hourly), estRowBytes*64)
}

// EventsAllTypes builds a dataset over every event type within [from, to),
// one partition per (hour, type) pair.
func EventsAllTypes(eng *compute.Engine, db *store.DB, from, to time.Time) *compute.Dataset[model.Event] {
	byType := make([][]EventTask, len(model.EventTypes))
	for i, typ := range model.EventTypes {
		byType[i] = PlanEvents(typ, "", from, to, hourly)
	}
	var tasks []EventTask
	for hour := range byType[0] {
		for i := range byType {
			tasks = append(tasks, byType[i][hour])
		}
	}
	return eventDataset(eng, db, tasks, estRowBytes*256)
}

// eventDataset makes each single-partition task of an events scan a
// dataset partition that prefers the partition's primary storage node.
func eventDataset(eng *compute.Engine, db *store.DB, tasks []EventTask, sizeHint int) *compute.Dataset[model.Event] {
	parts := make([]compute.Partition[model.Event], len(tasks))
	for i, t := range tasks {
		_, pkeys, _ := t.partitions()
		parts[i] = compute.Partition[model.Event]{
			Index:     i,
			Preferred: db.PrimaryFor(pkeys[0]),
			SizeHint:  sizeHint,
			Compute: func() ([]model.Event, error) {
				var events []model.Event
				err := t.Run(context.TODO(), db, func(r *EventRow) error {
					events = append(events, r.Event())
					return nil
				})
				return events, err
			},
		}
	}
	return compute.FromPartitions(eng, parts)
}

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
