// Package ingest implements the batch import of Section III-D: the
// traditional ETL procedure — collocate, parse with the per-type line
// scanners (package parse), bulk upload — parallelized over the compute
// engine. Live writes arrive as /v1 CQL INSERTs instead.
//
// Every load goes the same way: rows are bucketed by store partition
// (batches), each bucket is sorted by clustering key, and each leaves as
// ONE PutBatch — which the store's memtable appends rather than merges,
// and which crosses the flush threshold at most once; a bucket of a flush
// threshold's rows or more is written by each replica as a segment of its
// own, with no commitlog record. An event is one
// row, of event_by_time: the paper's second, per-component copy (Fig 1)
// is a source read of that table (analytics.PlanEvents), so no load
// writes it and a CQL INSERT is every reader's event at once.
package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/parse"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Loader writes model records into the backend tables.
type Loader struct {
	DB *store.DB
	// CL is the write consistency level (default Quorum).
	CL store.Consistency
	// TolerateUnavailable skips partitions whose replica set has no live
	// member instead of failing the load. Cluster bootstrap sets it: a
	// node booting before its peers cannot write shards it does not own,
	// and does not need to — every peer runs the same bootstrap, so each
	// shard is seeded by its own owner when that owner boots.
	TolerateUnavailable bool
}

// putBatch writes one partition at the loader's consistency level,
// optionally tolerating an unavailable replica set.
func (l *Loader) putBatch(table, pkey string, rows []store.Row) error {
	err := l.DB.PutBatch(table, pkey, rows, l.CL)
	if err != nil && l.TolerateUnavailable && errors.Is(err, store.ErrUnavailable) {
		return nil
	}
	return err
}

// NewLoader returns a loader writing at Quorum.
func NewLoader(db *store.DB) *Loader { return &Loader{DB: db, CL: store.Quorum} }

// Bootstrap creates the seven tables of the data model and loads the
// static nodeinfos and eventtypes tables.
func Bootstrap(db *store.DB, nodes int) error {
	return BootstrapCL(db, nodes, store.Quorum)
}

// BootstrapCL is Bootstrap at an explicit consistency level. A cluster
// node boots at One: its peers may all be down when it starts, and the
// reference data it seeds is identical on every node anyway — replication
// hints and anti-entropy converge the copies once peers appear.
func BootstrapCL(db *store.DB, nodes int, cl store.Consistency) error {
	for _, t := range model.AllTables {
		if err := db.CreateTable(t); err != nil {
			return err
		}
	}
	// Tolerate unavailable shards: bootstrap seeds identical reference
	// data on every process, so a shard whose owners are not up yet is
	// seeded by its own owner when that owner boots.
	l := &Loader{DB: db, CL: cl, TolerateUnavailable: true}
	if err := l.LoadNodeInfos(nodes); err != nil {
		return err
	}
	return l.LoadEventTypes()
}

// LoadNodeInfos populates the nodeinfos table with the first n nodes of
// the Titan topology (0 = whole machine). Partitions are per cabinet so a
// cabinet's nodes are one range scan.
func (l *Loader) LoadNodeInfos(n int) error {
	if n <= 0 || n > topology.TotalNodes {
		n = topology.TotalNodes
	}
	byCabinet := make(batches)
	for id := 0; id < n; id++ {
		info := topology.Info(topology.NodeID(id))
		byCabinet.add(model.TableNodeInfos, fmt.Sprintf("c%d-%d", info.Loc.Col, info.Loc.Row), store.MapRow(info.CName, 0, map[string]string{
			"id":     strconv.Itoa(int(info.ID)),
			"gemini": strconv.Itoa(info.Gemini),
			"pair":   strconv.Itoa(int(info.PairNode)),
			"nic":    info.NIC,
			"cpu":    info.Spec.CPUModel,
			"gpu":    info.Spec.GPUModel,
		}))
	}
	return l.load(byCabinet)
}

// LoadEventTypes populates the eventtypes catalog table (single
// partition; the catalog is tiny).
func (l *Loader) LoadEventTypes() error {
	catalog := make(batches)
	for _, et := range model.EventTypes {
		catalog.add(model.TableEventTypes, "all", store.MapRow(string(et), 0,
			map[string]string{"description": model.TypeDescriptions[et]}))
	}
	return l.load(catalog)
}

// batches buckets rows by the store partition they belong to, in arrival
// order.
type batches map[partKey][]store.Row

type partKey struct{ table, pkey string }

func (b batches) add(table, pkey string, r store.Row) {
	k := partKey{table, pkey}
	b[k] = append(b[k], r)
}

// addEvent buckets the event's one row, for event_by_time: a component's
// events are a source read of it, not a second copy (package model).
func (b batches) addEvent(e model.Event) {
	b.add(model.TableEventByTime, model.EventByTimeKey(e.Hour(), e.Type), model.EventToTimeRow(e))
}

// addRun buckets the run's rows for the three denormalized views of Fig 2.
func (b batches) addRun(r model.AppRun) {
	b.add(model.TableAppByTime, model.AppByTimeKey(r.Hour()), model.AppToTimeRow(r))
	b.add(model.TableAppByLoc, model.AppByNameKey(r.App), model.AppToNameRow(r))
	b.add(model.TableAppByUser, model.AppByUserKey(r.User), model.AppToUserRow(r))
}

// largestFirst lists the buckets by falling size (ties by name, so a
// serial load stamps the same write timestamps every time): the long
// writes start first and the pool drains evenly.
func (b batches) largestFirst() []partKey {
	keys := make([]partKey, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y partKey) int {
		return cmp.Or(cmp.Compare(len(b[y]), len(b[x])), strings.Compare(x.table, y.table), strings.Compare(x.pkey, y.pkey))
	})
	return keys
}

// write sends one bucket to the store as one batch in clustering-key
// order. The sort is stable, so of two rows with one key the later
// arrival is stamped last and wins.
func (l *Loader) write(k partKey, rows []store.Row) error {
	slices.SortStableFunc(rows, func(a, b store.Row) int { return strings.Compare(a.Key, b.Key) })
	return l.putBatch(k.table, k.pkey, rows)
}

// load writes every bucket from the calling goroutine.
func (l *Loader) load(b batches) error {
	for _, k := range b.largestFirst() {
		if err := l.write(k, b[k]); err != nil {
			return err
		}
	}
	return nil
}

// LoadEvents writes events into both event tables, one batch per
// partition.
func (l *Loader) LoadEvents(events []model.Event) error {
	b := make(batches)
	for _, e := range events {
		b.addEvent(e)
	}
	return l.load(b)
}

// LoadRuns writes application runs into their three views, one batch per
// partition.
func (l *Loader) LoadRuns(runs []model.AppRun) error {
	b := make(batches)
	for _, r := range runs {
		b.addRun(r)
	}
	return l.load(b)
}

// BatchResult summarizes a batch import.
type BatchResult struct {
	parse.Result
	EventsLoaded int
	RunsLoaded   int
}

// importChunk is the number of lines a bulk load parses and holds as rows
// before it writes them out: large enough that a corpus of a few hundred
// thousand lines is one chunk — every partition written exactly once —
// and small enough that an arbitrarily large file is loaded in bounded
// memory.
const importChunk = 1 << 18

// chunkLines is importChunk, lowered by tests to straddle chunk
// boundaries with a small corpus.
var chunkLines = importChunk

// shard is what one parse task produces and what the tasks of a chunk
// merge into, in line order.
type shard struct {
	b   batches
	res parse.Result
}

// bulkLoad is the parallel ETL of Section III-D. Per chunk of lines:
// nparts shards are parsed in parallel on eng's pool, each bucketing its
// rows straight into per-partition batches; the shards' buckets are
// concatenated in line order; then every partition is sorted and written
// as one batch, largest first, on the same pool. parseInto turns one line
// into rows of b or reports why it cannot.
func (l *Loader) bulkLoad(eng *compute.Engine, lines []string, nparts int, parseInto func(b batches, line string) error) (parse.Result, error) {
	var total parse.Result
	for len(lines) > 0 {
		chunk := lines[:min(chunkLines, len(lines))]
		lines = lines[len(chunk):]
		n := min(max(nparts, 1), len(chunk))
		parsers := make([]compute.FoldTask[*shard], 0, n)
		for i := 0; i < n; i++ {
			part := chunk[i*len(chunk)/n : (i+1)*len(chunk)/n]
			parsers = append(parsers, func(s *shard) (*shard, int, error) {
				for _, line := range part {
					switch err := parseInto(s.b, line); {
					case err == nil:
						s.res.Parsed++
					case errors.Is(err, parse.ErrNoMatch):
						s.res.Unmatched++
					default:
						s.res.Malformed++
					}
				}
				return s, len(part), nil
			})
		}
		all, err := compute.ScanFold(eng, parsers,
			func() *shard { return &shard{b: make(batches)} },
			func(all, s *shard) *shard {
				addResult(&all.res, s.res)
				for k, rows := range s.b {
					if cur := all.b[k]; cur != nil {
						rows = append(cur, rows...)
					}
					all.b[k] = rows
				}
				return all
			})
		if err != nil {
			return total, err
		}
		keys := all.b.largestFirst()
		writers := make([]compute.FoldTask[struct{}], len(keys))
		for i, k := range keys {
			writers[i] = func(struct{}) (struct{}, int, error) {
				return struct{}{}, len(all.b[k]), l.write(k, all.b[k])
			}
		}
		_, err = compute.ScanFold(eng, writers,
			func() struct{} { return struct{}{} }, func(a, _ struct{}) struct{} { return a })
		if err != nil {
			return total, err
		}
		addResult(&total, all.res)
	}
	return total, nil
}

func addResult(sum *parse.Result, r parse.Result) {
	sum.Parsed += r.Parsed
	sum.Unmatched += r.Unmatched
	sum.Malformed += r.Malformed
}

// BatchImport parses raw console lines with the pattern table's scanners
// (parse.ParseLine) and bulk uploads the recognized events (see
// bulkLoad). Returns aggregate parse statistics.
func BatchImport(eng *compute.Engine, db *store.DB, lines []string, cl store.Consistency, nparts int) (BatchResult, error) {
	l := &Loader{DB: db, CL: cl}
	res, err := l.bulkLoad(eng, lines, nparts, func(b batches, line string) error {
		e, err := parse.ParseLine(line)
		if err == nil {
			b.addEvent(e)
		}
		return err
	})
	return BatchResult{Result: res, EventsLoaded: res.Parsed}, err
}

// BatchImportJobs parses and loads job-log lines.
func BatchImportJobs(eng *compute.Engine, db *store.DB, lines []string, cl store.Consistency, nparts int) (BatchResult, error) {
	l := &Loader{DB: db, CL: cl}
	res, err := l.bulkLoad(eng, lines, nparts, func(b batches, line string) error {
		run, err := parse.ParseJobLine(line)
		if err == nil {
			b.addRun(run)
		}
		return err
	})
	return BatchResult{Result: res, RunsLoaded: res.Parsed}, err
}

// RefreshSynopsis recomputes the eventsynopsis table for the given hours:
// per (type, hour) total occurrence counts and distinct source counts,
// folded from the (source, amount) columns of the event_by_time
// partitions in parallel, each read from its first live replica. The
// synopsis gives the frontend its cheap per-hour histogram without
// scanning events.
func RefreshSynopsis(eng *compute.Engine, db *store.DB, hours []int64, cl store.Consistency) error {
	type synRow struct {
		typ            model.EventType
		hour           int64
		count, sources int
	}
	project := []uint32{model.ColSourceID, model.ColAmountID}
	var tasks []compute.FoldTask[[]synRow]
	for _, hour := range hours {
		for _, typ := range model.EventTypes {
			tasks = append(tasks, func(out []synRow) ([]synRow, int, error) {
				total, rows := 0, 0
				sources := make(map[string]struct{})
				err := db.ScanPartitionBatches(context.TODO(), model.TableEventByTime, model.EventByTimeKey(hour, typ),
					store.Range{}, project, nil, nil, func(b *store.Batch) error {
						var counts [store.MaxBatchRows]int
						if err := model.EventCounts(b, counts[:b.Len()]); err != nil {
							return err
						}
						for i, src := range b.Col(model.ColSourceID) {
							total += counts[i]
							if _, seen := sources[src]; !seen {
								sources[strings.Clone(src)] = struct{}{} // the batch dies with this call
							}
						}
						rows += b.Len()
						return nil
					})
				if err != nil || rows == 0 {
					return out, rows, err
				}
				return append(out, synRow{typ, hour, total, len(sources)}), rows, nil
			})
		}
	}
	results, err := compute.ScanFold(eng, tasks,
		func() []synRow { return nil }, func(a, b []synRow) []synRow { return append(a, b...) })
	if err != nil {
		return err
	}
	byType := make(map[model.EventType][]store.Row)
	for _, r := range results {
		byType[r.typ] = append(byType[r.typ], store.MapRow(store.EncodeTS(r.hour), 0, map[string]string{
			"count":   strconv.Itoa(r.count),
			"sources": strconv.Itoa(r.sources),
		}))
	}
	for typ, rows := range byType {
		if err := db.PutBatch(model.TableEventSynopsis, string(typ), rows, cl); err != nil {
			return err
		}
	}
	return nil
}
