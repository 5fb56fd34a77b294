package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/parse"
	"hpclog/internal/plan"
	"hpclog/internal/query"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
	"hpclog/internal/wal"
)

// The layer ladder: the same two fixed requests answered at every layer
// boundary from the segment file up to the SDK, from the outside of each
// layer (its public functions), so the cost of a layer is the difference
// between its rung and the rung below. It runs only in a traced run, on a
// store of its own loaded with the base corpus, and is the same whatever
// workload the run measured.
//
// ladderReps is how often each rung answers each request; the median is
// reported.
const ladderReps = 20

// firstExactRung is the index of plan.exec in the read ladder: the rungs
// below it produce the rows of every block the pruner could not skip, the
// rungs from it up produce exactly the result.
const firstExactRung = 3

// ladderRequest is one fixed request, expressed for every rung.
type ladderRequest struct {
	name   string
	typ    model.EventType
	source string // "" for broad
	from   int64
	to     int64
	rows   int // ground-truth result rows: the denominator of every rung
}

// ladderRequests are `selective` — one source's MCE events in one hour —
// and `broad` — every Network event of the corpus.
func ladderRequests(c *corpus) []ladderRequest {
	base := c.cfg.Start.Unix()
	span := int64(c.cfg.Duration.Seconds())
	sel := ladderRequest{name: "selective", typ: model.MCE, from: base + 3600, to: base + 7200}
	for _, src := range c.sources { // busiest first; ties broken by name
		n := countIn(c.byTypeSource[typeSource{model.MCE, src}], sel.from, sel.to)
		if n > sel.rows {
			sel.source, sel.rows = src, n
		}
	}
	broad := ladderRequest{name: "broad", typ: model.Network, from: base, to: base + span}
	broad.rows = c.typeCount(broad.typ, broad.from, broad.to)
	return []ladderRequest{sel, broad}
}

// partitions lists the event_by_time partitions the request reads.
func (q ladderRequest) partitions() []string {
	var out []string
	for h := q.from / 3600; h*3600 < q.to; h++ {
		out = append(out, model.EventByTimeKey(h, q.typ))
	}
	return out
}

// statement is the request as CQL against one partition.
func (q ladderRequest) statement(pkey string) string {
	s := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%s'", pkey)
	if q.source != "" {
		s += fmt.Sprintf(" AND source = '%s'", q.source)
	}
	return s
}

func (q ladderRequest) plans() ([]*plan.Plan, error) {
	var out []*plan.Plan
	for _, pkey := range q.partitions() {
		stmt, err := cql.Parse(q.statement(pkey))
		if err != nil {
			return nil, err
		}
		sel := stmt.(*cql.SelectStmt)
		p, err := plan.Build(&plan.Select{Table: sel.Table, Partition: sel.Partition, Columns: sel.Columns, Where: sel.Where})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func drain(it persist.Iterator) (int, error) {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	err := it.Err()
	it.Close()
	return n, err
}

// ladder measures the read and write ladders and records their spans.
func (r *run) ladder() error {
	ctx := context.Background()
	l := r.rep.layer
	root := r.tr.start("ladder", -1, "")
	defer r.tr.end(root)

	// timed runs fn once under a span and returns its duration.
	timed := func(name string, parent int, fn func() error) (time.Duration, error) {
		sp := r.tr.start(name, parent, "")
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.tr.end(sp)
		return d, err
	}
	perUnit := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// --- write ladder, bottom of the pipeline first ---
	var events []model.Event
	d, err := timed("parse.line", root, func() error {
		for _, line := range r.c.lines {
			e, err := parse.ParseLine(line)
			if err != nil {
				return fmt.Errorf("parse %q: %w", line, err)
			}
			events = append(events, e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l["parse.line_ns"] = metric{perUnit(d, len(r.c.lines)), "ns"}

	st, err := openStore(storeConfig(filepath.Join(r.dir, "ladder"), false, objstore.Config{}), r.c.cfg.Nodes)
	if err != nil {
		return err
	}
	defer st.close()
	// Load in two halves with a flush between, so the timed flush writes
	// half the corpus and the timed compaction has two segments per
	// partition to merge.
	loader := ingest.NewLoader(st.db)
	half := len(events) / 2
	var loadTime time.Duration
	for i, part := range [][]model.Event{events[:half], events[half:]} {
		if d, err = timed("ingest.load", root, func() error { return loader.LoadEvents(part) }); err != nil {
			return err
		}
		loadTime += d
		if d, err = timed("store.flush", root, st.db.Flush); err != nil {
			return err
		}
		if i == 1 {
			l["store.flush_ms"] = metric{ms(d), "ms"}
		}
	}
	l["ingest.load_ns_event"] = metric{perUnit(loadTime, len(events)), "ns"}
	if d, err = timed("store.compact", root, func() error { _, err := st.db.Compact(); return err }); err != nil {
		return err
	}
	l["store.compact_ms"] = metric{ms(d), "ms"}
	if err := st.serve(); err != nil {
		return err
	}

	// --- read ladder ---
	cli := st.newClient()
	for _, q := range ladderRequests(r.c) {
		if err := r.readLadder(ctx, st, cli.Client, q, root); err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
	}

	// --- the rest of the write ladder, on the loaded store ---
	const putBatch, putBatches = 256, 48
	rows := make([]store.Row, putBatch)
	put := 0
	d, err = timed("store.put", root, func() error {
		for b := 0; b < putBatches; b++ {
			for i := range rows {
				e := model.Event{
					Time: time.Unix(r.c.cfg.Start.Unix()+int64(30*24*3600+put), 0), Type: model.DVS,
					Source: "c0-0c0s0n0", Count: 1, Raw: "DVS: file_node_down: removing c0-0c0s0n0 from list of available servers",
				}
				rows[i] = model.EventToTimeRow(e)
				put++
			}
			pkey := model.EventByTimeKey(model.HourOf(time.Unix(r.c.cfg.Start.Unix()+30*24*3600, 0)), model.DVS)
			if err := st.db.PutBatchCtx(ctx, model.TableEventByTime, pkey, rows, store.Quorum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l["store.put_ns_row"] = metric{perUnit(d, put), "ns"}

	log, err := wal.Open(wal.Options{Dir: filepath.Join(r.dir, "ladder-wal"), SyncPeriod: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	const appends = 20000
	payload := bytes.Repeat([]byte{0xa5}, 256)
	d, err = timed("wal.append", root, func() error {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l["wal.append_ns"] = metric{perUnit(d, appends), "ns"}

	push, err := r.watchPush(ctx, st, root)
	if err != nil {
		return err
	}
	l["server.watch_push_ms"] = metric{push, "ms"}
	return nil
}

// readLadder answers one request at every rung, ladderReps times each,
// and reports the median time and the mean allocations per result row.
func (r *run) readLadder(ctx context.Context, st *stack, cli *client.Client, q ladderRequest, root int) error {
	plans, err := q.plans()
	if err != nil {
		return err
	}
	rg := store.Range{}
	// The persist rungs read the segment files of each partition's primary
	// replica directly, with the pruner the planner compiled.
	type partSegs struct {
		pruner persist.Pruner
		segs   []*persist.Segment
	}
	var parts []partSegs
	infos := st.db.SegmentInfos()
	for i, pkey := range q.partitions() {
		ps := partSegs{pruner: plans[i].Pruner}
		node := st.db.PrimaryFor(pkey)
		for _, li := range infos {
			if li.Node != node {
				continue
			}
			for _, si := range li.Segments {
				if si.Table != model.TableEventByTime || si.Partition != pkey {
					continue
				}
				path := filepath.Join(st.db.Config().Dir, "node-"+node, "seg", fmt.Sprintf("%020d.seg", si.Seq))
				seg, err := persist.OpenSegment(path)
				if err != nil {
					return err
				}
				defer seg.Close()
				ps.segs = append(ps.segs, seg)
			}
		}
		if len(ps.segs) == 0 {
			return fmt.Errorf("no segment files for partition %s on %s", pkey, node)
		}
		parts = append(parts, ps)
	}
	scanIters := func(ps partSegs) ([]persist.Iterator, error) {
		its := make([]persist.Iterator, 0, len(ps.segs))
		for _, seg := range ps.segs {
			it, err := seg.ScanPruned(rg, persist.ScanConfig{Pruner: ps.pruner})
			if err != nil {
				return nil, err
			}
			its = append(its, it)
		}
		return its, nil
	}
	qc := query.Context{EventType: string(q.typ), Source: q.source, From: q.from, To: q.to}
	body, err := json.Marshal(api.QueryRequest{Request: query.Request{Op: query.OpEvents, Context: qc}})
	if err != nil {
		return err
	}
	from, to := time.Unix(q.from, 0).UTC(), time.Unix(q.to, 0).UTC()
	ex := &plan.Executor{DB: st.db, Eng: st.comp, CL: store.One}

	// The read ladder, bottom-up. Each rung returns how many rows it
	// produced.
	type rung struct {
		name string
		fn   func() (int, error)
	}
	rungs := []rung{
		{"persist.scan", func() (int, error) {
			total := 0
			for _, ps := range parts {
				its, err := scanIters(ps)
				if err != nil {
					return 0, err
				}
				for _, it := range its {
					n, err := drain(it)
					if err != nil {
						return 0, err
					}
					total += n
				}
			}
			return total, nil
		}},
		{"persist.merge", func() (int, error) {
			total := 0
			for _, ps := range parts {
				its, err := scanIters(ps)
				if err != nil {
					return 0, err
				}
				n, err := drain(persist.MergeIters(its))
				if err != nil {
					return 0, err
				}
				total += n
			}
			return total, nil
		}},
		{"store.scan", func() (int, error) {
			total := 0
			for i, pkey := range q.partitions() {
				it, err := st.db.ScanPartitionPruned(model.TableEventByTime, pkey, rg, store.One, plans[i].Pruner, &store.PruneStats{})
				if err != nil {
					return 0, err
				}
				n, err := drain(it)
				if err != nil {
					return 0, err
				}
				total += n
			}
			return total, nil
		}},
		{"plan.exec", func() (int, error) {
			ps, err := q.plans()
			if err != nil {
				return 0, err
			}
			total := 0
			for _, p := range ps {
				rows, err := ex.Run(p)
				if err != nil {
					return 0, err
				}
				total += len(rows)
			}
			return total, nil
		}},
		{"compute.scan", func() (int, error) {
			// The query engine's access path: a source context reads
			// event_by_location, a type context event_by_time.
			var evs []model.Event
			var err error
			if q.source != "" {
				evs, err = analytics.EventsBySourceScan(st.comp, st.db, q.source, from, to, analytics.ScanConfig{})
				n := 0
				for _, e := range evs {
					if e.Type == q.typ {
						n++
					}
				}
				return n, err
			}
			evs, err = analytics.EventsByTypeScan(st.comp, st.db, q.typ, from, to, analytics.ScanConfig{})
			return len(evs), err
		}},
		{"query.exec", func() (int, error) {
			res, err := st.eng.ExecuteCtx(ctx, query.Request{Op: query.OpEvents, Context: qc})
			if err != nil {
				return 0, err
			}
			return len(res.([]query.EventRecord)), nil
		}},
		{"server.http", func() (int, error) {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			req.Header.Set("Content-Type", api.MediaTypeJSON)
			rec := httptest.NewRecorder()
			st.srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
			}
			return q.rows, nil // decoding the body is the next rung's work
		}},
		{"client.sdk", func() (int, error) {
			evs, err := cli.Events(ctx, qc)
			return len(evs), err
		}},
	}

	below := 0.0
	fmt.Printf("read ladder, %s (%d result rows, %d reps, median):\n", q.name, q.rows, ladderReps)
	for i, ru := range rungs {
		name, fn := ru.name, ru.fn
		got, err := fn() // warm, and check the rung answers the request
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got < q.rows || (i >= firstExactRung && got != q.rows) {
			return fmt.Errorf("%s produced %d rows, ground truth is %d", name, got, q.rows)
		}
		parent := r.tr.start("rung."+name+"."+q.name, root, q.name)
		samples := make([]float64, ladderReps)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for rep := range samples {
			sp := r.tr.start(name, parent, q.name)
			t0 := time.Now()
			_, err := fn()
			samples[rep] = float64(time.Since(t0).Nanoseconds())
			r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&m1)
		r.tr.end(parent)
		rows := max(q.rows, 1) // a scaled-down corpus may have no matching row
		ns := median(samples) / float64(rows)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(ladderReps*rows)
		r.rep.layer[name+"_ns_row."+q.name] = metric{ns, "ns"}
		r.rep.layer[name+"_allocs_row."+q.name] = metric{allocs, "count"}
		fmt.Printf("  %-14s %10.0f ns/row  self %+10.0f ns/row  %8.2f allocs/row\n", name, ns, ns-below, allocs)
		below = ns
	}
	r.rep.attempted += len(rungs)
	return nil
}

// watchPush measures, in process, the time from PutBatch returning to
// the pushed event arriving at an SDK subscriber: the watch hub alone,
// without the INSERT's own HTTP exchange.
func (r *run) watchPush(ctx context.Context, st *stack, root int) (float64, error) {
	const typ = model.GPUFail
	at := r.c.cfg.Start.Add(40 * 24 * time.Hour)
	w, err := st.newClient().Watch(ctx, string(typ), client.WatchOptions{Since: at, Timeout: time.Minute})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	samples := make([]float64, ladderReps)
	for i := range samples {
		e := model.Event{Time: at.Add(time.Duration(i) * time.Second), Type: typ, Source: "c0-0c0s0n0", Count: 1, Raw: "GPU has fallen off the bus"}
		pkey := model.EventByTimeKey(e.Hour(), typ)
		sp := r.tr.start("server.watch_push", root, "")
		if err := st.db.PutBatchCtx(ctx, model.TableEventByTime, pkey, []store.Row{model.EventToTimeRow(e)}, store.Quorum); err != nil {
			return 0, err
		}
		t0 := time.Now()
		rec, ok := w.Next()
		samples[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		r.tr.end(sp)
		if !ok || rec.Time != e.Time.Unix() {
			return 0, fmt.Errorf("watch delivered %+v (ok=%v), want the event at %d: %v", rec, ok, e.Time.Unix(), w.Err())
		}
	}
	return median(samples), nil
}
