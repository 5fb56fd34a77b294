package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"hpclog/client"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/store"
)

// watchedType is the event type the passive subscriber follows: the most
// common background type, so about a third of the stream reaches it.
const watchedType = model.MemECC

// ingestClasses are the dashboard miss classes the query client runs
// beside the stream. Window ends fall inside the hour being written (the
// CQL classes address that hour's partition), so every answer depends on
// rows that are arriving and the result cache can never serve one.
var ingestClasses = []classSpec{
	{kHeatmap, model.MemECC, 9000, 2},
	{kHistogram, model.MCE, 9000, 2},
	{kDistribution, model.Network, 10800, 2},
	{kCQLSelective, model.MemECC, 900, 1},
	{kCQLBroad, model.MemECC, 900, 1},
}

// streamMetrics are the per-layer metrics of Phase B's stream.
var streamMetrics = []string{
	"ingest_ack_p50_ms", "ingest_ack_p90_ms", "watch_lag_p50_ms", "watch_lag_p90_ms",
	"ingest.generator_late_p90_ms",
}

// streamEvent is one event of Phase B with its prebuilt INSERT.
type streamEvent struct {
	typ  model.EventType
	ts   int64
	src  string
	stmt string
}

func (e streamEvent) key() string { return store.EncodeTS(e.ts) + ":" + e.src }

// generateStream makes n distinct events of the hour after the base
// corpus, in chronological order: the same generator, no storm, no jobs.
func generateStream(c *corpus, seed int64, n int) []streamEvent {
	cfg := corpusConfig(seed^0x57ea, 1)
	cfg.Start = c.cfg.Start.Add(c.cfg.Duration)
	cfg.Duration = time.Hour
	cfg.Storms, cfg.Causal = nil, nil
	cfg.Jobs.ArrivalsPerHour = 0
	// Enough background for the longest permitted run at the frozen rate.
	for typ := range cfg.BaseRates {
		cfg.BaseRates[typ] *= 2
	}
	g := logs.Generate(cfg)
	seen := make(map[eventKey]bool, n)
	out := make([]streamEvent, 0, n)
	for _, e := range g.Events {
		if len(out) == n {
			break
		}
		k := eventKey{e.Type, e.Time.Unix(), e.Source}
		if seen[k] {
			continue
		}
		seen[k] = true
		se := streamEvent{typ: e.Type, ts: k.ts, src: e.Source}
		se.stmt = fmt.Sprintf(
			"INSERT INTO event_by_time (partition, key, source, amount, raw) VALUES ('%s', '%s', '%s', '1', '%s')",
			model.EventByTimeKey(e.Hour(), e.Type), se.key(), e.Source, strings.ReplaceAll(e.Raw, "'", "''"))
		out = append(out, se)
	}
	if len(out) < n {
		panic(fmt.Sprintf("stream generator made %d events, %d wanted", len(out), n))
	}
	return out
}

// ingestSeq freezes the query client's sequence: windows of each class
// end inside the stream hour, so slack is what the stream may add.
func ingestSeq(c *corpus, seed int64, stream []streamEvent, n int) *sequence {
	g := newSeqGen(c, seed)
	g.endIn = g.base + g.span
	seq := g.build(ingestClasses, n, false, warmOps)
	times := make(map[model.EventType]int)
	perSource := make(map[typeSource]int)
	for _, e := range stream {
		times[e.typ]++
		perSource[typeSource{e.typ, e.src}]++
	}
	fix := func(ops []op) {
		for i := range ops {
			o := &ops[i]
			if o.kind == kCQLSelective {
				o.slack = perSource[typeSource{o.typ, o.source}]
			} else {
				o.slack = times[o.typ]
			}
		}
	}
	fix(seq.ops)
	fix(seq.warm)
	return seq
}

// ingest is the write workload. Phase A bulk-loads the base corpus with
// maintenance driven explicitly and closes the store; Phase B reopens it
// with the production background compactor and runs an open-loop INSERT
// stream, a passive watch subscriber and a closed-loop query client side
// by side.
func (r *run) ingest() error {
	ctx := context.Background()

	// Phase A: one timed span, parse → ETL → store → compacted on disk.
	phaseA := beginPhase()
	if err := r.load(); err != nil {
		return err
	}
	if err := r.closeStore(); err != nil {
		return err
	}
	phaseA.end()
	r.cpuPhases = append(r.cpuPhases, phaseA)

	// Phase B.
	n := max(int(float64(streamRate)*r.opt.seconds*r.opt.scale), 64)
	stream := generateStream(r.c, r.opt.seed, n)
	seq := ingestSeq(r.c, r.opt.seed, stream, r.opt.ops(wIngest))

	reopen := time.Now()
	st, err := openStore(storeConfig(r.storeDir(), true, objstore.Config{}), r.c.cfg.Nodes)
	if err != nil {
		return err
	}
	r.reopenMS = float64(time.Since(reopen)) / float64(time.Millisecond)
	r.st = st
	if err := st.serve(); err != nil {
		return err
	}
	runSequence(ctx, st, seq.warm, 1, nil, nil, -1, r.rep)

	wcli := st.newClient()
	w, err := wcli.Watch(ctx, string(watchedType), client.WatchOptions{
		Since:   time.Unix(stream[0].ts, 0),
		Timeout: 2 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	before, err := r.counters(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	r.setupEnd = time.Now()

	// due[i] is when event i is due on the wire; the subscriber looks its
	// deliveries up by clustering key.
	interval := time.Second / streamRate
	index := make(map[string]int, len(stream))
	watched := 0
	for i, e := range stream {
		if e.typ == watchedType {
			index[e.key()] = i
			watched++
		}
	}
	phase := r.tr.start("phase.ingest", -1, "")
	phaseB := beginPhase()
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	lat := newLatencies()
	var wg sync.WaitGroup

	// Passive subscriber.
	delivered := make(map[int]int, watched)
	got := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := 0
		for seen < watched {
			rec, ok := w.Next()
			if !ok {
				return
			}
			now := time.Now()
			i, ok := index[store.EncodeTS(rec.Time)+":"+rec.Source]
			if !ok {
				continue
			}
			if delivered[i]++; delivered[i] == 1 {
				seen++
				lat.add("watch_lag", now.Sub(due(i)))
			}
		}
		close(got)
	}()

	// Open-loop sender: one connection, one INSERT per event, each timed
	// from its due time so a stall is charged to every event it delays.
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := st.newClient().Session("QUORUM")
		for i, e := range stream {
			if d := time.Until(due(i)); d > 0 {
				time.Sleep(d)
			}
			lat.add("generator_late", time.Since(due(i)))
			sp := -1
			if r.tr != nil && (i/traceBlock)%2 == 1 {
				sp = r.tr.start("client.insert", phase, "")
			}
			res, err := sess.Execute(ctx, e.stmt)
			r.tr.end(sp)
			if err == nil && !res.Applied {
				err = fmt.Errorf("INSERT %s not applied", e.key())
			}
			if err != nil && sendErr == nil {
				sendErr = err
			}
			lat.add("ingest_ack", time.Since(due(i)))
		}
	}()

	r.queryPhase = beginPhase()
	res := runSequence(ctx, st, seq.ops, 1, nil, r.tr, phase, r.rep)
	r.queryPhase.end()
	// The subscriber gets a grace period to drain after the last ack; an
	// event still missing then is a lost delivery.
	select {
	case <-got:
	case <-time.After(time.Duration(len(stream))*interval + 10*time.Second):
	}
	w.Close()
	wg.Wait()
	phaseB.end()
	r.cpuPhases = append(r.cpuPhases, phaseB)
	r.tr.end(phase)

	r.rep.attempted += len(stream)
	if sendErr != nil {
		r.rep.fail(fmt.Errorf("stream: %w", sendErr))
	}
	once, dup := 0, 0
	for _, k := range delivered {
		if k == 1 {
			once++
		} else {
			dup++
		}
	}
	r.rep.require(once == watched && dup == 0,
		"watch delivered %d of %d streamed %s events exactly once, %d more than once", once, watched, watchedType, dup)

	after, err := r.counters(ctx)
	if err != nil {
		return err
	}
	r.queryMetrics(res, len(seq.ops))
	r.layerMetrics(before, after, res, len(seq.ops))
	l := r.rep.layer
	l["ingest_ack_p50_ms"] = metric{quantile(lat.byClass["ingest_ack"], 0.5), "ms"}
	l["ingest_ack_p90_ms"] = metric{quantile(lat.byClass["ingest_ack"], 0.9), "ms"}
	l["watch_lag_p50_ms"] = metric{quantile(lat.byClass["watch_lag"], 0.5), "ms"}
	l["watch_lag_p90_ms"] = metric{quantile(lat.byClass["watch_lag"], 0.9), "ms"}
	l["ingest.generator_late_p90_ms"] = metric{quantile(lat.byClass["generator_late"], 0.9), "ms"}
	r.rep.samples["ingest_ack"] = len(lat.byClass["ingest_ack"])
	r.rep.samples["watch_lag"] = len(lat.byClass["watch_lag"])
	hits := after.stats.Cache.Hits - before.stats.Cache.Hits
	r.rep.require(hits == 0, "query cache served %d hits beside a write stream", hits)

	r.events += len(stream)
	r.rawBytes += streamBytes(stream)
	return r.finish()
}

func streamBytes(stream []streamEvent) int64 {
	var n int64
	for _, e := range stream {
		n += int64(len(e.stmt))
	}
	return n
}
