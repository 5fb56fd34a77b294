package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/client"
	"hpclog/internal/api"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Runner drives one scenario against a live /v1 server through the SDK.
type Runner struct {
	// Target is the server base URL (e.g. "http://127.0.0.1:8080").
	Target string
	// Targets, when non-empty, is a list of coordinator base URLs the
	// client pool and watcher clients round-robin across — the multi-node
	// form of Target for driving a cluster through several coordinators at
	// once. Target is ignored when Targets is set.
	Targets []string
	// Scenario is the experiment to run (caller applies defaults via
	// LoadGrid or Smoke; a zero-value scenario is filled here too).
	Scenario Scenario
	// Repeat is the repeat index within a grid; it offsets the mix seed so
	// repeats are distinct but reproducible.
	Repeat int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// classRec accumulates one traffic class's counters during a run.
type classRec struct {
	hist       obs.Hist
	count      atomic.Int64
	errs       atomic.Int64
	overloaded atomic.Int64
	timeouts   atomic.Int64
}

func (c *classRec) record(d time.Duration, err error, timedOut bool) {
	switch {
	case err != nil:
		c.errs.Add(1)
		var ae *api.Error
		if errors.As(err, &ae) && ae.Code == api.CodeOverloaded {
			c.overloaded.Add(1)
		}
	case timedOut:
		c.timeouts.Add(1)
	default:
		c.count.Add(1)
		c.hist.Record(d)
	}
}

// lagTracker correlates ingest acks with watch receipts to measure
// write-to-delivery lag end to end: the ingest path stamps each event's
// unique source at send time and again at ack time, and every watcher
// that receives the event records now-minus-stamp. The send-time stamp
// covers the race where the push beats the ingest response back to the
// generator (the resulting sample is slightly pessimistic rather than
// dropped); entries are never deleted — a run's ingest volume is small
// and every watcher of the event needs the stamp.
type lagTracker struct {
	acks    sync.Map // event source → time.Time (send, then ack)
	hist    obs.Hist
	matched atomic.Int64
}

// sent stamps the event before the ingest request goes out.
func (l *lagTracker) sent(source string, t time.Time) { l.acks.Store(source, t) }

// acked re-stamps the event with its server ack time.
func (l *lagTracker) acked(source string, t time.Time) { l.acks.Store(source, t) }

// received records one watcher's delivery of the event. Events the run
// did not ingest (pre-run history) are skipped.
func (l *lagTracker) received(source string, now time.Time) {
	v, ok := l.acks.Load(source)
	if !ok {
		return
	}
	l.matched.Add(1)
	l.hist.Record(now.Sub(v.(time.Time)))
}

// opGrace is how long after the arrival window closes the runner waits
// for in-flight operations before cancelling them.
const opGrace = 10 * time.Second

// Run executes the scenario and returns its report. The context cancels
// the whole run early (the report covers what completed).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	s := r.Scenario.withDefaults()
	if s.Name == "" {
		s.Name = "adhoc"
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	logf := r.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// One SDK client per pool slot, each with its own transport so
	// connections model distinct users. Retries are disabled: under load
	// an overloaded answer must be counted, not silently retried into
	// extra offered traffic. With multiple targets the slots round-robin
	// across coordinators, spreading users evenly over the cluster.
	targets := r.Targets
	if len(targets) == 0 {
		targets = []string{r.Target}
	}
	pool := make([]*client.Client, s.Clients)
	var attempts, transportErrs atomic.Int64
	obs := func(oc client.ObservedCall) {
		attempts.Add(1)
		if oc.Err != nil && oc.Code == "" {
			transportErrs.Add(1)
		}
	}
	for i := range pool {
		pool[i] = client.New(targets[i%len(targets)],
			client.WithRetries(0),
			client.WithObserver(obs),
			client.WithHTTPClient(&http.Client{Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
			}}))
	}

	recs := make(map[string]*classRec, len(Classes))
	for _, class := range Classes {
		recs[class] = &classRec{}
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	// Long-lived watchers: open before the arrival loop so every
	// subscription observes the run's ingest traffic from the start.
	var watcherWG sync.WaitGroup
	var watchDeliveries, watcherErrs atomic.Int64
	lag := &lagTracker{}
	watchersUp := make(chan struct{}, s.Watchers)
	for i := 0; i < s.Watchers; i++ {
		watcherWG.Add(1)
		go func(i int) {
			defer watcherWG.Done()
			wcli := client.New(targets[i%len(targets)], client.WithRetries(0), client.WithObserver(obs))
			w, err := wcli.Watch(runCtx, s.EventType, client.WatchOptions{
				Since:   time.Now().Add(-time.Second),
				Timeout: s.Duration() + opGrace,
			})
			watchersUp <- struct{}{}
			if err != nil {
				watcherErrs.Add(1)
				return
			}
			defer w.Close()
			closer := make(chan struct{})
			defer close(closer)
			go func() {
				// Close unblocks a parked Next when the run ends.
				select {
				case <-runCtx.Done():
					w.Close()
				case <-closer:
				}
			}()
			for {
				rec, ok := w.Next()
				if !ok {
					if w.Err() != nil && runCtx.Err() == nil {
						watcherErrs.Add(1)
					}
					return
				}
				watchDeliveries.Add(1)
				lag.received(rec.Source, time.Now())
			}
		}(i)
	}
	for i := 0; i < s.Watchers; i++ {
		<-watchersUp
	}
	if s.Watchers > 0 {
		logf("%s: %d watch subscriptions established", s.Name, s.Watchers)
	}

	// Peak-goroutine sampler.
	var goroutinePeak atomic.Int64
	samplerDone := make(chan struct{})
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerDone:
				return
			case <-t.C:
				if n := int64(runtime.NumGoroutine()); n > goroutinePeak.Load() {
					goroutinePeak.Store(n)
				}
			}
		}
	}()

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	// The open loop: arrivals scheduled purely by the clock. When the
	// scheduler falls behind (GC pause, oversubscribed box) it catches up
	// by dispatching the missed arrivals immediately rather than
	// stretching the schedule — the offered rate is part of the
	// experiment, not a function of server speed.
	rng := rand.New(rand.NewSource(s.Seed + int64(r.Repeat)))
	classes := s.mixedClasses()
	weights := make([]float64, len(classes))
	totalW := 0.0
	for i, class := range classes {
		totalW += s.Mix[class]
		weights[i] = totalW
	}
	pick := func() string {
		v := rng.Float64() * totalW
		for i, w := range weights {
			if v < w {
				return classes[i]
			}
		}
		return classes[len(classes)-1]
	}

	sem := make(chan struct{}, s.MaxOutstanding)
	var opWG sync.WaitGroup
	var offered, shed int64
	var seq atomic.Int64
	start := time.Now()
	deadline := start.Add(s.Duration())
	interval := time.Duration(float64(time.Second) / s.Rate)
	next := start
	clientIdx := 0
	for totalW > 0 {
		next = next.Add(interval)
		if sleep := time.Until(next); sleep > 0 {
			select {
			case <-runCtx.Done():
			case <-time.After(sleep):
			}
		}
		if runCtx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
		offered++
		class := pick()
		select {
		case sem <- struct{}{}:
		default:
			// Backlog cap reached: the arrival is shed and recorded, keeping
			// the generator honest about what it could not even start.
			shed++
			continue
		}
		cli := pool[clientIdx%len(pool)]
		clientIdx++
		opWG.Add(1)
		go func(class string, cli *client.Client) {
			defer opWG.Done()
			defer func() { <-sem }()
			r.doOp(runCtx, s, cli, class, recs[class], &seq, lag)
		}(class, cli)
	}
	arrivalElapsed := time.Since(start)

	// Drain in-flight operations, then cancel stragglers.
	done := make(chan struct{})
	go func() { opWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(opGrace):
		logf("%s: cancelling operations still in flight after %v grace", s.Name, opGrace)
	}
	cancelRun()
	<-done
	watcherWG.Wait()
	close(samplerDone)
	elapsed := time.Since(start)

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	rep := &Report{
		Scenario:        s.Name,
		Repeat:          r.Repeat,
		Start:           start.UTC(),
		Elapsed:         elapsed,
		Offered:         offered,
		Shed:            shed,
		OfferedRate:     float64(offered) / arrivalElapsed.Seconds(),
		Watchers:        s.Watchers,
		WatchDeliveries: watchDeliveries.Load(),
		WatcherErrs:     watcherErrs.Load(),
		WatchLagN:       lag.matched.Load(),
		WatchLag:        lag.hist.Snapshot(),
		lagHist:         &lag.hist,
		HTTPAttempts:    attempts.Load(),
		TransportErrs:   transportErrs.Load(),
		AllocBytes:      msAfter.TotalAlloc - msBefore.TotalAlloc,
		Mallocs:         msAfter.Mallocs - msBefore.Mallocs,
		GoroutinePeak:   int(goroutinePeak.Load()),
		Classes:         make(map[string]*ClassResult, len(recs)),
	}
	var completed int64
	for _, class := range Classes {
		rec := recs[class]
		cr := &ClassResult{
			Class:       class,
			Count:       rec.count.Load(),
			Errors:      rec.errs.Load(),
			Overloaded:  rec.overloaded.Load(),
			Timeouts:    rec.timeouts.Load(),
			Percentiles: rec.hist.Snapshot(),
			hist:        &rec.hist,
		}
		completed += cr.Count
		rep.Classes[class] = cr
	}
	rep.AchievedRate = float64(completed) / elapsed.Seconds()

	// Best-effort server-side counters, so a harness run can assert on
	// what the server saw (limiter rejections, watch fan-out, storage).
	if len(pool) > 0 {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if st, err := pool[0].Stats(sctx); err == nil {
			rep.ServerHTTP = &st.HTTP
		}
		cancel()
	}
	return rep, nil
}

// doOp executes one arrival of the given traffic class.
func (r *Runner) doOp(ctx context.Context, s Scenario, cli *client.Client, class string, rec *classRec, seq *atomic.Int64, lag *lagTracker) {
	qc := query.Context{
		EventType: s.EventType,
		From:      time.Now().Add(-time.Duration(s.LookbackS * float64(time.Second))).Unix(),
		To:        time.Now().Unix() + 2,
	}
	started := time.Now()
	var err error
	timedOut := false
	switch class {
	case ClassIngest:
		n := seq.Add(1)
		ts := started.Unix()
		source := fmt.Sprintf("lg%d", n)
		// The wire write path: the same clustering-key shape the ingest
		// loader produces (EncodeTS ':' source), so watch scans, queries,
		// and pagination all see harness events as first-class data.
		stmt := fmt.Sprintf(
			"INSERT INTO event_by_time (partition, key, source, amount, raw) VALUES ('%d:%s', '%s:%s', '%s', '1', 'loadgen %d')",
			ts/3600, s.EventType, store.EncodeTS(ts), source, source, n)
		lag.sent(source, time.Now())
		_, err = cli.Session("ONE").Execute(ctx, stmt)
		if err == nil {
			lag.acked(source, time.Now())
		}
	case ClassOneshot:
		_, err = cli.Events(ctx, qc)
	case ClassPaginated:
		cursor := ""
		for page := 0; page < s.MaxPages; page++ {
			var next string
			_, next, err = cli.EventsPage(ctx, qc, s.PageSize, cursor)
			if err != nil || next == "" {
				break
			}
			cursor = next
		}
	case ClassStreamed:
		err = cli.StreamEvents(ctx, qc, func(query.EventRecord) error { return nil })
	case ClassCQL:
		stmt := fmt.Sprintf("SELECT key, source, amount FROM event_by_time WHERE partition = '%d:%s' LIMIT 100",
			started.Unix()/3600, s.EventType)
		_, err = cli.Session("ONE").Execute(ctx, stmt)
	case ClassWatch:
		timedOut, err = r.watchOp(ctx, s, cli)
	}
	if ctx.Err() != nil && err != nil {
		// The run ended while this op was in flight; not a server failure.
		return
	}
	rec.record(time.Since(started), err, timedOut)
}

// watchOp opens a push subscription and waits for the first delivered
// event — the end-to-end commit-to-push latency under load. Returns
// timedOut=true when the subscription stayed silent for the configured
// window (counted separately from errors: silence is a latency signal,
// not a protocol failure).
func (r *Runner) watchOp(ctx context.Context, s Scenario, cli *client.Client) (bool, error) {
	timeout := time.Duration(s.WatchFirstEventTimeoutMS) * time.Millisecond
	w, err := cli.Watch(ctx, s.EventType, client.WatchOptions{
		Since:   time.Now().Add(-2 * time.Second),
		Timeout: timeout,
	})
	if err != nil {
		return false, err
	}
	defer w.Close()
	type first struct {
		ok bool
	}
	ch := make(chan first, 1)
	go func() {
		_, ok := w.Next()
		ch <- first{ok: ok}
	}()
	select {
	case f := <-ch:
		if f.ok {
			return false, nil
		}
		if err := w.Err(); err != nil && ctx.Err() == nil {
			return false, err
		}
		return true, nil // clean server-side timeout: no event arrived
	case <-time.After(timeout + time.Second):
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}
