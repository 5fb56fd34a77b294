package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/objstore"
)

// Workload names.
const (
	wDashboard = "dashboard"
	wBrowse    = "browse"
	wCold      = "cold"
	wIngest    = "ingest"
)

var workloadNames = []string{wDashboard, wBrowse, wCold, wIngest}

// Frozen sizes. Every workload is fixed work: the op sequence for a seed
// has a frozen length, sized once so that the seed code takes about
// --seconds to get through it on the two-core machine the benchmark was
// sized on during one of its slow phases (host.slowdown about 1.2). A
// faster program finishes sooner; the work does not grow.
//
// opsPerSecond is ops per nominal second of --seconds.
var opsPerSecond = map[string]float64{
	wDashboard: 220,
	wBrowse:    77,
	wCold:      170,
	wIngest:    130, // the query client beside the stream
}

const (
	// loadClients is the number of closed-loop SDK clients on the
	// read-only workloads: one per core.
	loadClients = 2
	// streamRate is the open-loop INSERT rate of ingest's Phase B, events
	// per second. One connection acks in about a millisecond when a core
	// is free, but beside the closed-loop query client, which saturates
	// both cores by design, the sender waits for a core whatever the rate;
	// the rate was chosen for sample count and the lateness is reported.
	streamRate = 200
	// warmOps is the length of the untimed warm-up slice, per class.
	warmOps = 6
	// coldSampleEvery: every n-th op of the cold sequence is also answered
	// on the resident store before eviction, and the two answers must
	// hash-equal.
	coldSampleEvery = 16
	// tierCacheFraction sizes cold's block cache relative to the evicted
	// bytes: small enough that most reads fetch and verify.
	tierCacheFraction = 8
	// traceBlock is the run length of alternating traced/untraced op
	// blocks in a traced run (see trace.overhead_ratio).
	traceBlock = 64
)

// options parameterize one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the corpus and the op counts together; 1 is the
	// benchmark, the test runs at 1/50.
	scale float64
	// workDir holds the run's scratch directory (store, object store).
	workDir string
	// traceFile is where a traced run writes its spans.
	traceFile string
}

func (o options) ops(workload string) int {
	n := int(math.Round(opsPerSecond[workload] * o.seconds * o.scale))
	return max(n, hotEvery*hotSet) // at least one full cycle of the hot set
}

// report is everything one run measured.
type report struct {
	workload  string
	attempted int
	failed    int
	errs      []string // first few failures, for the operator
	e2e       map[string]metric
	layer     map[string]metric
	samples   map[string]int // latency samples per class
	measured  time.Duration  // wall time of the timed query sequence
	lines     int            // raw lines of the base corpus
	events    int            // distinct events the store held at the end
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// require counts one oracle check that is not a client op.
func (r *report) require(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Errorf(format, args...))
	}
}

// seqResult is what driving one op sequence measured.
type seqResult struct {
	wall time.Duration
	lat  *latencies
	// traced holds the latencies of the ops that ran under a span (every
	// other block of a traced run); lat holds all of them.
	traced *latencies
	// rowBytes/rows are the response bytes and rows of row-returning ops.
	rowBytes, rows int64
}

// runSequence drives ops through n closed-loop clients that share one
// cursor, so the work is fixed and both clients finish together. expect,
// when non-nil, maps op indexes to the digest their answer must have.
func runSequence(ctx context.Context, st *stack, ops []op, n int, expect map[int]uint64, tr *tracer, parent int, rep *report) seqResult {
	res := seqResult{lat: newLatencies(), traced: newLatencies()}
	var cursor atomic.Int64
	var mu sync.Mutex // guards rep
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		cli := st.newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				traced := tr != nil && (i/traceBlock)%2 == 1
				octx, sp := ctx, -1
				if traced {
					reqID := fmt.Sprintf("bench-%06d", i)
					octx = api.ContextWithRequestID(ctx, reqID)
					sp = tr.start("client."+o.class, parent, reqID)
				}
				b0 := cli.bytes.Load()
				t0 := time.Now()
				a, err := o.run(octx, cli.Client)
				d := time.Since(t0)
				if o.kind >= kEventsOneshot {
					atomic.AddInt64(&res.rowBytes, cli.bytes.Load()-b0)
					atomic.AddInt64(&res.rows, int64(a.rows))
				}
				if traced {
					tr.end(sp)
					res.traced.add(o.class, d)
				}
				if err == nil {
					err = o.check(a)
				}
				if want, ok := expect[i]; ok && err == nil && a.digest != want {
					err = fmt.Errorf("%s: answer digest %x differs from the resident answer %x", o, a.digest, want)
				}
				res.lat.add(o.class, d)
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// dirBytes sums the regular files under dir: segments, live commitlog,
// manifests and, for tiered runs, the object store.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// run is one process-lifetime measurement of one workload.
type run struct {
	opt     options
	started time.Time // process start, for setup_s
	c       *corpus
	dir     string // scratch root of this run
	st      *stack
	rep     *report
	cal     *calibrator
	tr      *tracer
	// setupEnd is when the first timed request could be sent.
	setupEnd time.Time
	// loadPhase is the bulk import (import_events_s); queryPhase the driven
	// query sequence; cpuPhases the timed phases run_cpu_s adds up.
	loadPhase, queryPhase phase
	cpuPhases             []phase
	// reopenMS is ingest's timed reopen (0 elsewhere).
	reopenMS float64
	events   int // events the store must hold at the end
	// totals folds the storage counters of every store incarnation;
	// rawBytes is the input the store was given, writtenBytes what the
	// process sent to the block layer for it.
	totals                 storageTotals
	rawBytes, writtenBytes int64
}

// phase is one timed interval of a run and the process CPU it consumed
// (the calibration kernel's share included until finish subtracts it).
type phase struct {
	from, to time.Time
	cpu      float64
}

func beginPhase() phase { return phase{from: time.Now(), cpu: cpuSeconds()} }

func (p *phase) end() {
	p.to = time.Now()
	p.cpu = cpuSeconds() - p.cpu
}

// execute runs the workload named in opt and returns its report.
func execute(opt options, started time.Time) (*report, error) {
	r := &run{opt: opt, started: started, rep: newReport(opt.workload), cal: startCalibrator()}
	defer r.cal.close()
	if opt.trace {
		r.tr = newTracer(started)
	}
	dir, err := os.MkdirTemp(opt.workDir, "run-*")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer func() {
		os.RemoveAll(dir)
		// Freed blocks are discarded when the journal commits. Wait for
		// that here, so the cost of deleting this run's files is not paid
		// by whatever runs next.
		syscall.Sync()
	}()

	r.c = generateCorpus(opt.seed, opt.scale)
	r.events = r.c.stored
	switch opt.workload {
	case wDashboard, wBrowse, wCold:
		err = r.readOnly()
	case wIngest:
		err = r.ingest()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		if err := r.ladder(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := r.tr.write(opt.traceFile); err != nil {
			return nil, err
		}
	}
	return r.rep, nil
}

func (r *run) storeDir() string { return filepath.Join(r.dir, "store") }

// load opens a fresh store with maintenance driven explicitly, bulk
// imports the corpus and compacts to quiescence. The span is timed: it
// is import_events_s on every workload and part of run_cpu_s on ingest.
func (r *run) load() error {
	r.loadPhase = beginPhase()
	st, err := openStore(storeConfig(r.storeDir(), false, objstore.Config{}), r.c.cfg.Nodes)
	if err != nil {
		return err
	}
	r.st = st
	loaded, err := st.bulkImport(r.c)
	if err != nil {
		return err
	}
	r.loadPhase.end()
	for _, l := range r.c.lines {
		r.rawBytes += int64(len(l))
	}
	r.rep.require(loaded == len(r.c.lines), "bulk import loaded %d events of %d lines sent", loaded, len(r.c.lines))
	return nil
}

// readOnly is dashboard, browse and cold: load, settle, then drive one
// frozen sequence with two closed-loop clients.
func (r *run) readOnly() error {
	ctx := context.Background()
	if err := r.load(); err != nil {
		return err
	}
	g := newSeqGen(r.c, r.opt.seed)
	var seq *sequence
	switch r.opt.workload {
	case wDashboard:
		seq = g.build(dashboardClasses, r.opt.ops(wDashboard), true, warmOps)
	case wBrowse:
		seq = g.build(browseClasses, r.opt.ops(wBrowse), false, warmOps)
	case wCold:
		// The dashboard sequence minus hot: the same reads through a
		// different bottom layer.
		seq = g.build(dashboardClasses, r.opt.ops(wCold), false, warmOps)
	}
	if err := r.st.serve(); err != nil {
		return err
	}

	// Untimed warm-up: connections, lazily built state, and the hot set
	// pre-asked so every timed hot op is a hit.
	warm := append(append([]op(nil), seq.hot...), seq.warm...)
	runSequence(ctx, r.st, warm, loadClients, nil, nil, -1, r.rep)
	var expect map[int]uint64
	if r.opt.workload == wCold {
		var err error
		if expect, err = r.evict(ctx, seq); err != nil {
			return err
		}
	}
	before, err := r.counters(ctx)
	if err != nil {
		return err
	}
	runtime.GC()

	r.setupEnd = time.Now()
	root := r.tr.start("phase."+r.opt.workload, -1, "")
	r.queryPhase = beginPhase()
	res := runSequence(ctx, r.st, seq.ops, loadClients, expect, r.tr, root, r.rep)
	r.queryPhase.end()
	r.cpuPhases = append(r.cpuPhases, r.queryPhase)
	r.tr.end(root)

	after, err := r.counters(ctx)
	if err != nil {
		return err
	}
	r.queryMetrics(res, len(seq.ops))
	r.layerMetrics(before, after, res, len(seq.ops))
	if r.opt.workload == wDashboard {
		hot := 0
		for _, o := range seq.ops {
			if o.class == classHot {
				hot++
			}
		}
		hits := after.stats.Cache.Hits - before.stats.Cache.Hits
		r.rep.require(hits == int64(hot), "query cache served %d hits, the sequence predicts %d", hits, hot)
	}
	return r.finish()
}

// evict turns the loaded store into cold's: a sample of the sequence is
// answered on the resident store, the store is reopened with a local-fs object tier whose block cache is
// 1/tierCacheFraction of the segment bytes, and every sealed segment is
// uploaded, verified and evicted. It returns the resident digests.
func (r *run) evict(ctx context.Context, seq *sequence) (map[int]uint64, error) {
	cli := r.st.newClient()
	expect := make(map[int]uint64)
	for i := 0; i < len(seq.ops); i += coldSampleEvery {
		a, err := seq.ops[i].run(ctx, cli.Client)
		if err != nil {
			return nil, fmt.Errorf("resident answer to %s: %w", seq.ops[i], err)
		}
		expect[i] = a.digest
	}
	segBytes := r.st.db.StorageStats().DiskBytes
	if err := r.closeStore(); err != nil {
		return nil, err
	}
	tier := objstore.Config{
		Backend:    "fs",
		Dir:        filepath.Join(r.dir, "objects"),
		CacheBytes: segBytes / tierCacheFraction,
	}
	st, err := openStore(storeConfig(r.storeDir(), false, tier), r.c.cfg.Nodes)
	if err != nil {
		return nil, err
	}
	r.st = st
	if _, _, err := st.db.TierSweep(true); err != nil {
		return nil, fmt.Errorf("tier sweep: %w", err)
	}
	ss := st.db.StorageStats()
	r.rep.require(ss.TieredSegments == ss.DiskSegments && ss.DiskSegments > 0,
		"tier sweep evicted %d of %d segments", ss.TieredSegments, ss.DiskSegments)
	return expect, st.serve()
}

// closeStore folds the store's counters into the run totals and closes it.
func (r *run) closeStore() error {
	r.totals.add(r.st.db.StorageStats())
	return r.st.close()
}

// queryMetrics fills the query-side end-to-end metrics from one driven
// sequence; r.queryPhase must bracket it.
func (r *run) queryMetrics(res seqResult, ops int) {
	classes := res.lat.classes()
	host := r.cal.between(r.queryPhase.from, r.queryPhase.to)
	opsS := float64(ops) / res.wall.Seconds()
	p50, p90 := res.lat.geomean(0.5, classes), res.lat.geomean(0.9, classes)
	r.rep.e2e["query_ops_s"] = metric{opsS / host.wallAtRef(1), "1/s"}
	r.rep.e2e["query_p50_ms"] = metric{host.wallAtRef(p50), "ms"}
	r.rep.layer["query_p90_ms"] = metric{host.wallAtRef(p90), "ms"}
	r.rep.layer["raw.query_ops_s"] = metric{opsS, "1/s"}
	r.rep.layer["raw.query_p50_ms"] = metric{p50, "ms"}
	r.rep.layer["raw.query_p90_ms"] = metric{p90, "ms"}
	r.rep.layer["host.calib_ms"] = metric{host.mapMS, "ms"}
	r.rep.layer["host.calib_alloc_ms"] = metric{host.allocMS, "ms"}
	r.rep.layer["host.slowdown"] = metric{1 / host.cpuAtRef(1), "ratio"}
	r.rep.layer["host.steal_ratio"] = metric{host.steal, "ratio"}
	r.rep.measured = res.wall
	for _, c := range classes {
		r.rep.samples[c] = len(res.lat.byClass[c])
	}
}

// finish makes the store quiescent one last time, measures what it
// holds, and fills the remaining end-to-end metrics.
func (r *run) finish() error {
	if err := r.st.db.Flush(); err != nil {
		return err
	}
	if _, err := r.st.db.Compact(); err != nil {
		return err
	}
	if err := r.closeStore(); err != nil {
		return err
	}
	r.writtenBytes = blocksWritten()
	r.storageMetrics()
	bytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	e, l := r.rep.e2e, r.rep.layer
	e["stored_bytes_per_event"] = metric{float64(bytes) / float64(r.events), "B"}
	r.rep.lines, r.rep.events = len(r.c.lines), r.events

	setup := r.setupEnd.Sub(r.started).Seconds()
	e["setup_s"] = metric{r.cal.between(r.started, r.setupEnd).wallAtRef(setup), "s"}
	l["raw.setup_s"] = metric{setup, "s"}

	imp := float64(len(r.c.lines)) / r.loadPhase.to.Sub(r.loadPhase.from).Seconds()
	l["import_events_s"] = metric{imp / r.cal.between(r.loadPhase.from, r.loadPhase.to).wallAtRef(1), "1/s"}
	l["raw.import_events_s"] = metric{imp, "1/s"}

	// The calibration kernel's own CPU is not the program's: take it out
	// phase by phase before bringing each phase to the reference speed.
	cpu, rawCPU := 0.0, 0.0
	for _, p := range r.cpuPhases {
		host := r.cal.between(p.from, p.to)
		cpu += host.cpuAtRef(p.cpu - host.kernelCPU)
		rawCPU += p.cpu - host.kernelCPU
	}
	e["run_cpu_s"] = metric{cpu, "s"}
	l["raw.run_cpu_s"] = metric{rawCPU, "s"}
	l["store.reopen_ms"] = metric{r.reopenMS, "ms"}
	l["process.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	// Only ingest has a stream; the other workloads report its metrics as 0.
	for _, name := range streamMetrics {
		if _, ok := l[name]; !ok {
			l[name] = metric{0, "ms"}
		}
	}
	return nil
}
