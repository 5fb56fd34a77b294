package main

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"syscall"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/store"
)

// counters is one snapshot of the public stats the per-layer metrics are
// differences of: /v1/stats through the SDK (query cache, compute scan
// planner, storage engine, object tier, HTTP limiters) and the runtime.
type counters struct {
	stats api.StatsPayload
	mem   memCounters
	at    time.Time
}

func (r *run) counters(ctx context.Context) (counters, error) {
	st, err := r.st.newClient().Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	return counters{stats: st, mem: readMem(), at: time.Now()}, nil
}

// storageTotals accumulates storage-engine counters over the store's
// incarnations within one run (load, reopen with a tier, reopen for the
// stream), since each open starts its counters at zero.
type storageTotals struct {
	walBytes             int64
	flushes, compactions int64
	compacted            int64
}

func (t *storageTotals) add(s store.StorageStats) {
	t.walBytes += s.WALBytes
	t.flushes += s.Flushes
	t.compactions += s.Compactions
	t.compacted += s.CompactedRows
}

// blocksWritten is the process's block-layer output so far, in bytes
// (Linux accounts ru_oublock in 512-byte units).
func blocksWritten() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Oublock * 512
}

// countingTransport counts response body bytes, so server.bytes_per_row
// is measured where the client reads them.
type countingTransport struct {
	rt    http.RoundTripper
	bytes *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	bytes *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes.Add(int64(n))
	return n, err
}

// latencyClasses is every class a sequence can contain; a workload
// reports 0 for the classes it does not run.
func latencyClasses() []string {
	return append(append([]string(nil), kindNames[:]...), classHot)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics fills the counter-derived per-layer metrics for one driven
// sequence of ops queries.
func (r *run) layerMetrics(before, after counters, res seqResult, ops int) {
	l := r.rep.layer
	b, a := before.stats, after.stats
	n := int64(ops)

	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	l["query.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	for _, c := range latencyClasses() {
		s := res.lat.byClass[c]
		l["query."+c+".p50_ms"] = metric{quantile(s, 0.5), "ms"}
		l["query."+c+".p90_ms"] = metric{quantile(s, 0.9), "ms"}
	}

	l["compute.scan_rows_per_query"] = metric{ratio(int64(a.Compute.ScanRows-b.Compute.ScanRows), n), "count"}
	l["compute.scan_tasks_per_query"] = metric{ratio(int64(a.Compute.ScanTasks-b.Compute.ScanTasks), n), "count"}
	read := int64(a.Compute.BlocksRead - b.Compute.BlocksRead)
	pruned := int64(a.Compute.BlocksPruned - b.Compute.BlocksPruned)
	l["store.blocks_read_per_query"] = metric{ratio(read, n), "count"}
	l["store.blocks_pruned_ratio"] = metric{ratio(pruned, read+pruned), "ratio"}

	l["server.bytes_per_row"] = metric{ratio(res.rowBytes, res.rows), "B"}
	var rejected int64
	for name, rt := range a.HTTP.Routes {
		rejected += rt.Rejected - b.HTTP.Routes[name].Rejected
	}
	l["server.overloaded_429"] = metric{float64(rejected), "count"}

	var th, tm, tb, tv int64
	var p50 time.Duration
	if at := a.Storage.Tier; at != nil {
		th, tm, tb, tv = int64(at.CacheHits), int64(at.CacheMisses), at.FetchedBytes, at.VerifyFailures
		p50 = at.FetchNanos.P50
		if bt := b.Storage.Tier; bt != nil {
			th, tm, tb = th-int64(bt.CacheHits), tm-int64(bt.CacheMisses), tb-bt.FetchedBytes
		}
	}
	l["objstore.cache_hit_ratio"] = metric{ratio(th, th+tm), "ratio"}
	l["objstore.fetched_bytes_per_query"] = metric{ratio(tb, n), "B"}
	l["objstore.fetch_p50_us"] = metric{float64(p50) / float64(time.Microsecond), "us"}
	l["objstore.verify_failures"] = metric{float64(tv), "count"}

	wall := after.at.Sub(before.at).Seconds()
	l["store.wal_syncs_per_s"] = metric{float64(a.Storage.WALSyncs-b.Storage.WALSyncs) / wall, "1/s"}
	l["process.allocs_per_op"] = metric{ratio(int64(after.mem.mallocs-before.mem.mallocs), n), "count"}
	l["process.gc_cpu_frac"] = metric{after.mem.gcCPUFrac, "ratio"}

	// Tracing overhead: per class, the median of the ops that ran under a
	// span against the median of all ops of the class; geometric mean over
	// the classes, so the mix of classes in the traced blocks cancels.
	overhead := 0.0
	if classes := res.traced.classes(); len(classes) > 0 {
		overhead = res.traced.geomean(0.5, classes)/res.lat.geomean(0.5, classes) - 1
	}
	l["trace.overhead_ratio"] = metric{overhead, "ratio"}
}

// storageMetrics fills the whole-run storage metrics once the last store
// incarnation has been folded into r.totals.
func (r *run) storageMetrics() {
	l := r.rep.layer
	t := r.totals
	ev := int64(r.events)
	l["store.wal_bytes_per_event"] = metric{ratio(t.walBytes, ev), "B"}
	l["store.flushes"] = metric{float64(t.flushes), "count"}
	l["store.compactions"] = metric{float64(t.compactions), "count"}
	l["store.compacted_rows_per_event"] = metric{ratio(t.compacted, ev), "count"}
	l["store.write_amp"] = metric{ratio(r.writtenBytes, r.rawBytes), "ratio"}
}
