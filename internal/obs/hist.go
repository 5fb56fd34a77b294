// Package obs is the in-process observability kit: a lock-free
// HDR-style latency histogram (~3% error bound) and atomic counter, a
// Prometheus-text exposition writer behind /v1/metrics, request-scoped
// spans keyed by X-Request-Id feeding a bounded slow-query log behind
// /v1/debug/slow, and log/slog constructors for the daemons. Hot-path
// recording (Counter.Inc, Hist.Record) is zero-alloc: atomics over
// preallocated buckets, guarded by TestMetricsAllocBudget in
// `make alloc-guard`.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits selects 2^subBits linear sub-buckets per power-of-two octave.
// 32 sub-buckets bound the relative quantile error at ~3% — the HDR
// histogram trade: fixed memory, O(1) record, bounded error across nine
// orders of magnitude (1ns..seconds) with no per-sample allocation.
const subBits = 5

// numBuckets covers every possible uint64 value: 64 octaves cannot all
// exist after sub-bucketing, but 2048 slots are cheap and safely above
// the largest reachable index.
const numBuckets = 2048

// bucketOf maps a non-negative value onto its histogram bucket.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return int(uint64(exp+1)<<subBits) + int(v>>uint(exp)) - (1 << subBits)
}

// bucketLow returns the smallest value mapping to bucket idx (the
// inverse of bucketOf, used to reconstruct quantiles).
func bucketLow(idx int) uint64 {
	if idx < 1<<subBits {
		return uint64(idx)
	}
	exp := idx>>subBits - 1
	return uint64((1<<subBits)+idx&(1<<subBits-1)) << uint(exp)
}

// Hist is an HDR-style latency histogram: log-major, linear-minor
// buckets with bounded relative error. The zero value is ready to use.
// Record is wait-free (one atomic add per bucket plus CAS loops for the
// extremes) so it can sit on WAL fsync, replication, and per-route
// request paths without contending; readers assemble a slightly torn
// but monotonically consistent view, which is fine for quantiles and
// Prometheus scrapes.
type Hist struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	// minP1 holds min+1 so the zero value means "unset"; max needs no
	// sentinel because samples are non-negative.
	minP1 atomic.Uint64
	max   atomic.Uint64
}

// Record adds one duration sample.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.minP1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Merge folds other into h (used to aggregate per-node histograms at
// scrape time).
func (h *Hist) Merge(other *Hist) {
	if other.total.Load() == 0 {
		return
	}
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	if mp := other.minP1.Load(); mp != 0 {
		for {
			cur := h.minP1.Load()
			if cur != 0 && cur <= mp {
				break
			}
			if h.minP1.CompareAndSwap(cur, mp) {
				break
			}
		}
	}
	mx := other.max.Load()
	for {
		cur := h.max.Load()
		if cur >= mx {
			break
		}
		if h.max.CompareAndSwap(cur, mx) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Sum returns the total of all recorded samples.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest recorded sample.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Min returns the smallest recorded sample (0 when empty).
func (h *Hist) Min() time.Duration {
	mp := h.minP1.Load()
	if mp == 0 {
		return 0
	}
	return time.Duration(mp - 1)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded samples,
// accurate to the bucket's ~3% relative width. Zero samples yield 0.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	min, max := uint64(h.Min()), uint64(h.Max())
	// rank is the 1-based index of the sample to report.
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			low := bucketLow(i)
			high := bucketLow(i + 1)
			mid := low + (high-low)/2
			// Clamp to observed extremes so tiny sample sets report exact
			// values instead of bucket midpoints past min/max.
			if mid > max {
				mid = max
			}
			if mid < min {
				mid = min
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(max)
}

// CumulativeAt returns the number of samples <= bound. Used by the
// exposition writer to collapse the 2048 internal buckets onto a fixed
// Prometheus `le` ladder at scrape time.
func (h *Hist) CumulativeAt(bound time.Duration) uint64 {
	if bound < 0 {
		return 0
	}
	// Every internal bucket whose *upper* edge is <= bound is entirely
	// below it; bucketOf(bound) is the bucket containing bound, and all
	// buckets strictly before it hold values < bucketLow(that bucket)
	// <= bound. The containing bucket straddles the bound, so include it
	// only when the bound is its last value (bucket width 1).
	last := bucketOf(uint64(bound))
	var seen uint64
	for i := 0; i < last; i++ {
		seen += h.counts[i].Load()
	}
	if bucketLow(last+1) == uint64(bound)+1 {
		seen += h.counts[last].Load()
	}
	return seen
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; Inc/Add are a single atomic add (zero allocations).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
