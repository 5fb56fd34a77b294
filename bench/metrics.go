package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latencies collects per-class samples in milliseconds. Safe for
// concurrent use by the load-generating clients.
type latencies struct {
	mu      sync.Mutex
	byClass map[string][]float64
}

func newLatencies() *latencies { return &latencies{byClass: make(map[string][]float64)} }

func (l *latencies) add(class string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.byClass[class] = append(l.byClass[class], ms)
	l.mu.Unlock()
}

func (l *latencies) classes() []string {
	out := make([]string, 0, len(l.byClass))
	for c := range l.byClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics (the default of most statistics packages).
// It sorts samples in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return samples[lo] + (samples[hi]-samples[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// geomean is the geometric mean of the q-quantile of each named class:
// a cheap class weighs as much as an expensive one, and no class boundary
// ever sits on the percentile of a pooled distribution.
func (l *latencies) geomean(q float64, classes []string) float64 {
	sum, n := 0.0, 0
	for _, c := range classes {
		if s := l.byClass[c]; len(s) > 0 {
			sum += math.Log(quantile(s, q))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// The host calibration kernels. A two-core sandbox shared with other
// tenants runs the same program up to twice as slowly from one minute to
// the next (a register-only arithmetic loop keeps its speed throughout: it
// is the memory system that the tenants share), and everything the
// benchmark times moves with it. So while a run measures, one goroutine,
// locked to its own thread, repeats two small fixed pieces of work that
// touch no part of the system under test — a hash-and-map kernel and an
// allocate-encode-decode kernel — sleeping between rounds, and records
// the thread CPU time each took. Their means over a phase say how fast the
// host was during that phase; every time-based end-to-end metric is
// reported at the reference speed (see hostSpeed), and bench -compare uses
// the same means to tell "the code got slower" from "the machine got
// slower".
const (
	// calibMapIters sizes one map slice at about 1.5 ms of CPU.
	calibMapIters = 1 << 15
	// calibMapEntries sizes the map to about a megabyte, inside the L2
	// cache but evicted by the workload between slices.
	calibMapEntries = 1 << 15
	// calibAllocIters sizes one allocation slice at about 0.9 ms of CPU.
	calibAllocIters = 150
	// calibPause is the sleep between rounds: the kernels take less than a
	// tenth of one core.
	calibPause = 30 * time.Millisecond
	// calibRefMapMS and calibRefAllocMS are the slice times, in CPU
	// milliseconds, of the machine the benchmark was sized on at its usual
	// speed.
	calibRefMapMS   = 1.5
	calibRefAllocMS = 0.9
	// calibExponent is how much of the kernels' slowdown the workloads
	// share. Fitted once, over 56 runs (14 per workload) during which raw
	// times spread 25-44 %: the map kernel alone over-reacts to a slow host
	// (workload times go with its 0.7th power), the allocation kernel alone
	// under-reacts slightly (1.1th), and the product of the two at 0.45
	// each left the smallest residual spread on every workload (3.6-6.4 %
	// on throughput and CPU time, 4-9 % on the class medians). Medians of
	// the slices, wall times of the slices, a pointer-chasing kernel and
	// the arithmetic loop were all tried beside them and explained less.
	calibExponent = 0.45
)

// calibSample is one round of the calibrator: the thread CPU time of each
// kernel's slice, and the machine's CPU accounting so far.
type calibSample struct {
	at      time.Time
	mapMS   float64
	allocMS float64
	cpu     cpuJiffies
}

// cpuJiffies is the first line of /proc/stat: the time all CPUs of this
// machine have spent so far, and how much of it the hypervisor gave to
// another tenant while a thread here was ready to run.
type cpuJiffies struct{ total, steal float64 }

// readCPUJiffies returns zeros where /proc/stat cannot be read, which
// turns the steal correction off.
func readCPUJiffies() cpuJiffies {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuJiffies{}
	}
	var j cpuJiffies
	for i, field := range f[1:9] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return cpuJiffies{}
		}
		j.total += v
		if i == 7 {
			j.steal = v
		}
	}
	return j
}

// hostSpeed is what the calibrator saw over one phase of a run.
type hostSpeed struct {
	// mapMS and allocMS are the mean thread CPU times of the two kernels'
	// slices. Means, not medians: a phase during which the host was slow a
	// third of the time took longer, and the median would not say so.
	mapMS, allocMS float64
	// kernelCPU is the CPU seconds the kernels themselves consumed.
	kernelCPU float64
	// steal is the share of the machine's CPU time the hypervisor gave away
	// while a thread here was ready to run. Process CPU time does not
	// include it; wall time does.
	steal float64
}

// cpuAtRef expresses a measured CPU time at the reference host speed.
func (h hostSpeed) cpuAtRef(seconds float64) float64 {
	return seconds * math.Pow(calibRefMapMS/h.mapMS*calibRefAllocMS/h.allocMS, calibExponent)
}

// wallAtRef expresses a measured wall time at the reference host speed:
// as cpuAtRef, with the stolen share removed. Rates divide by
// wallAtRef(1).
func (h hostSpeed) wallAtRef(t float64) float64 {
	return h.cpuAtRef(t) * (1 - h.steal)
}

// calibrator is the background sampler.
type calibrator struct {
	mu      sync.Mutex
	samples []calibSample
	stop    chan struct{}
	done    chan struct{}
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibRecord is what the allocation kernel encodes and decodes: the
// shape of a small API answer.
type calibRecord struct {
	A int     `json:"a"`
	B string  `json:"b"`
	C float64 `json:"c"`
	D []int   `json:"d"`
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		m := make(map[uint64]uint32, calibMapEntries)
		h := fnv.New64a()
		var buf [8]byte
		n := uint32(0)
		for {
			t0 := threadCPU()
			for i := 0; i < calibMapIters; i++ {
				n++
				buf[0], buf[1], buf[2], buf[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
				h.Write(buf[:])
				m[h.Sum64()&(calibMapEntries-1)]++
			}
			t1 := threadCPU()
			for i := 0; i < calibAllocIters; i++ {
				rec := calibRecord{A: i, B: "c0-0c1s2n3 machine check exception bank 4", C: float64(i) * 1.5, D: []int{i, i + 1, i + 2, i + 3}}
				b, err := json.Marshal(rec)
				var back map[string]any
				if err == nil {
					err = json.Unmarshal(b, &back)
				}
				if err != nil || len(back) != 4 {
					panic("calibration kernel: JSON round trip failed") // only a bug can do this
				}
			}
			t2 := threadCPU()
			c.mu.Lock()
			c.samples = append(c.samples, calibSample{
				at:      time.Now(),
				mapMS:   float64(t1-t0) / float64(time.Millisecond),
				allocMS: float64(t2-t1) / float64(time.Millisecond),
				cpu:     readCPUJiffies(),
			})
			c.mu.Unlock()
			select {
			case <-c.stop:
				return
			case <-time.After(calibPause):
			}
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// between summarises the rounds that ended in [from, to).
func (c *calibrator) between(from, to time.Time) hostSpeed {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sumMap, sumAlloc float64
	var first, last cpuJiffies
	n := 0
	for _, s := range c.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			if n == 0 {
				first = s.cpu
			}
			last = s.cpu
			sumMap += s.mapMS
			sumAlloc += s.allocMS
			n++
		}
	}
	if n == 0 {
		return hostSpeed{mapMS: calibRefMapMS, allocMS: calibRefAllocMS}
	}
	h := hostSpeed{
		mapMS:     sumMap / float64(n),
		allocMS:   sumAlloc / float64(n),
		kernelCPU: (sumMap + sumAlloc) / 1000,
	}
	if total := last.total - first.total; total > 0 {
		h.steal = (last.steal - first.steal) / total
	}
	return h
}

// memCounters snapshots the allocator and collector counters the
// per-layer metrics are derived from.
type memCounters struct {
	mallocs   uint64
	gcCPUFrac float64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, gcCPUFrac: ms.GCCPUFraction}
}
