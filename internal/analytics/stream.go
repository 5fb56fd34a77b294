package analytics

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
	"hpclog/internal/topology"
)

// This file is the execution path of the aggregating operations: events
// are scanned per ring partition (further split into clustering-key time
// slices for parallelism beyond the hour-partition count) as store
// batches, fanned out on the compute scan planner, and folded into small
// per-task accumulators that are merged in task order. Results do not
// depend on the slicing or the parallelism — the engine-test corpus and
// TestScanParallelMatchesSerial enforce it — while memory stays
// proportional to aggregation state and throughput scales with
// GOMAXPROCS.

// ScanConfig parameterizes a partition-parallel scan, which runs as wide
// as its compute engine.
type ScanConfig struct {
	// Slice is the clustering-key time-slice width used to split one hour
	// partition into multiple scan tasks; <= 0 means 15 minutes. Slicing
	// never changes results, only the available parallelism.
	Slice time.Duration
}

func (c ScanConfig) slice() time.Duration {
	if c.Slice <= 0 {
		return 15 * time.Minute
	}
	if c.Slice < time.Second {
		return time.Second
	}
	return c.Slice
}

// sliceBounds splits [lo, hi) at absolute multiples of slice, so the same
// window is always cut the same way regardless of where it starts.
func sliceBounds(lo, hi time.Time, slice time.Duration) [][2]time.Time {
	step := int64(slice / time.Second)
	var out [][2]time.Time
	for cur := lo.Unix(); cur < hi.Unix(); {
		next := (cur/step + 1) * step
		if next > hi.Unix() {
			next = hi.Unix()
		}
		out = append(out, [2]time.Time{time.Unix(cur, 0).UTC(), time.Unix(next, 0).UTC()})
		cur = next
	}
	return out
}

// foldType is the aggregation path: it scans one event type over
// event_by_time in (partition, slice) tasks and folds every task's batches
// — clustering keys plus the projected columns, never a store.Row or a
// model.Event — into the task's accumulator; accumulators merge in task
// order. A batch dies when fold returns, so fold must clone any string it
// keeps. A fold of occurrence counts by time or by source passes whole,
// the take func of a store.Taker; others pass nil.
func foldType[A any](eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig,
	project []uint32, newAcc func() A, fold func(A, *store.Batch) (A, error), whole wholeFunc[A], merge func(A, A) A) (A, error) {
	units := PlanEvents(typ, "", from, to, cfg)
	tasks := make([]compute.FoldTask[A], len(units))
	var taken atomic.Int64
	for i, u := range units {
		pkey := model.EventByTimeKey(u.Hour, typ)
		tasks[i] = func(acc A) (A, int, error) {
			rows := 0
			var pr store.Pruner
			var t *store.Taker
			if whole != nil {
				t = &store.Taker{Range: u.Range, Take: func(b *store.BlockStats, sum int64) (ok bool) {
					acc, ok = whole(acc, b, sum)
					return ok
				}}
				pr = t
			}
			err := db.ScanPartitionBatches(context.TODO(), model.TableEventByTime, pkey, u.Range, project, pr, nil,
				func(b *store.Batch) (err error) {
					rows += b.Len()
					acc, err = fold(acc, b)
					return err
				})
			if t != nil {
				rows += t.Rows
				taken.Add(int64(t.Blocks))
			}
			return acc, rows, err
		}
	}
	acc, err := compute.ScanFold(eng, tasks, newAcc, merge)
	eng.NoteTaken(int(taken.Load()))
	return acc, err
}

// wholeFunc is a fold's take func: it adds to acc, from its footer
// statistics, a block whose every amount is an occurrence count, the
// counts summing to sum (wrapping as int64 does), reporting false — acc
// unchanged — when the fold cannot place the block without its rows.
type wholeFunc[A any] func(acc A, b *store.BlockStats, sum int64) (A, bool)

// Projections of the folds below.
var (
	projAmount       = []uint32{model.ColAmountID}
	projSourceAmount = []uint32{model.ColSourceID, model.ColAmountID}
	projRaw          = []uint32{model.ColRawID}
)

// foldCounts folds (source, amount) batches: each row adds its occurrence
// count under its source and what resolve makes of it. Where a batch
// carries the sources as a dictionary, resolve runs once per distinct
// source of the block — and of a section dictionary once for good — not
// once per row.
func foldCounts[A, S any](resolve *persist.DictFunc[S], add func(acc A, source string, s S, n int)) func(A, *store.Batch) (A, error) {
	return func(acc A, b *store.Batch) (A, error) {
		var counts [store.MaxBatchRows]int
		if err := model.EventCounts(b, counts[:b.Len()]); err != nil {
			return acc, err
		}
		var buf [persist.MaxDictLen]S
		if codes, dict, resolved := resolve.Resolve(b, model.ColSourceID, &buf); dict != nil {
			for i, c := range codes {
				add(acc, dict[c], resolved[c], counts[i])
			}
			return acc, nil
		}
		for i, source := range b.Col(model.ColSourceID) {
			add(acc, source, resolve.Of(source), counts[i])
		}
		return acc, nil
	}
}

// wholeBySource takes a block for a fold of occurrence counts by source,
// foldCounts(resolve, add), from its footer: one add with the source every
// row holds, where the zone map tells one, or one per entry of its group
// list of sources — the entries resolved once per section dictionary.
func wholeBySource[A, S any](resolve *persist.DictFunc[S], add func(acc A, source string, s S, n int)) wholeFunc[A] {
	return func(acc A, b *store.BlockStats, sum int64) (A, bool) {
		if source, ok := b.Only(model.ColSourceID); ok {
			add(acc, source, resolve.Of(source), int(sum))
			return acc, true
		}
		groups, dict, resolved, ok := resolve.Groups(b, model.ColSourceID)
		if !ok {
			return acc, false
		}
		for g, more := groups.Next(); more; g, more = groups.Next() {
			add(acc, dict[g.Code], resolved[g.Code], int(g.Sum))
		}
		return acc, true
	}
}

// cname is a source parsed as a node cname: its location, if it is one.
type cname struct {
	loc  topology.Location
	node bool
}

// cnameOf parses sources, once per entry of a section dictionary.
var cnameOf = persist.NewDictFunc(func(source string) cname {
	loc, err := topology.ParseCName(source)
	return cname{loc, err == nil}
})

func newCountMap[K comparable]() map[K]int { return make(map[K]int) }

func mergeCountMaps[K comparable](a, b map[K]int) map[K]int {
	for k, v := range b {
		a[k] += v
	}
	return a
}

// --- Streaming aggregations ---

func sumInts(a, b []int) []int {
	for i, v := range b {
		a[i] += v
	}
	return a
}

// heatAdd counts occurrences per cabinet index; non-compute sources
// (servers) have no floor position.
func heatAdd(acc []int, _ string, c cname, n int) {
	if c.node {
		acc[c.loc.Cabinet()] += n
	}
}

var heatFold = foldCounts(cnameOf, heatAdd)

// HeatmapScan computes the cabinet-level heat map of one event type over
// [from, to). A block that lists its sources in its footer is counted from
// there.
func HeatmapScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (*HeatMap, error) {
	return heatmapScan(eng, db, typ, from, to, cfg, wholeBySource(cnameOf, heatAdd))
}

// heatmapScan is HeatmapScan taking blocks through whole (nil: none).
func heatmapScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig, whole wholeFunc[[]int]) (*HeatMap, error) {
	counts, err := foldType(eng, db, typ, from, to, cfg, projSourceAmount,
		func() []int { return make([]int, topology.Cabinets) }, heatFold, whole, sumInts)
	if err != nil {
		return nil, err
	}
	hm := &HeatMap{Type: typ, From: from, To: to}
	for cab, n := range counts {
		hm.Counts[cab/topology.Cols][cab%topology.Cols] = n
		hm.Total += n
		if n > hm.Max {
			hm.Max = n
		}
	}
	return hm, nil
}

// distAcc counts occurrences per truncated location; sources that are not
// node cnames count under their own name.
type distAcc struct {
	locs  map[topology.Location]int
	other keyCounts
}

// DistributionByScan computes event occurrence distributions "over
// cabinets, blades, nodes" (Fig 5) at the requested granularity, sorted by
// descending count. A block that lists its sources in its footer is
// counted from there.
func DistributionByScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, level topology.Level, cfg ScanConfig) ([]Bucket, error) {
	return distributionScan(eng, db, typ, from, to, level, cfg, wholeBySource(cnameOf, distAdd(level)))
}

// distAdd counts a source at level: a place on the floor, cut to the
// level, or — not a node cname — a name of its own.
func distAdd(level topology.Level) func(acc distAcc, source string, c cname, n int) {
	return func(acc distAcc, source string, c cname, n int) {
		if c.node {
			acc.locs[truncateLoc(c.loc, level)] += n
		} else {
			acc.other.add(source, n)
		}
	}
}

// distributionScan is DistributionByScan taking blocks through whole (nil:
// none).
func distributionScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, level topology.Level, cfg ScanConfig, whole wholeFunc[distAcc]) ([]Bucket, error) {
	acc, err := foldType(eng, db, typ, from, to, cfg, projSourceAmount,
		func() distAcc { return distAcc{newCountMap[topology.Location](), keyCounts{}} },
		foldCounts(cnameOf, distAdd(level)), whole,
		func(a, b distAcc) distAcc {
			return distAcc{mergeCountMaps(a.locs, b.locs), a.other.merge(b.other)}
		})
	if err != nil {
		return nil, err
	}
	// One label per bucket, not per event.
	counts := acc.other.counts()
	for loc, n := range acc.locs {
		counts[topology.Component{Level: level, Loc: loc}.String()] += n
	}
	return sortBuckets(counts), nil
}

// DistributionByAppScan attributes event occurrences to the applications
// that were running on the reporting node at the reporting time (Fig 5's
// per-application distribution), returning descending buckets keyed by
// application name.
func DistributionByAppScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) ([]Bucket, error) {
	runs, err := RunsIn(db, from, to, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	type span struct {
		start, end time.Time
		app        string
	}
	byNode := make(map[string][]span)
	for _, r := range runs {
		for _, n := range r.Nodes {
			byNode[n] = append(byNode[n], span{r.Start, r.End, r.App})
		}
	}
	// A task's counts by application, and the runs of each node its
	// batches name, looked up once per distinct source where a block says
	// which those are — and once per section where it codes them into the
	// section's dictionary.
	type appAcc struct {
		counts map[string]int
		runsOf *persist.DictMemo[[]span]
	}
	acc, err := foldType(eng, db, typ, from, to, cfg, projSourceAmount,
		func() appAcc { return appAcc{newCountMap[string](), new(persist.DictMemo[[]span])} },
		func(acc appAcc, b *store.Batch) (appAcc, error) {
			var counts [store.MaxBatchRows]int
			if err := model.EventCounts(b, counts[:b.Len()]); err != nil {
				return acc, err
			}
			sources := b.Col(model.ColSourceID)
			codes, dict, runsOf, fresh := acc.runsOf.Resolve(b, model.ColSourceID)
			if fresh {
				for k, source := range dict {
					runsOf[k] = byNode[source]
				}
			}
			times, err := model.EventTimes(b)
			if err != nil {
				return acc, err
			}
		rows:
			for i, n := range counts[:b.Len()] {
				var spans []span
				if dict != nil {
					spans = runsOf[codes[i]]
				} else {
					spans = byNode[sources[i]]
				}
				at := time.Unix(times[i], 0)
				for _, s := range spans {
					if !at.Before(s.start) && at.Before(s.end) {
						acc.counts[s.app] += n
						continue rows
					}
				}
				acc.counts["(idle)"] += n
			}
			return acc, nil
		},
		nil, func(a, b appAcc) appAcc { return appAcc{mergeCountMaps(a.counts, b.counts), a.runsOf} })
	if err != nil {
		return nil, err
	}
	return sortBuckets(acc.counts), nil
}

// EventSitesScan lists, for one event type and instant (to the second),
// the nodes reporting it (Fig 6-top), with occurrence counts.
func EventSitesScan(eng *compute.Engine, db *store.DB, typ model.EventType, at time.Time, cfg ScanConfig) (map[string]int, error) {
	acc, err := foldType(eng, db, typ, at, at.Add(time.Second), cfg, projSourceAmount,
		func() keyCounts { return keyCounts{} },
		foldCounts(cnameOf, func(acc keyCounts, source string, _ cname, n int) { acc.add(source, n) }),
		nil, keyCounts.merge)
	return acc.counts(), err
}

// keyCounts counts by string keys, which may alias a batch: batch strings
// die with their batch, and results outlive the scan. A key is cloned on
// first insert, and its count sits behind a pointer so that no later add
// assigns to the map — an assignment stores the key it is given, even
// over an equal one.
type keyCounts map[string]*int

func (c keyCounts) add(key string, n int) {
	if p, ok := c[key]; ok {
		*p += n
		return
	}
	c[strings.Clone(key)] = &n
}

func (c keyCounts) merge(d keyCounts) keyCounts {
	for k, p := range d {
		c.add(k, *p)
	}
	return c
}

// counts returns the counts as a plain map.
func (c keyCounts) counts() map[string]int {
	out := make(map[string]int, len(c))
	for k, p := range c {
		out[k] = *p
	}
	return out
}

// MaxBins is the most bins a histogram (and so a transfer-entropy series)
// may have.
const MaxBins = 1 << 20

// HistogramScan bins occurrences of one event type over [from, to) into
// fixed-width bins — the temporal map's data (Fig 5-top). A block that
// lies in one bin is counted from its footer.
func HistogramScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) ([]int, error) {
	h, err := binning(from, to, bin)
	if err != nil {
		return nil, err
	}
	acc, err := foldType(eng, db, typ, from, to, cfg, projAmount, newBinCounts, histFold(h), h.whole, h.merge)
	if err != nil {
		return nil, err
	}
	return h.merge(acc, binCounts{}).counts, nil
}

// bins is the binning of a histogram: n bins of the width, the first
// starting at from.
type bins struct {
	from  time.Time
	width time.Duration
	n     int
}

// binning validates a histogram request.
func binning(from, to time.Time, width time.Duration) (bins, error) {
	if width <= 0 {
		return bins{}, fmt.Errorf("analytics: non-positive bin %v", width)
	}
	n := int(to.Sub(from) / width)
	if n < 1 {
		return bins{}, fmt.Errorf("analytics: window %v shorter than bin %v", to.Sub(from), width)
	}
	if n > MaxBins {
		return bins{}, fmt.Errorf("analytics: window %v in bins of %v is %d bins, more than the limit of %d", to.Sub(from), width, n, MaxBins)
	}
	return bins{from: from, width: width, n: n}, nil
}

// of returns the bin of an occurrence at ts (unix seconds); later
// occurrences land in the last bin, and a negative bin counts nowhere. It
// never decreases as ts grows, so a block whose first and last rows share
// a bin lies in it whole.
func (h bins) of(ts int64) int {
	return min(int(time.Unix(ts, 0).Sub(h.from)/h.width), h.n-1)
}

// whole takes a block whose keys all carry timestamps and whose first and
// last rows fall in one bin.
func (h bins) whole(acc binCounts, b *store.BlockStats, sum int64) (binCounts, bool) {
	lo, hi, timed := b.TimeBounds()
	bi := h.of(lo)
	if !timed || bi != h.of(hi) {
		return acc, false
	}
	if bi >= 0 {
		acc.add(bi, int(sum))
	}
	return acc, true
}

// merge adds a task's counts into out, which spans all n bins once merged
// into.
func (h bins) merge(out, a binCounts) binCounts {
	if out.counts == nil {
		out.counts = make([]int, h.n) // out.lo is 0
	}
	for i, n := range a.counts {
		out.counts[a.lo+i] += n
	}
	return out
}

// binCounts is a histogram task's accumulator: the counts of bins lo,
// lo+1, … as far as the task's rows reach. It grows on first use, so a
// task that folds nothing allocates nothing, and one over a 15-minute
// slice of a 30-day window of 60 s bins holds 15 bins, not 43 200.
type binCounts struct {
	lo     int
	counts []int
}

func newBinCounts() binCounts { return binCounts{} }

// add adds n to bin i.
func (c *binCounts) add(i, n int) {
	switch {
	case c.counts == nil:
		c.lo, c.counts = i, make([]int, 1)
	case i < c.lo:
		c.counts = append(make([]int, c.lo-i, c.lo-i+len(c.counts)), c.counts...)
		c.lo = i
	case i >= c.lo+len(c.counts):
		c.counts = append(c.counts, make([]int, i+1-c.lo-len(c.counts))...)
	}
	c.counts[i-c.lo] += n
}

// histFold bins (key, amount) batches.
func histFold(h bins) func(binCounts, *store.Batch) (binCounts, error) {
	return func(acc binCounts, b *store.Batch) (binCounts, error) {
		var counts [store.MaxBatchRows]int
		if err := model.EventCounts(b, counts[:b.Len()]); err != nil {
			return acc, err
		}
		times, err := model.EventTimes(b)
		if err != nil {
			return acc, err
		}
		for i, n := range counts[:b.Len()] {
			if bi := h.of(times[i]); bi >= 0 {
				acc.add(bi, n)
			}
		}
		return acc, nil
	}
}

// BuildSeriesScan bins occurrences of one type over [from, to) into a
// series.
func BuildSeriesScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) (*Series, error) {
	hist, err := HistogramScan(eng, db, typ, from, to, bin, cfg)
	if err != nil {
		return nil, err
	}
	return &Series{Type: typ, From: from, Bin: bin, Counts: hist}, nil
}

// TransferEntropyBetweenScan builds binary series for two event types
// over the window and measures transfer entropy in both directions — the
// "investigation of correlation between two event occurrences within a
// selected time interval, which can provide a causal relationship between
// the two" (Section III-C).
func TransferEntropyBetweenScan(eng *compute.Engine, db *store.DB, a, b model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) (TEResult, error) {
	sa, err := BuildSeriesScan(eng, db, a, from, to, bin, cfg)
	if err != nil {
		return TEResult{}, err
	}
	sb, err := BuildSeriesScan(eng, db, b, from, to, bin, cfg)
	if err != nil {
		return TEResult{}, err
	}
	x, y := sa.Binary(), sb.Binary()
	xy, err := TransferEntropy(x, y)
	if err != nil {
		return TEResult{}, err
	}
	yx, err := TransferEntropy(y, x)
	if err != nil {
		return TEResult{}, err
	}
	return TEResult{XToY: xy, YToX: yx}, nil
}

// termStat is one term's running statistics: occurrences, documents
// containing it, and the last document that counted towards df.
type termStat struct{ tf, df, lastDoc int }

// termAcc is the vocabulary of a text fold. A token costs one hash probe:
// the table knows every run the fold has seen, as spelled in the message,
// and maps it to its term's position — or to -1 for a spelling that yields
// no token (stopword, single character) — so case folding and the stopword
// check run once per spelling, not once per occurrence. The table holds no
// pointer: slots index parallel entries (hash, end of the spelling in
// keys, value), and every spelling is copied into the keys arena, never
// kept as a substring of a (dying) batch. Accumulators are recycled
// through termAccs.
type termAcc struct {
	slots []int32  // open-addressed, a power of two long: an entry + 1, or 0 for none
	hash  []uint64 // each entry's spelling, hashed with vocabSeed
	end   []uint32 // where each entry's spelling ends in keys
	val   []int32  // each entry's term position, or -1
	keys  []byte

	terms  []int32 // the entry of the term at each position
	stats  []termStat
	docs   int
	scores []termRank // topTerms' room

	tmpls map[*persist.Template]*tmplTerms // what the task made of each template it met
	holes []*holeTerms                     // and of each hole column's dictionary

	// The batch being folded: the templates its rows take, its view of
	// each hole column they name, and each template's views in viewIx.
	bt     []batchTmpl
	views  []holeView
	viewIx []int32
}

// vocabSeed hashes every spelling, so that accumulators merge by the
// hashes they stored.
var vocabSeed = maphash.MakeSeed()

// termAccs recycles text-fold accumulators; New makes one with the
// smallest table.
var termAccs = sync.Pool{New: func() any {
	return &termAcc{slots: make([]int32, 16), tmpls: make(map[*persist.Template]*tmplTerms)}
}}

func newTermAcc() *termAcc { return termAccs.Get().(*termAcc) }

// release returns a to termAccs, emptied.
func (a *termAcc) release() {
	a.reset()
	termAccs.Put(a)
}

// reset empties a, keeping its room but no reference into a store: no
// template, no section dictionary.
func (a *termAcc) reset() {
	clear(a.slots)
	a.hash, a.end, a.val, a.keys = a.hash[:0], a.end[:0], a.val[:0], a.keys[:0]
	a.terms, a.stats, a.docs = a.terms[:0], a.stats[:0], 0
	clear(a.tmpls)
	for _, h := range a.holes {
		h.spans.Forget()
		h.flat = h.flat[:0]
	}
	clear(a.bt[:cap(a.bt)])
	clear(a.views[:cap(a.views)])
	a.bt, a.views = a.bt[:0], a.views[:0]
}

// key returns the spelling of entry e.
func (a *termAcc) key(e int32) []byte {
	lo := uint32(0)
	if e > 0 {
		lo = a.end[e-1]
	}
	return a.keys[lo:a.end[e]]
}

// find returns the entry spelled k, which hashes to h, or -1 and the free
// slot where k goes.
func find[K string | []byte](a *termAcc, k K, h uint64) (e int32, slot int) {
	mask := len(a.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		x := a.slots[i] - 1
		if x < 0 {
			return -1, i
		}
		if a.hash[x] == h && string(a.key(x)) == string(k) {
			return x, i
		}
	}
}

// insert adds the entry k, hashed h, with value v at the free slot find
// returned for it, growing the table past half full, and returns it.
func insert[K string | []byte](a *termAcc, k K, h uint64, v int32, slot int) int32 {
	e := int32(len(a.val))
	a.keys = append(a.keys, k...)
	a.end = append(a.end, uint32(len(a.keys)))
	a.hash = append(a.hash, h)
	a.val = append(a.val, v)
	if 2*len(a.val) <= len(a.slots) {
		a.slots[slot] = e + 1
		return e
	}
	a.slots = make([]int32, 2*len(a.slots))
	mask := len(a.slots) - 1
	for x, hx := range a.hash {
		i := int(hx) & mask
		for a.slots[i] != 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = int32(x) + 1
	}
	return e
}

// addTerm adds the term k, hashed h, at the free slot find returned for
// it, and returns its position.
func addTerm[K string | []byte](a *termAcc, k K, h uint64, slot int) int32 {
	p := int32(len(a.terms))
	a.terms = append(a.terms, insert(a, k, h, p, slot))
	a.stats = append(a.stats, termStat{})
	return p
}

// termOf returns the position of the term k, hashed h, adding it on first
// sight.
func termOf[K string | []byte](a *termAcc, k K, h uint64) int32 {
	e, slot := find(a, k, h)
	if e < 0 {
		return addTerm(a, k, h, slot)
	}
	return a.val[e]
}

// term returns the term at position p.
func (a *termAcc) term(p int32) []byte { return a.key(a.terms[p]) }

// positionOf returns the position of a run's term, or -1 for a run that is
// none, filing a spelling seen for the first time.
func (a *termAcc) positionOf(run string, clean bool) int32 {
	if len(run) < 2 {
		return -1 // one byte is one ASCII character: never a token
	}
	h := maphash.String(vocabSeed, run)
	e, slot := find(a, run, h)
	if e >= 0 {
		return a.val[e]
	}
	switch tok := tokenOf(run, clean); {
	case tok == "":
		insert(a, run, h, -1, slot)
		return -1
	case clean:
		return addTerm(a, run, h, slot) // the term itself
	default: // folding made tok another spelling
		p := termOf(a, tok, maphash.String(vocabSeed, tok))
		_, slot = find(a, run, h) // termOf may have taken the slot or grown the table
		insert(a, run, h, p, slot)
		return p
	}
}

// tmplTerms is what a text fold makes of a template, once per section:
// the positions of its constants' tokens, as often as each occurs, whether
// its cells tokenise as constants and holes apart — no hole touching a
// letter or digit of the constants, or another hole — and whether it has
// no constant text.
type tmplTerms struct {
	terms []int32
	apart bool
	bare  bool
}

// holeTerms is what a text fold makes of the dictionary of a hole column:
// the positions of each entry's tokens, in flat, once per section.
type holeTerms struct {
	id    uint32
	spans persist.DictMemo[termSpan]
	flat  []int32
}

// termSpan is where an entry's token positions lie in its holeTerms.flat.
type termSpan struct {
	lo, hi int32
	done   bool
}

// batchTmpl is a template as the batch being folded shows it: what the
// fold makes of it, where the views of its holes start in viewIx, and
// whether its rows are counted by tuple — every hole coded into a
// dictionary, and no more holes than a tuple key packs.
type batchTmpl struct {
	t     *persist.Template
	tt    *tmplTerms
	holes int
	tuple bool
}

// holeView is a hole column as the batch being folded shows it, resolved
// once per batch: its codes, the dictionary they index and the term spans
// of the entries, or — where the block does not code it so — its cells.
type holeView struct {
	h     *holeTerms
	codes []uint8
	dict  []string
	spans []termSpan
	cells []string
}

// maxTupleHoles is the most holes a tuple key packs: a byte for the
// template's place in the batch, then a code byte per hole.
const maxTupleHoles = 7

// templateFolds switches the text folds' template path; off, they
// tokenise every cell reassembled (the differential tests' reference).
var templateFolds = true

// note counts n occurrences of the term at i in the current documents —
// the last n counted, which share their terms: df grows by n the first
// time the term is noted under the current document count.
func (a *termAcc) note(i int32, n int) {
	st := &a.stats[i]
	st.tf += n
	if st.lastDoc != a.docs {
		st.lastDoc = a.docs
		st.df += n
	}
}

// count notes the term of a run, if it has one.
func (a *termAcc) count(run string, clean bool) {
	if i := a.positionOf(run, clean); i >= 0 {
		a.note(i, 1)
	}
}

// doc counts a message's text as one document; "" is none.
func (a *termAcc) doc(text string) {
	if text != "" {
		a.docs++
		eachRun(text, a.count)
	}
}

// foldDocs counts every raw message of a batch as one document. Events
// without raw text are skipped. Where the batch holds the messages in
// template form, a template's constants are tokenised once per section, a
// hole column is resolved once per batch and a hole value tokenised once
// per entry of its column's dictionary; the rows whose holes are all so
// coded are counted once per distinct (template, hole codes) tuple.
func (a *termAcc) foldDocs(b *store.Batch) (*termAcc, error) {
	codes, tmpls, cells := b.Template(model.ColRawID)
	if codes == nil || !templateFolds {
		for _, raw := range b.Col(model.ColRawID) {
			a.doc(raw)
		}
		return a, nil
	}
	a.bt, a.views, a.viewIx = a.bt[:0], a.views[:0], a.viewIx[:0]
	var place [persist.MaxDictLen]uint8 // by template code: 1 + the template's place in a.bt, 0 before its first row
	var tuples tupleCounts
	for i, c := range codes {
		if c == 0 {
			a.doc(cells[i])
			continue
		}
		if place[c] == 0 {
			a.batchTemplate(b, &tmpls[c-1])
			place[c] = uint8(len(a.bt))
		}
		k := place[c] - 1
		switch bt := &a.bt[k]; {
		case !bt.tt.apart:
			a.doc(b.Col(model.ColRawID)[i])
		case bt.tuple:
			key := uint64(k)
			for h, v := range a.viewIx[bt.holes : bt.holes+len(bt.t.Holes)] {
				key |= uint64(a.views[v].codes[i]) << (8 * (h + 1))
			}
			tuples.add(key, i)
		default:
			a.rowDocs(bt, i, 1)
		}
	}
	for t, i := range tuples.first[:tuples.len] {
		a.rowDocs(&a.bt[place[codes[i]]-1], int(i), tuples.rows[t])
	}
	return a, nil
}

// tupleCounts counts the rows of a batch by tuple key — a template's place
// in the batch, then the codes of its holes, a byte each — and keeps each
// key's first row.
type tupleCounts struct {
	slots [2 * store.MaxBatchRows]uint8 // open-addressed: 1 + the place of a key, or 0 for none
	keys  [store.MaxBatchRows]uint64    // the keys in order of first sight
	first [store.MaxBatchRows]uint8     // the first row of each
	rows  [store.MaxBatchRows]int       // and the rows of each
	len   int
}

// add counts row i, of tuple key.
func (c *tupleCounts) add(key uint64, i int) {
	for h := key * 0x9e3779b97f4a7c15 >> 32; ; h++ {
		switch s := &c.slots[h%uint64(len(c.slots))]; {
		case *s == 0:
			c.keys[c.len], c.first[c.len], c.rows[c.len] = key, uint8(i), 1
			c.len++
			*s = uint8(c.len)
			return
		case c.keys[*s-1] == key:
			c.rows[*s-1]++
			return
		}
	}
}

// batchTemplate adds t to the batch's templates, resolving each hole
// column it names that no earlier template of the batch did.
func (a *termAcc) batchTemplate(b *store.Batch, t *persist.Template) {
	bt := batchTmpl{t: t, tt: a.template(t), holes: len(a.viewIx), tuple: len(t.Holes) <= maxTupleHoles}
	if bt.tt.apart {
		for _, id := range t.Holes {
			v := a.view(b, id)
			bt.tuple = bt.tuple && a.views[v].dict != nil
			a.viewIx = append(a.viewIx, v)
		}
	}
	a.bt = append(a.bt, bt)
}

// view returns the place in a.views of the batch's view of hole column id,
// resolved on the first call of the batch.
func (a *termAcc) view(b *store.Batch, id uint32) int32 {
	for v := range a.views {
		if a.views[v].h.id == id {
			return int32(v)
		}
	}
	var h *holeTerms
	for _, x := range a.holes {
		if x.id == id {
			h = x
		}
	}
	if h == nil {
		h = &holeTerms{id: id}
		a.holes = append(a.holes, h)
	}
	v := holeView{h: h}
	var fresh bool
	if v.codes, v.dict, v.spans, fresh = h.spans.Resolve(b, id); v.dict == nil {
		v.cells = b.Col(id)
	} else if fresh {
		h.flat = h.flat[:0]
	}
	a.views = append(a.views, v)
	return int32(len(a.views) - 1)
}

// span returns the term positions of entry c of v's dictionary, tokenised
// on first use.
func (a *termAcc) span(v *holeView, c uint8) []int32 {
	sp, h := &v.spans[c], v.h
	if !sp.done {
		lo := len(h.flat)
		eachRun(v.dict[c], func(run string, clean bool) {
			if p := a.positionOf(run, clean); p >= 0 {
				h.flat = append(h.flat, p)
			}
		})
		*sp = termSpan{int32(lo), int32(len(h.flat)), true}
	}
	return h.flat[sp.lo:sp.hi]
}

// rowDocs counts n rows of template bt that hold row i's terms as n
// documents: the constants' terms, then each hole's, off its dictionary or
// tokenised from row i's cell (then n is 1). Each term counts n times per
// occurrence, and in n documents once: note stamps it with the document
// count, which the n rows share. A cell of a template without constant
// text is "" where every hole is.
func (a *termAcc) rowDocs(bt *batchTmpl, i, n int) {
	views := a.viewIx[bt.holes : bt.holes+len(bt.t.Holes)]
	empty := bt.tt.bare
	for _, x := range views {
		empty = empty && a.views[x].cell(i) == ""
	}
	if empty {
		return
	}
	a.docs += n
	for _, p := range bt.tt.terms {
		a.note(p, n)
	}
	for _, x := range views {
		v := &a.views[x]
		if v.dict == nil {
			eachRun(v.cells[i], a.count)
			continue
		}
		for _, p := range a.span(v, v.codes[i]) {
			a.note(p, n)
		}
	}
}

// cell returns row i's cell.
func (v *holeView) cell(i int) string {
	if v.dict != nil {
		return v.dict[v.codes[i]]
	}
	return v.cells[i]
}

// template returns what the fold makes of t, made on first sight.
func (a *termAcc) template(t *persist.Template) *tmplTerms {
	if tt, ok := a.tmpls[t]; ok {
		return tt
	}
	tt := &tmplTerms{apart: true, bare: true}
	for k := range t.Holes {
		before, after := t.Consts[k], t.Consts[k+1]
		if before != "" && wordByte(before[len(before)-1]) || after != "" && wordByte(after[0]) ||
			after == "" && k+1 < len(t.Holes) {
			tt.apart = false
		}
	}
	for _, c := range t.Consts {
		tt.bare = tt.bare && c == ""
		if tt.apart { // else the fold reads the reassembled cells: a term learnt here would show with no count
			eachRun(c, func(run string, clean bool) {
				if i := a.positionOf(run, clean); i >= 0 {
					tt.terms = append(tt.terms, i)
				}
			})
		}
	}
	a.tmpls[t] = tt
	return tt
}

// wordByte reports whether c may be part of a run: a letter or digit, or
// a byte of a multi-byte character.
func wordByte(c byte) bool { return byteClass[c] != 0 }

// merge folds the smaller of two vocabularies into the larger, probing
// with the hashes it stored, and releases the smaller.
func (a *termAcc) merge(b *termAcc) *termAcc {
	if len(a.terms) < len(b.terms) {
		a, b = b, a
	}
	for j, e := range b.terms {
		i := termOf(a, b.key(e), b.hash[e])
		a.stats[i].tf += b.stats[j].tf
		a.stats[i].df += b.stats[j].df
	}
	a.docs += b.docs
	b.release()
	return a
}

// scanTerms folds the raw messages of one type into a vocabulary.
func scanTerms(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (*termAcc, error) {
	return foldType(eng, db, typ, from, to, cfg, projRaw, newTermAcc, (*termAcc).foldDocs, nil, (*termAcc).merge)
}

// WordCountScan runs the word count over the raw messages of one type —
// "a simple word counts, which is rapidly executed by Spark, can locate
// the source of the problem".
func WordCountScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (map[string]int, error) {
	acc, err := scanTerms(eng, db, typ, from, to, cfg)
	if err != nil {
		return nil, err
	}
	defer acc.release()
	return acc.wordCounts(), nil
}

// wordCounts returns each term's occurrences.
func (a *termAcc) wordCounts() map[string]int {
	counts := make(map[string]int, len(a.terms))
	for p, e := range a.terms {
		counts[string(a.key(e))] = a.stats[p].tf
	}
	return counts
}

// TFIDFScan computes aggregate TF-IDF weights over the raw messages of one
// type. Each message is a document; term frequency is summed across
// documents and weighted by inverse document frequency, so boilerplate
// shared by every message scores near zero while discriminating
// identifiers (an unresponsive OST, an error code) float to the top.
// Document frequency is counted once per document, so the result does not
// depend on how the scan is partitioned. It returns the k best terms — all
// of them when k <= 0 — by descending score, ties by term; a window
// without messages yields nil.
func TFIDFScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, k int, cfg ScanConfig) ([]TermScore, error) {
	acc, err := scanTerms(eng, db, typ, from, to, cfg)
	if err != nil {
		return nil, err
	}
	defer acc.release()
	return acc.topTerms(k), nil
}

// termRank is the TF-IDF score of the term at position p.
type termRank struct {
	p     int32
	score float64
}

// topTerms scores every term by position and builds the strings of only
// the k best (TFIDFScan's order); nil when a holds no document. Terms of
// one score — every one-off term of a window has the same — are ordered
// by their spellings, which are read only on such a tie.
func (a *termAcc) topTerms(k int) []TermScore {
	if a.docs == 0 {
		return nil
	}
	a.scores = a.scores[:0]
	idf, idfOf := 0.0, -1 // most terms share their df with the term before
	for p, st := range a.stats {
		if st.df != idfOf {
			idf, idfOf = math.Log(float64(1+a.docs)/float64(1+st.df)), st.df
		}
		a.scores = append(a.scores, termRank{int32(p), float64(st.tf) * idf})
	}
	top := TopK(a.scores, k, func(x, y termRank) int {
		if c := cmp.Compare(y.score, x.score); c != 0 {
			return c
		}
		return bytes.Compare(a.term(x.p), a.term(y.p))
	})
	out := make([]TermScore, len(top))
	for i, s := range top {
		out[i] = TermScore{Term: string(a.term(s.p)), Score: s.score}
	}
	return out
}
