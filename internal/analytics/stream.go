package analytics

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

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

// ScanConfig parameterizes a partition-parallel scan.
type ScanConfig struct {
	// Parallelism bounds concurrent scan tasks; <= 0 means GOMAXPROCS.
	Parallelism int
	// Slice is the clustering-key time-slice width used to split one hour
	// partition into multiple scan tasks; <= 0 means 15 minutes. Slicing
	// never changes results, only the available parallelism.
	Slice time.Duration
}

func (c ScanConfig) opts() compute.ScanOptions {
	return compute.ScanOptions{Parallelism: c.Parallelism}
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
// keeps. A fold of occurrence counts by time alone passes whole, which
// takes blocks without reading them (see taker); others pass nil.
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
			if whole != nil {
				t := &taker[A]{rg: u.Range, whole: whole, acc: &acc, rows: &rows}
				defer func() { taken.Add(int64(t.blocks)) }()
				pr = t
			}
			err := db.ScanPartitionBatches(context.TODO(), model.TableEventByTime, pkey, u.Range, project, pr, nil,
				func(b *store.Batch) (err error) {
					rows += b.Len()
					acc, err = fold(acc, b)
					return err
				})
			return acc, rows, err
		}
	}
	acc, err := compute.ScanFold(eng, cfg.opts(), tasks, newAcc, merge)
	eng.NoteTaken(int(taken.Load()))
	return acc, err
}

// wholeFunc adds to acc a block of rows whose clustering timestamps lie in
// [minTS, maxTS] and whose occurrence counts sum to sum (wrapping as int64
// does), reporting false — acc unchanged — when the fold cannot place the
// block without its rows.
type wholeFunc[A any] func(acc A, minTS, maxTS, sum int64) (A, bool)

// taker is the Pruner through which a fold task takes blocks whole. A
// block inside the task's range, whose footer says every key carries a
// timestamp and every amount is an occurrence count, and which whole
// accepts from its first and last timestamps and its count sum, is added
// to the accumulator from the footer and skipped: never read, fetched or
// decoded. The store offers only blocks no other merge input shadows, so
// the rows taken are exactly the rows the scan would have folded; they
// count in the task's rows as if read.
type taker[A any] struct {
	rg     store.Range
	whole  wholeFunc[A]
	acc    *A
	rows   *int
	blocks int // taken
}

func (t *taker[A]) PruneBlock(b *store.BlockStats) bool {
	if b.MinKey < t.rg.From || b.MaxKey >= t.rg.To {
		return false
	}
	lo, hi, timed := b.TimeBounds()
	counts, sum := b.Counts(model.ColAmountID)
	if !timed || counts != b.Rows {
		return false
	}
	acc, ok := t.whole(*t.acc, lo, hi, sum)
	if ok {
		*t.acc, *t.rows, t.blocks = acc, *t.rows+b.Rows, t.blocks+1
	}
	return ok
}

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

// heatFold counts occurrences per cabinet index; non-compute sources
// (servers) have no floor position.
var heatFold = foldCounts(cnameOf, func(acc []int, _ string, c cname, n int) {
	if c.node {
		acc[c.loc.Cabinet()] += n
	}
})

// HeatmapScan computes the cabinet-level heat map of one event type over
// [from, to).
func HeatmapScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (*HeatMap, error) {
	counts, err := foldType(eng, db, typ, from, to, cfg, projSourceAmount,
		func() []int { return make([]int, topology.Cabinets) }, heatFold, nil, sumInts)
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
	other map[string]int
}

// DistributionByScan computes event occurrence distributions "over
// cabinets, blades, nodes" (Fig 5) at the requested granularity, sorted by
// descending count.
func DistributionByScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, level topology.Level, cfg ScanConfig) ([]Bucket, error) {
	// A source is a place on the floor, cut to the level, or — not a node
	// cname — a name of its own.
	acc, err := foldType(eng, db, typ, from, to, cfg, projSourceAmount,
		func() distAcc { return distAcc{newCountMap[topology.Location](), newCountMap[string]()} },
		foldCounts(cnameOf, func(acc distAcc, source string, c cname, n int) {
			if c.node {
				acc.locs[truncateLoc(c.loc, level)] += n
			} else {
				countKey(acc.other, source, n)
			}
		}),
		nil,
		func(a, b distAcc) distAcc {
			return distAcc{mergeCountMaps(a.locs, b.locs), mergeCountMaps(a.other, b.other)}
		})
	if err != nil {
		return nil, err
	}
	// One label per bucket, not per event.
	for loc, n := range acc.locs {
		acc.other[topology.Component{Level: level, Loc: loc}.String()] += n
	}
	return sortBuckets(acc.other), nil
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
	return foldType(eng, db, typ, at, at.Add(time.Second), cfg, projSourceAmount,
		newCountMap[string],
		foldCounts(cnameOf, func(acc map[string]int, source string, _ cname, n int) { countKey(acc, source, n) }),
		nil, mergeCountMaps[string])
}

// countKey adds n to acc[key], cloning key on first insert: batch strings
// die with their batch, and result maps outlive the scan.
func countKey(acc map[string]int, key string, n int) {
	if v, ok := acc[key]; ok {
		acc[key] = v + n
	} else {
		acc[strings.Clone(key)] = n
	}
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

// whole takes a block whose first and last rows fall in one bin.
func (h bins) whole(acc binCounts, minTS, maxTS, sum int64) (binCounts, bool) {
	bi := h.of(minTS)
	if bi != h.of(maxTS) {
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

// termAcc is the vocabulary of a text fold. A token costs one map probe:
// index knows every run the fold has seen, as spelled in the message, and
// maps it to its term's position — or to -1 for a spelling that yields no
// token (stopword, single character) — so case folding and the stopword
// check run once per spelling, not once per occurrence. Every retained
// key is a clone, never a substring of a (dying) batch.
type termAcc struct {
	index map[string]int32
	terms []string // the term at each position
	stats []termStat
	docs  int

	tmpls map[*persist.Template]*tmplTerms // what the task made of each template it met
	holes []*holeTerms                     // and of each hole column's dictionary
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

// templateFolds switches the text folds' template path; off, they
// tokenise every cell reassembled (the differential tests' reference).
var templateFolds = true

func newTermAcc() *termAcc {
	return &termAcc{index: make(map[string]int32), tmpls: make(map[*persist.Template]*tmplTerms)}
}

// position returns the position of a term (an owned string), adding it on
// first sight.
func (a *termAcc) position(term string) int32 {
	i, ok := a.index[term]
	if !ok {
		i = int32(len(a.terms))
		a.index[term] = i
		a.terms = append(a.terms, term)
		a.stats = append(a.stats, termStat{})
	}
	return i
}

// learn files a spelling seen for the first time.
func (a *termAcc) learn(run string, clean bool) int32 {
	i := int32(-1)
	if tok := tokenOf(run, clean); tok != "" {
		if clean {
			return a.position(strings.Clone(tok)) // the term itself
		}
		i = a.position(tok) // folding made tok a fresh string
	}
	a.index[strings.Clone(run)] = i
	return i
}

// position returns the position of a run's term, or -1 for a run that is
// none.
func (a *termAcc) positionOf(run string, clean bool) int32 {
	if len(run) < 2 {
		return -1 // one byte is one ASCII character: never a token
	}
	i, ok := a.index[run]
	if !ok {
		i = a.learn(run, clean)
	}
	return i
}

// note counts an occurrence of the term at i in the current document.
func (a *termAcc) note(i int32) {
	st := &a.stats[i]
	st.tf++
	if st.lastDoc != a.docs {
		st.lastDoc = a.docs
		st.df++
	}
}

// foldDocs counts every raw message of a batch as one document. Events
// without raw text are skipped. Where the batch holds the messages in
// template form, a template's constants are tokenised once per section
// and a hole value once per entry of its column's dictionary.
func (a *termAcc) foldDocs(b *store.Batch) (*termAcc, error) {
	count := func(run string, clean bool) {
		if i := a.positionOf(run, clean); i >= 0 {
			a.note(i)
		}
	}
	codes, tmpls, cells := b.Template(model.ColRawID)
	if codes == nil || !templateFolds {
		for _, raw := range b.Col(model.ColRawID) {
			if raw != "" {
				a.docs++
				eachRun(raw, count)
			}
		}
		return a, nil
	}
	var byCode [persist.MaxDictLen]*tmplTerms
	for i, c := range codes {
		if c == 0 {
			if cells[i] != "" {
				a.docs++
				eachRun(cells[i], count)
			}
			continue
		}
		t := &tmpls[c-1]
		tt := byCode[c]
		if tt == nil {
			tt = a.template(t)
			byCode[c] = tt
		}
		if !tt.apart {
			if raw := b.Col(model.ColRawID)[i]; raw != "" {
				a.docs++
				eachRun(raw, count)
			}
			continue
		}
		if tt.bare && !holeText(b, t, i) {
			continue // the cell is ""
		}
		a.docs++
		for _, p := range tt.terms {
			a.note(p)
		}
		for _, id := range t.Holes {
			a.holeDoc(b, id, i, count)
		}
	}
	return a, nil
}

// holeText reports whether row i fills any hole of t with text.
func holeText(b *store.Batch, t *persist.Template, i int) bool {
	for _, id := range t.Holes {
		if b.Col(id)[i] != "" {
			return true
		}
	}
	return false
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
func wordByte(c byte) bool { return c >= utf8.RuneSelf || asciiClass[c] != 0 }

// holeDoc counts the tokens of row i's cell of hole column id in the
// current document: off the column's dictionary, tokenised once per entry
// per section, where the batch codes it so.
func (a *termAcc) holeDoc(b *store.Batch, id uint32, i int, count func(string, bool)) {
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
	codes, dict, spans, fresh := h.spans.Resolve(b, id)
	if dict == nil {
		eachRun(b.Col(id)[i], count)
		return
	}
	if fresh {
		h.flat = h.flat[:0]
	}
	sp := &spans[codes[i]]
	if !sp.done {
		lo := len(h.flat)
		eachRun(dict[codes[i]], func(run string, clean bool) {
			if p := a.positionOf(run, clean); p >= 0 {
				h.flat = append(h.flat, p)
			}
		})
		*sp = termSpan{int32(lo), int32(len(h.flat)), true}
	}
	for _, p := range h.flat[sp.lo:sp.hi] {
		a.note(p)
	}
}

func (a *termAcc) merge(b *termAcc) *termAcc {
	if len(a.terms) == 0 {
		b.docs += a.docs
		return b
	}
	for j, term := range b.terms {
		i := a.position(term)
		a.stats[i].tf += b.stats[j].tf
		a.stats[i].df += b.stats[j].df
	}
	a.docs += b.docs
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
	counts := make(map[string]int, len(acc.terms))
	for i, term := range acc.terms {
		counts[term] = acc.stats[i].tf
	}
	return counts, nil
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
	if acc.docs == 0 {
		return nil, nil
	}
	out := make([]TermScore, len(acc.terms))
	for i, term := range acc.terms {
		st := acc.stats[i]
		idf := math.Log(float64(1+acc.docs) / float64(1+st.df))
		out[i] = TermScore{Term: term, Score: float64(st.tf) * idf}
	}
	return TopK(out, k, func(a, b TermScore) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Term, b.Term))
	}), nil
}
