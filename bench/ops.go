package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// kind selects the SDK call an op makes.
type kind uint8

const (
	kHeatmap kind = iota
	kHistogram
	kDistribution
	kWordCount
	kTFIDF
	kTE
	kCQLSelective
	kCQLBroad
	kEventsOneshot
	kEventsStream
	kEventsPaged
	kCQLRows
	kEventsBySource
	kRuns
)

var kindNames = [...]string{
	kHeatmap: "heatmap", kHistogram: "histogram", kDistribution: "distribution",
	kWordCount: "wordcount", kTFIDF: "tfidf", kTE: "te",
	kCQLSelective: "cql_selective", kCQLBroad: "cql_broad",
	kEventsOneshot: "events_oneshot", kEventsStream: "events_stream",
	kEventsPaged: "events_paged", kCQLRows: "cql_rows",
	kEventsBySource: "events_by_source", kRuns: "runs_oneshot",
}

// classHot is the latency class of re-asked requests: the same kinds as
// the miss classes, answered from the query result cache.
const classHot = "hot"

// pageSize is the cursor page of events_paged.
const pageSize = 500

// op is one request of a frozen sequence: what to ask, and what the
// generator's ground truth says the answer must contain.
type op struct {
	class  string
	kind   kind
	typ    model.EventType
	source string
	from   int64 // unix seconds, inclusive
	to     int64 // exclusive
	// want is the ground-truth row count (or histogram/aggregate sum) of
	// the window over the base corpus. slack is how many more rows a
	// concurrent writer may legitimately have added (ingest only).
	want  int
	slack int
}

// String renders the op canonically; two generations of one sequence
// must render byte-identically.
func (o op) String() string {
	return fmt.Sprintf("%s/%s %s %s [%d,%d) want=%d+%d", o.class, kindNames[o.kind], o.typ, o.source, o.from, o.to, o.want, o.slack)
}

// classSpec freezes one miss class: the event type and window length are
// constant within a class so its latency distribution is narrow, and the
// start is drawn without replacement so no window is ever asked twice.
type classSpec struct {
	kind   kind
	typ    model.EventType
	length int64 // window seconds
	weight int   // share of the miss ops
}

// dashboardClasses are aggregate queries: scan-and-fold dominates and the
// answer is a few hundred bytes. Lustre classes use windows that always
// contain the whole storm, so every window of a class does the same work.
var dashboardClasses = []classSpec{
	{kHeatmap, model.MemECC, 5400, 2},
	{kHistogram, model.MCE, 5400, 2},
	{kDistribution, model.Network, 7200, 2},
	{kWordCount, model.MemECC, 1800, 1},
	{kTFIDF, model.MCE, 1800, 1},
	{kTE, model.Lustre, 7200, 1},
	{kCQLSelective, model.MemECC, 1800, 3},
	{kCQLBroad, model.MemECC, 900, 2},
}

// browseClasses fetch raw rows: encode, wire and decode dominate a scan
// the store finishes in milliseconds.
var browseClasses = []classSpec{
	{kEventsOneshot, model.MemECC, 900, 2},
	{kEventsStream, model.MemECC, 900, 2},
	{kEventsPaged, model.MemECC, 900, 2},
	{kCQLRows, model.MemECC, 900, 2},
	{kEventsBySource, "", 7200, 2},
	{kRuns, "", 3600, 1},
}

// hotEvery places a hot op at every fifth position, cycling through the
// hot set in order: each hot request is re-asked every 5×16 = 80 ops, far
// inside the 256-entry LRU, so the hit count is exactly the number of hot
// ops whatever the interleaving of the two clients.
const (
	hotEvery = 5
	hotSet   = 16
)

// sequence is a frozen op list plus the hot requests to pre-ask.
type sequence struct {
	ops []op
	hot []op
	// warm are untimed ops on windows disjoint from every timed one.
	warm []op
}

// seqGen draws windows for one corpus.
type seqGen struct {
	c   *corpus
	rng *rand.Rand
	// base is the first second of the window range; span its length.
	base, span int64
	// stormFrom/stormTo bound the Lustre storm; Lustre windows contain it.
	stormFrom, stormTo int64
	// endIn, when set, is the first second of an hour every window must
	// end inside (ingest: the hour being written).
	endIn int64
}

func newSeqGen(c *corpus, seed int64) *seqGen {
	storm := c.cfg.Storms[0]
	return &seqGen{
		c:         c,
		rng:       rand.New(rand.NewSource(seed ^ 0x5eed)),
		base:      c.cfg.Start.Unix(),
		span:      int64(c.cfg.Duration.Seconds()),
		stormFrom: storm.Start.Unix(),
		stormTo:   storm.Start.Add(storm.Duration).Unix(),
	}
}

// starts returns n distinct window starts for a class, in seeded order.
// CQL classes address one hour partition, so their windows must not cross
// an hour boundary.
func (g *seqGen) starts(cs classSpec, n int) []int64 {
	var cand []int64
	switch {
	case cs.kind == kCQLSelective || cs.kind == kCQLBroad || cs.kind == kCQLRows:
		first, hours := g.base, g.span/3600
		if g.endIn != 0 {
			first, hours = g.endIn, 1
		}
		for h := int64(0); h < hours; h++ {
			for a := int64(0); a+cs.length <= 3600; a++ {
				cand = append(cand, first+h*3600+a)
			}
		}
	case g.endIn != 0:
		for s := g.endIn - cs.length + 1; s+cs.length <= g.endIn+3600; s++ {
			cand = append(cand, s)
		}
	case cs.typ == model.Lustre:
		for s := g.stormTo - cs.length; s <= g.stormFrom; s++ {
			if s >= g.base && s+cs.length <= g.base+g.span {
				cand = append(cand, s)
			}
		}
	default:
		for s := g.base; s+cs.length <= g.base+g.span; s++ {
			cand = append(cand, s)
		}
	}
	if n > len(cand) {
		panic(fmt.Sprintf("class %s: %d unique windows wanted, %d exist", kindNames[cs.kind], n, len(cand)))
	}
	g.rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	return cand[:n]
}

// make builds one op and fills in its ground truth.
func (g *seqGen) make(cs classSpec, i int, from int64) op {
	o := op{class: kindNames[cs.kind], kind: cs.kind, typ: cs.typ, from: from, to: from + cs.length}
	switch cs.kind {
	case kCQLSelective, kEventsBySource:
		// Busy sources, cycled: enough rows to be worth fetching.
		o.source = g.c.sources[i%min(64, len(g.c.sources))]
	}
	o.want = g.c.truth(o)
	return o
}

// truth is the ground-truth count the oracle compares an answer with, or
// -1 for classes whose answer has no count to check.
func (c *corpus) truth(o op) int {
	switch o.kind {
	case kWordCount, kTFIDF, kTE:
		return -1
	case kCQLSelective:
		return countIn(c.byTypeSource[typeSource{o.typ, o.source}], o.from, o.to)
	case kEventsBySource:
		return c.sourceCount(o.source, o.from, o.to)
	case kRuns:
		return c.runsOverlapping(o.from, o.to)
	default:
		return c.typeCount(o.typ, o.from, o.to)
	}
}

// build freezes a sequence of n ops over the given classes. With hot set,
// every hotEvery-th op re-asks one of hotSet fixed requests.
func (g *seqGen) build(classes []classSpec, n int, hot bool, warm int) *sequence {
	seq := &sequence{}
	misses := n
	if hot {
		misses = n - n/hotEvery
	}
	total := 0
	for _, cs := range classes {
		total += cs.weight
	}
	var miss []op
	for _, cs := range classes {
		k := (misses*cs.weight + total - 1) / total
		starts := g.starts(cs, k+warm)
		for i, s := range starts[:k] {
			miss = append(miss, g.make(cs, i, s))
		}
		for i, s := range starts[k:] {
			seq.warm = append(seq.warm, g.make(cs, k+i, s))
		}
	}
	g.rng.Shuffle(len(miss), func(i, j int) { miss[i], miss[j] = miss[j], miss[i] })
	miss = miss[:misses]
	if hot {
		// Hot requests reuse the cacheable kinds on the full corpus window,
		// one per (kind, type) pair.
		hotKinds := []kind{kHeatmap, kHistogram, kDistribution, kWordCount}
		hotTypes := []model.EventType{model.MemECC, model.MCE, model.Network, model.DVS}
		for i := 0; i < hotSet; i++ {
			cs := classSpec{kind: hotKinds[i%len(hotKinds)], typ: hotTypes[i/len(hotKinds)], length: g.span}
			o := g.make(cs, i, g.base)
			o.class = classHot
			seq.hot = append(seq.hot, o)
		}
	}
	m := 0
	for i := 0; i < n; i++ {
		if hot && i%hotEvery == hotEvery-1 {
			seq.ops = append(seq.ops, seq.hot[(i/hotEvery)%hotSet])
			continue
		}
		seq.ops = append(seq.ops, miss[m])
		m++
	}
	return seq
}

// answer is what came back: the row count (or aggregate sum) the oracle
// checks, and a digest of the whole answer for cross-run equality.
type answer struct {
	rows   int
	digest uint64
}

// digester folds an answer into an FNV-1a hash without allocating.
type digester struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigester() digester { return digester{fnvOffset} }

func (d *digester) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= fnvPrime
}

func (d *digester) str(s string) {
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
	d.byte(0xff) // terminator, so ("ab","c") and ("a","bc") differ
}

func (d *digester) num(v int64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digester) event(e query.EventRecord) {
	d.num(e.Time)
	d.str(e.Type)
	d.str(e.Source)
	d.num(int64(e.Count))
	d.str(e.Raw)
}

// cqlWindow is the WHERE clause addressing [from, to) of one hour
// partition of event_by_time.
func cqlWindow(o op) string {
	return fmt.Sprintf("partition = '%s' AND key >= '%s' AND key < '%s'",
		model.EventByTimeKey(o.from/3600, o.typ), store.EncodeTS(o.from), store.EncodeTS(o.to))
}

// run executes one op through the SDK and folds the answer.
func (o op) run(ctx context.Context, cli *client.Client) (answer, error) {
	qc := query.Context{EventType: string(o.typ), Source: o.source, From: o.from, To: o.to}
	d := newDigester()
	rows := 0
	switch o.kind {
	case kHeatmap:
		hm, err := client.Query[analytics.HeatMap](ctx, cli, query.Request{Op: query.OpHeatmap, Context: qc})
		if err != nil {
			return answer{}, err
		}
		for _, row := range hm.Counts {
			for _, n := range row {
				rows += n
				d.num(int64(n))
			}
		}
		if rows != hm.Total {
			return answer{}, fmt.Errorf("heatmap cells sum to %d, Total says %d", rows, hm.Total)
		}
	case kHistogram:
		bins, err := client.Query[[]int](ctx, cli, query.Request{Op: query.OpHistogram, Context: qc, BinSeconds: 60})
		if err != nil {
			return answer{}, err
		}
		for _, n := range bins {
			rows += n
			d.num(int64(n))
		}
	case kDistribution:
		bs, err := client.Query[[]analytics.Bucket](ctx, cli, query.Request{Op: query.OpDistribution, Context: qc, Level: "cage"})
		if err != nil {
			return answer{}, err
		}
		for _, b := range bs {
			rows += b.Count
			d.str(b.Label)
			d.num(int64(b.Count))
		}
	case kWordCount:
		ws, err := client.Query[[]query.WordCountEntry](ctx, cli, query.Request{Op: query.OpWordCount, Context: qc})
		if err != nil {
			return answer{}, err
		}
		for _, w := range ws {
			d.str(w.Term)
			d.num(int64(w.Count))
		}
		rows = len(ws)
	case kTFIDF:
		ts, err := client.Query[[]analytics.TermScore](ctx, cli, query.Request{Op: query.OpTFIDF, Context: qc})
		if err != nil {
			return answer{}, err
		}
		for _, t := range ts {
			d.str(t.Term)
			d.num(int64(math.Float64bits(t.Score)))
		}
		rows = len(ts)
	case kTE:
		te, err := client.Query[query.TEResponse](ctx, cli, query.Request{
			Op: query.OpTE, Context: qc, SecondType: string(model.AppAbort), BinSeconds: 60})
		if err != nil {
			return answer{}, err
		}
		if math.IsNaN(te.TEForward) || math.IsNaN(te.TEReverse) {
			return answer{}, fmt.Errorf("transfer entropy is NaN")
		}
		d.num(int64(math.Float64bits(te.TEForward)))
		d.num(int64(math.Float64bits(te.TEReverse)))
		rows = 1
	case kCQLSelective:
		res, err := cli.Session("ONE").Execute(ctx, fmt.Sprintf(
			"SELECT COUNT(*), SUM(amount) FROM event_by_time WHERE %s AND source = '%s'", cqlWindow(o), o.source))
		if err != nil {
			return answer{}, err
		}
		rows, err = foldAggregate(res, &d)
		if err != nil {
			return answer{}, err
		}
	case kCQLBroad:
		res, err := cli.Session("ONE").Execute(ctx, fmt.Sprintf(
			"SELECT source, COUNT(*) FROM event_by_time WHERE %s GROUP BY source", cqlWindow(o)))
		if err != nil {
			return answer{}, err
		}
		rows, err = foldAggregate(res, &d)
		if err != nil {
			return answer{}, err
		}
	case kEventsOneshot, kEventsBySource:
		evs, err := cli.Events(ctx, qc)
		if err != nil {
			return answer{}, err
		}
		for _, e := range evs {
			d.event(e)
		}
		rows = len(evs)
	case kEventsStream:
		err := cli.StreamEvents(ctx, qc, func(e query.EventRecord) error {
			d.event(e)
			rows++
			return nil
		})
		if err != nil {
			return answer{}, err
		}
	case kEventsPaged:
		err := cli.EachEvent(ctx, qc, pageSize, func(e query.EventRecord) error {
			d.event(e)
			rows++
			return nil
		})
		if err != nil {
			return answer{}, err
		}
	case kCQLRows:
		res, err := cli.Session("ONE").Execute(ctx,
			"SELECT source, amount, raw FROM event_by_time WHERE "+cqlWindow(o))
		if err != nil {
			return answer{}, err
		}
		for _, r := range res.Rows {
			d.str(r.Key)
			d.str(r.Columns["source"])
			d.str(r.Columns["raw"])
		}
		rows = len(res.Rows)
	case kRuns:
		rs, err := cli.Runs(ctx, query.Context{From: o.from, To: o.to})
		if err != nil {
			return answer{}, err
		}
		for _, r := range rs {
			d.str(r.JobID)
			d.num(r.Start)
		}
		rows = len(rs)
	}
	return answer{rows: rows, digest: d.h}, nil
}

// foldAggregate digests an aggregate CQL result and returns the sum of
// its COUNT(*) column — one row for a plain aggregate, one per group for
// GROUP BY.
func foldAggregate(res *cql.Result, d *digester) (int, error) {
	total := 0
	for _, r := range res.Rows {
		d.str(r.Key)
		d.str(r.Columns["source"])
		n, err := strconv.Atoi(r.Columns["count(*)"])
		if err != nil {
			return 0, fmt.Errorf("aggregate row %v has no count(*)", r.Columns)
		}
		d.num(int64(n))
		total += n
	}
	return total, nil
}

// check is the oracle: the answer's count must equal the generator's
// ground truth (allowing for rows a concurrent writer is adding).
func (o op) check(a answer) error {
	if o.want < 0 {
		if a.rows == 0 {
			return fmt.Errorf("%s: empty answer", o)
		}
		return nil
	}
	if a.rows < o.want || a.rows > o.want+o.slack {
		return fmt.Errorf("%s: answer counts %d rows", o, a.rows)
	}
	return nil
}
