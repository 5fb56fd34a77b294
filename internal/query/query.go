// Package query implements the analytic server's query processing engine
// (Section III-A): it receives frontend requests in JSON form, translates
// them into backend store queries or compute-engine jobs, and returns
// JSON-serializable results. "Simple queries are directly handled by the
// query engine, and complex queries are passed to the big data processing
// unit" — Execute routes accordingly and counts both classes.
package query

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/obs"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Context is the user-selected view of the system: "a context is selected
// on the basis of event type, application, location, user, time period, or
// a combination of these" (Section III-B).
type Context struct {
	EventType string `json:"event_type,omitempty"`
	Source    string `json:"source,omitempty"` // component cname
	App       string `json:"app,omitempty"`
	User      string `json:"user,omitempty"`
	From      int64  `json:"from,omitempty"` // unix seconds, inclusive
	To        int64  `json:"to,omitempty"`   // unix seconds, exclusive
}

// Window returns the context's [from, to) interval.
func (c Context) Window() (time.Time, time.Time) {
	return time.Unix(c.From, 0).UTC(), time.Unix(c.To, 0).UTC()
}

// Op names a query operation.
type Op string

// Supported operations.
const (
	OpEvents       Op = "events"           // simple: raw event rows for a context
	OpRuns         Op = "runs"             // simple: application runs for a context
	OpSynopsis     Op = "synopsis"         // simple: per-hour counts from eventsynopsis
	OpNodeInfo     Op = "nodeinfo"         // simple: nodeinfos lookup for a cabinet
	OpTypes        Op = "types"            // simple: event type catalog
	OpHeatmap      Op = "heatmap"          // big data: cabinet heat map
	OpDistribution Op = "distribution"     // big data: occurrence distribution
	OpHistogram    Op = "histogram"        // big data: temporal histogram
	OpTE           Op = "transfer_entropy" // big data: TE between two types
	OpWordCount    Op = "wordcount"        // big data: word count over raw text
	OpTFIDF        Op = "tfidf"            // big data: TF-IDF over raw text
	OpPlacement    Op = "placement"        // simple: app placement at an instant
	OpSites        Op = "sites"            // big data: event sites at an instant
)

// Request is one frontend query.
type Request struct {
	Op      Op      `json:"op"`
	Context Context `json:"context"`
	// Level selects distribution granularity: cabinet, cage, blade, node,
	// or app.
	Level string `json:"level,omitempty"`
	// BinSeconds sets the bin width for histogram/TE series (default 60).
	BinSeconds int `json:"bin_seconds,omitempty"`
	// SecondType is the other event type for transfer entropy.
	SecondType string `json:"second_type,omitempty"`
	// TopK bounds result size for wordcount/tfidf/distribution (default 50).
	TopK int `json:"top_k,omitempty"`
	// At is the instant (unix seconds) for placement/sites queries.
	At int64 `json:"at,omitempty"`
}

// Stats counts executed queries by routing class.
type Stats struct {
	Simple  int64
	BigData int64
}

// Options tunes the engine's result caching; its scans run as wide as its
// compute engine. The zero value selects sensible defaults.
type Options struct {
	// CacheSize is the big-data result cache capacity in entries; 0 means
	// 256, negative disables caching.
	CacheSize int
}

// Engine is the query processing engine.
type Engine struct {
	db      *store.DB
	compute *compute.Engine
	cache   *resultCache

	simple  atomic.Int64
	bigdata atomic.Int64

	opMu sync.Mutex
	ops  map[Op]*opCounter
}

// New creates a query engine over the backend database and the big data
// processing unit with default Options.
func New(db *store.DB, eng *compute.Engine) *Engine {
	return NewWithOptions(db, eng, Options{})
}

// NewWithOptions creates a query engine with explicit options.
func NewWithOptions(db *store.DB, eng *compute.Engine, opts Options) *Engine {
	if opts.CacheSize == 0 {
		opts.CacheSize = 256
	}
	return &Engine{
		db: db, compute: eng,
		cache: newResultCache(opts.CacheSize),
		ops:   make(map[Op]*opCounter),
	}
}

// Stats returns how many queries each routing class has served.
func (q *Engine) Stats() Stats {
	return Stats{Simple: q.simple.Load(), BigData: q.bigdata.Load()}
}

// CacheStats returns a snapshot of result-cache counters.
func (q *Engine) CacheStats() CacheStats { return q.cache.stats() }

// opCounter accumulates per-operation execution counters.
type opCounter struct {
	count     atomic.Int64
	micros    atomic.Int64
	cacheHits atomic.Int64
}

// OpMetric is a per-operation latency/cache snapshot, surfaced through
// the analytic server's stats endpoint.
type OpMetric struct {
	Count       int64 `json:"count"`
	TotalMicros int64 `json:"total_micros"`
	AvgMicros   int64 `json:"avg_micros"`
	CacheHits   int64 `json:"cache_hits"`
}

func (q *Engine) counter(op Op) *opCounter {
	q.opMu.Lock()
	defer q.opMu.Unlock()
	c := q.ops[op]
	if c == nil {
		c = &opCounter{}
		q.ops[op] = c
	}
	return c
}

func (q *Engine) note(op Op, elapsed time.Duration, cacheHit bool) {
	c := q.counter(op)
	c.count.Add(1)
	c.micros.Add(elapsed.Microseconds())
	if cacheHit {
		c.cacheHits.Add(1)
	}
}

// Metrics returns per-operation counters keyed by operation name.
func (q *Engine) Metrics() map[string]OpMetric {
	q.opMu.Lock()
	defer q.opMu.Unlock()
	out := make(map[string]OpMetric, len(q.ops))
	for op, c := range q.ops {
		m := OpMetric{
			Count:       c.count.Load(),
			TotalMicros: c.micros.Load(),
			CacheHits:   c.cacheHits.Load(),
		}
		if m.Count > 0 {
			m.AvgMicros = m.TotalMicros / m.Count
		}
		out[string(op)] = m
	}
	return out
}

// EventRecord is the JSON shape of one event in query results.
type EventRecord struct {
	Time   int64             `json:"ts"`
	Type   string            `json:"type"`
	Source string            `json:"source"`
	Count  int               `json:"count"`
	Raw    string            `json:"raw,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// RunRecord is the JSON shape of one application run.
type RunRecord struct {
	JobID  string   `json:"jobid"`
	App    string   `json:"app"`
	User   string   `json:"user"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	Nodes  []string `json:"nodes"`
	ExitOK bool     `json:"exit_ok"`
}

// opClass maps every supported operation to its routing class:
// true routes to the big data processing unit (partition-parallel scan,
// result cache), false is served directly from the store.
var opClass = map[Op]bool{
	OpEvents: false, OpRuns: false, OpSynopsis: false, OpNodeInfo: false,
	OpTypes: false, OpPlacement: false,
	OpHeatmap: true, OpDistribution: true, OpHistogram: true, OpTE: true,
	OpWordCount: true, OpTFIDF: true, OpSites: true,
	OpRules: true, OpSequences: true, OpEpisodes: true,
	OpProfiles: true, OpRunReport: true, OpReliability: true,
}

// AllOps lists every operation the engine supports, sorted. The
// engine-test corpus uses it to prove each op has coverage.
func AllOps() []Op {
	ops := make([]Op, 0, len(opClass))
	for op := range opClass {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// cacheKey canonically encodes a request for the result cache. Request is
// a flat struct, so its JSON encoding is deterministic.
func cacheKey(req Request) string {
	b, err := json.Marshal(req)
	if err != nil {
		return fmt.Sprintf("%+v", req)
	}
	return string(b)
}

// Execute runs one request and returns a JSON-serializable result.
// Big-data operations are planned as partition-parallel streaming scans
// and their results cached keyed on (op, context, parameters); cached
// values are invalidated whenever the store's generation advances (every
// ingest write does). Cached results are shared — callers must not mutate
// what Execute returns.
func (q *Engine) Execute(req Request) (any, error) {
	return q.ExecuteCtx(context.Background(), req)
}

// ExecuteCtx is Execute with a request context: the context's trace span
// (if any) records the operation name as the slow-query text and a
// query.exec stage around the dispatch, so slow frontend queries land in
// the slow-query log alongside slow CQL.
func (q *Engine) ExecuteCtx(ctx context.Context, req Request) (any, error) {
	bigdata, known := opClass[req.Op]
	if !known {
		return nil, fmt.Errorf("query: unknown op %q", req.Op)
	}
	if !bigdata {
		defer q.Track(ctx, req.Op)()
		return q.dispatch(req)
	}
	obs.SpanFromContext(ctx).SetQuery("op:" + string(req.Op))
	started := time.Now()
	q.bigdata.Add(1)
	gen := q.db.Generation()
	key := cacheKey(req)
	if res, ok := q.cache.get(key, gen); ok {
		q.note(req.Op, time.Since(started), true)
		return res, nil
	}
	st := obs.StartSpan(ctx, "query.exec")
	res, err := q.dispatch(req)
	st.End()
	if err == nil && q.db.Generation() == gen {
		// Only cache results whose input data provably did not change
		// while the scan ran.
		q.cache.put(key, gen, res)
	}
	q.note(req.Op, time.Since(started), false)
	return res, err
}

// Track opens the accounting of one simple operation — what ExecuteCtx
// does around its own dispatch, for a result the caller produces itself
// (the server encodes events straight off the scan): the operation counts
// as simple and in its per-op counters, and the context's trace span gets
// the operation name and a query.exec stage. The returned func closes it.
func (q *Engine) Track(ctx context.Context, op Op) (end func()) {
	obs.SpanFromContext(ctx).SetQuery("op:" + string(op))
	started := time.Now()
	q.simple.Add(1)
	st := obs.StartSpan(ctx, "query.exec")
	return func() {
		st.End()
		q.note(op, time.Since(started), false)
	}
}

// dispatch routes one request to its implementation.
func (q *Engine) dispatch(req Request) (any, error) {
	switch req.Op {
	case OpTypes:
		return q.types()
	case OpNodeInfo:
		return q.nodeInfo(req)
	case OpEvents:
		return q.events(req)
	case OpRuns:
		return q.runs(req)
	case OpSynopsis:
		return q.synopsis(req)
	case OpPlacement:
		return analytics.Placement(q.db, time.Unix(req.At, 0).UTC())
	case OpSites:
		typ, err := req.eventType()
		if err != nil {
			return nil, err
		}
		return analytics.EventSitesScan(q.compute, q.db, typ, time.Unix(req.At, 0).UTC(), analytics.ScanConfig{})
	case OpHeatmap:
		typ, err := req.eventType()
		if err != nil {
			return nil, err
		}
		from, to, err := req.window()
		if err != nil {
			return nil, err
		}
		return analytics.HeatmapScan(q.compute, q.db, typ, from, to, analytics.ScanConfig{})
	case OpDistribution:
		return q.distribution(req)
	case OpHistogram:
		typ, err := req.eventType()
		if err != nil {
			return nil, err
		}
		from, to, err := req.window()
		if err != nil {
			return nil, err
		}
		return analytics.HistogramScan(q.compute, q.db, typ, from, to, req.bin(), analytics.ScanConfig{})
	case OpTE:
		return q.transferEntropy(req)
	case OpWordCount:
		return q.wordCount(req)
	case OpTFIDF:
		return q.tfidf(req)
	case OpRules, OpSequences, OpEpisodes, OpProfiles, OpRunReport, OpReliability:
		return q.runExtension(req)
	}
	panic("unreachable")
}

func (r Request) eventType() (model.EventType, error) {
	if r.Context.EventType == "" {
		return "", fmt.Errorf("query: op %q requires context.event_type", r.Op)
	}
	return model.EventType(r.Context.EventType), nil
}

func (r Request) window() (time.Time, time.Time, error) {
	from, to := r.Context.Window()
	if !to.After(from) {
		return from, to, fmt.Errorf("query: op %q requires a non-empty [from, to) window", r.Op)
	}
	return from, to, nil
}

func (r Request) bin() time.Duration {
	if r.BinSeconds <= 0 {
		return time.Minute
	}
	return time.Duration(r.BinSeconds) * time.Second
}

func (r Request) topK() int {
	if r.TopK <= 0 {
		return 50
	}
	return r.TopK
}

func (q *Engine) types() (any, error) {
	rows, err := q.db.Get(model.TableEventTypes, "all", store.Range{}, store.One)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(rows))
	for _, r := range rows {
		out[r.Key] = r.Col("description")
	}
	return out, nil
}

func (q *Engine) nodeInfo(req Request) (any, error) {
	if req.Context.Source == "" {
		return nil, fmt.Errorf("query: nodeinfo requires context.source (a cabinet cname)")
	}
	comp, err := topology.ParseComponent(req.Context.Source)
	if err != nil {
		return nil, err
	}
	cab := fmt.Sprintf("c%d-%d", comp.Loc.Col, comp.Loc.Row)
	rows, err := q.db.Get(model.TableNodeInfos, cab, store.Range{}, store.One)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]string, 0, len(rows))
	for _, r := range rows {
		if !comp.Contains(mustLoc(r.Key)) {
			continue
		}
		m := map[string]string{"cname": r.Key}
		for _, c := range r.Cols() {
			m[store.ColumnName(c.ID)] = c.Value
		}
		out = append(out, m)
	}
	return out, nil
}

func mustLoc(cname string) topology.Location {
	l, err := topology.ParseCName(cname)
	if err != nil {
		return topology.Location{Row: -1}
	}
	return l
}

// EventTasks plans the scan of an events request under the engine's scan
// tuning — the one scan behind the records OpEvents returns and behind the
// server's encoded one-shot, streamed and paged event results.
func (q *Engine) EventTasks(req Request) ([]analytics.EventTask, error) {
	from, to, err := req.window()
	if err != nil {
		return nil, err
	}
	return analytics.PlanEvents(model.EventType(req.Context.EventType), req.Context.Source, from, to, analytics.ScanConfig{}), nil
}

func (q *Engine) events(req Request) ([]EventRecord, error) {
	tasks, err := q.EventTasks(req)
	if err != nil {
		return nil, err
	}
	out, err := analytics.EventRecords(q.compute, q.db, tasks, func(r *analytics.EventRow) EventRecord {
		e := r.Event()
		return EventRecord{
			Time: r.Time, Type: string(e.Type), Source: e.Source,
			Count: e.Count, Raw: e.Raw, Attrs: e.Attrs,
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (q *Engine) runs(req Request) ([]RunRecord, error) {
	var runs []model.AppRun
	switch {
	case req.Context.User != "":
		rows, err := q.db.Get(model.TableAppByUser, req.Context.User, store.Range{}, store.One)
		if err != nil {
			return nil, err
		}
		runs, err = decodeRuns(rows)
		if err != nil {
			return nil, err
		}
	case req.Context.App != "":
		rows, err := q.db.Get(model.TableAppByLoc, req.Context.App, store.Range{}, store.One)
		if err != nil {
			return nil, err
		}
		var err2 error
		runs, err2 = decodeRuns(rows)
		if err2 != nil {
			return nil, err2
		}
	default:
		from, to, err := req.window()
		if err != nil {
			return nil, err
		}
		runs, err = analytics.RunsIn(q.db, from, to, 24*time.Hour)
		if err != nil {
			return nil, err
		}
	}
	if req.Context.From != 0 || req.Context.To != 0 {
		from, to := req.Context.Window()
		filtered := runs[:0]
		for _, r := range runs {
			if r.Start.Before(to) && r.End.After(from) {
				filtered = append(filtered, r)
			}
		}
		runs = filtered
	}
	// (start, jobid) is a strict total order: job IDs are unique, so the
	// result order is deterministic and paginated reads can resume on it.
	sort.Slice(runs, func(i, j int) bool {
		if !runs[i].Start.Equal(runs[j].Start) {
			return runs[i].Start.Before(runs[j].Start)
		}
		return runs[i].JobID < runs[j].JobID
	})
	out := make([]RunRecord, len(runs))
	for i, r := range runs {
		out[i] = RunRecord{
			JobID: r.JobID, App: r.App, User: r.User,
			Start: r.Start.Unix(), End: r.End.Unix(),
			Nodes: r.Nodes, ExitOK: r.ExitOK,
		}
	}
	return out, nil
}

func decodeRuns(rows []store.Row) ([]model.AppRun, error) {
	runs := make([]model.AppRun, 0, len(rows))
	for _, r := range rows {
		run, err := model.AppFromRow(r)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// SynopsisEntry is one per-hour synopsis row.
type SynopsisEntry struct {
	Hour    int64 `json:"hour"`
	Count   int   `json:"count"`
	Sources int   `json:"sources"`
}

func (q *Engine) synopsis(req Request) ([]SynopsisEntry, error) {
	typ, err := req.eventType()
	if err != nil {
		return nil, err
	}
	rg := store.Range{}
	if req.Context.From != 0 {
		rg.From = store.EncodeTS(req.Context.From / 3600)
	}
	if req.Context.To != 0 {
		rg.To = store.EncodeTS((req.Context.To + 3599) / 3600)
	}
	rows, err := q.db.Get(model.TableEventSynopsis, string(typ), rg, store.One)
	if err != nil {
		return nil, err
	}
	out := make([]SynopsisEntry, 0, len(rows))
	for _, r := range rows {
		hour, err := store.DecodeTS(r.Key)
		if err != nil {
			return nil, err
		}
		count, _ := strconv.Atoi(r.Col("count"))
		sources, _ := strconv.Atoi(r.Col("sources"))
		out = append(out, SynopsisEntry{Hour: hour, Count: count, Sources: sources})
	}
	return out, nil
}

func (q *Engine) distribution(req Request) ([]analytics.Bucket, error) {
	typ, err := req.eventType()
	if err != nil {
		return nil, err
	}
	from, to, err := req.window()
	if err != nil {
		return nil, err
	}
	var buckets []analytics.Bucket
	switch req.Level {
	case "app":
		buckets, err = analytics.DistributionByAppScan(q.compute, q.db, typ, from, to, analytics.ScanConfig{})
	case "cabinet", "":
		buckets, err = analytics.DistributionByScan(q.compute, q.db, typ, from, to, topology.LevelCabinet, analytics.ScanConfig{})
	case "cage":
		buckets, err = analytics.DistributionByScan(q.compute, q.db, typ, from, to, topology.LevelCage, analytics.ScanConfig{})
	case "blade":
		buckets, err = analytics.DistributionByScan(q.compute, q.db, typ, from, to, topology.LevelBlade, analytics.ScanConfig{})
	case "node":
		buckets, err = analytics.DistributionByScan(q.compute, q.db, typ, from, to, topology.LevelNode, analytics.ScanConfig{})
	default:
		return nil, fmt.Errorf("query: unknown distribution level %q", req.Level)
	}
	if err != nil {
		return nil, err
	}
	if k := req.topK(); len(buckets) > k {
		buckets = buckets[:k]
	}
	return buckets, nil
}

// TEResponse carries a transfer entropy measurement.
type TEResponse struct {
	First     string  `json:"first"`
	Second    string  `json:"second"`
	TEForward float64 `json:"te_forward"` // first -> second
	TEReverse float64 `json:"te_reverse"` // second -> first
	Direction string  `json:"direction,omitempty"`
}

func (q *Engine) transferEntropy(req Request) (TEResponse, error) {
	typ, err := req.eventType()
	if err != nil {
		return TEResponse{}, err
	}
	if req.SecondType == "" {
		return TEResponse{}, fmt.Errorf("query: transfer_entropy requires second_type")
	}
	from, to, err := req.window()
	if err != nil {
		return TEResponse{}, err
	}
	res, err := analytics.TransferEntropyBetweenScan(q.compute, q.db, typ,
		model.EventType(req.SecondType), from, to, req.bin(), analytics.ScanConfig{})
	if err != nil {
		return TEResponse{}, err
	}
	return TEResponse{
		First:     string(typ),
		Second:    req.SecondType,
		TEForward: res.XToY,
		TEReverse: res.YToX,
		Direction: res.Direction(0),
	}, nil
}

// WordCountEntry is one term count.
type WordCountEntry struct {
	Term  string `json:"term"`
	Count int    `json:"count"`
}

func (q *Engine) wordCount(req Request) ([]WordCountEntry, error) {
	typ, err := req.eventType()
	if err != nil {
		return nil, err
	}
	from, to, err := req.window()
	if err != nil {
		return nil, err
	}
	counts, err := analytics.WordCountScan(q.compute, q.db, typ, from, to, analytics.ScanConfig{})
	if err != nil {
		return nil, err
	}
	out := make([]WordCountEntry, 0, len(counts))
	for term, c := range counts {
		out = append(out, WordCountEntry{Term: term, Count: c})
	}
	return analytics.TopK(out, req.topK(), func(a, b WordCountEntry) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Term, b.Term))
	}), nil
}

func (q *Engine) tfidf(req Request) ([]analytics.TermScore, error) {
	typ, err := req.eventType()
	if err != nil {
		return nil, err
	}
	from, to, err := req.window()
	if err != nil {
		return nil, err
	}
	return analytics.TFIDFScan(q.compute, q.db, typ, from, to, req.topK(), analytics.ScanConfig{})
}
