// Package query implements the analytic server's query processing engine
// (Section III-A): it receives frontend requests in JSON form, translates
// them into backend store queries or compute-engine jobs, and returns
// JSON-serializable results. "Simple queries are directly handled by the
// query engine, and complex queries are passed to the big data processing
// unit" — Execute routes accordingly and counts both classes.
package query

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
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

	// The paper's Section V roadmap: event mining (rules, sequences,
	// episodes), application profiles and reliability statistics.
	OpRules       Op = "rules"       // big data: association rules between types
	OpSequences   Op = "sequences"   // big data: A-followed-by-B patterns
	OpEpisodes    Op = "episodes"    // big data: time-coalesced episodes
	OpProfiles    Op = "profiles"    // big data: application event profiles
	OpRunReport   Op = "run_report"  // big data: one run vs its profile
	OpReliability Op = "reliability" // big data: failure interarrival stats
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

	counters map[Op]*opCounter // one per entry of ops
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
	q := &Engine{db: db, compute: eng, cache: newResultCache(opts.CacheSize), counters: make(map[Op]*opCounter, len(ops))}
	for op := range ops {
		q.counters[op] = &opCounter{}
	}
	return q
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

func (q *Engine) note(op Op, elapsed time.Duration, cacheHit bool) {
	c := q.counters[op]
	c.count.Add(1)
	c.micros.Add(elapsed.Microseconds())
	if cacheHit {
		c.cacheHits.Add(1)
	}
}

// Metrics returns per-operation counters keyed by operation name, for
// every operation that has run.
func (q *Engine) Metrics() map[string]OpMetric {
	out := make(map[string]OpMetric)
	for op, c := range q.counters {
		m := OpMetric{
			Count:       c.count.Load(),
			TotalMicros: c.micros.Load(),
			CacheHits:   c.cacheHits.Load(),
		}
		if m.Count > 0 {
			m.AvgMicros = m.TotalMicros / m.Count
			out[string(op)] = m
		}
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

// AllOps lists every operation the engine supports, sorted. The
// engine-test corpus uses it to prove each op has coverage.
func AllOps() []Op { return slices.Sorted(maps.Keys(ops)) }

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
// query.exec stage around the op's run, so slow frontend queries land in
// the slow-query log alongside slow CQL.
func (q *Engine) ExecuteCtx(ctx context.Context, req Request) (any, error) {
	o, known := ops[req.Op]
	if !known {
		return nil, fmt.Errorf("query: unknown op %q", req.Op)
	}
	if !o.bigData {
		defer q.Track(ctx, req.Op)()
		return o.exec(q, req)
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
	res, err := o.exec(q, req)
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
// does around a simple op's run, for a result the caller produces itself
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

// typ is the request's event type.
func (r Request) typ() model.EventType { return model.EventType(r.Context.EventType) }

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

func (q *Engine) types(Request) (any, error) {
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

// EventTasks plans the scan of an events request — the one scan behind
// the records OpEvents returns and behind the server's encoded one-shot,
// streamed and paged event results.
func (q *Engine) EventTasks(req Request) ([]analytics.EventTask, error) {
	if err := hasWindow(req); err != nil {
		return nil, err
	}
	from, to := req.Context.Window()
	return analytics.PlanEvents(model.EventType(req.Context.EventType), req.Context.Source, from, to, analytics.ScanConfig{}), nil
}

func (q *Engine) events(req Request) (any, error) {
	tasks, err := q.EventTasks(req)
	if err != nil {
		return nil, err
	}
	return analytics.EventRecords(q.compute, q.db, tasks, func(r *analytics.EventRow) EventRecord {
		e := r.Event()
		return EventRecord{
			Time: r.Time, Type: string(e.Type), Source: e.Source,
			Count: e.Count, Raw: e.Raw, Attrs: e.Attrs,
		}
	})
}

func (q *Engine) runs(req Request) (any, error) {
	var runs []model.AppRun
	var err error
	switch from, to := req.Context.Window(); {
	case req.Context.User != "":
		runs, err = q.runsOf(model.TableAppByUser, req.Context.User)
	case req.Context.App != "":
		runs, err = q.runsOf(model.TableAppByLoc, req.Context.App)
	default:
		runs, err = analytics.RunsIn(q.db, from, to, 24*time.Hour)
	}
	if err != nil {
		return nil, err
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

// runsOf reads the runs of one partition of an application table.
func (q *Engine) runsOf(table, pkey string) ([]model.AppRun, error) {
	rows, err := q.db.Get(table, pkey, store.Range{}, store.One)
	if err != nil {
		return nil, err
	}
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

func (q *Engine) synopsis(req Request) (any, error) {
	rg := store.Range{}
	if req.Context.From != 0 {
		rg.From = store.EncodeTS(req.Context.From / 3600)
	}
	if req.Context.To != 0 {
		rg.To = store.EncodeTS((req.Context.To + 3599) / 3600)
	}
	rows, err := q.db.Get(model.TableEventSynopsis, req.Context.EventType, rg, store.One)
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

// TEResponse carries a transfer entropy measurement.
type TEResponse struct {
	First     string  `json:"first"`
	Second    string  `json:"second"`
	TEForward float64 `json:"te_forward"` // first -> second
	TEReverse float64 `json:"te_reverse"` // second -> first
	Direction string  `json:"direction,omitempty"`
}

// WordCountEntry is one term count.
type WordCountEntry struct {
	Term  string `json:"term"`
	Count int    `json:"count"`
}
