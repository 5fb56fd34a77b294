// Package server implements the web-facing analytic server of Section
// III-A: it accepts frontend queries as JSON, dispatches them through the
// query engine (which routes between the backend database and the big data
// processing unit), and returns results as JSON objects "to avoid data
// format conversion at the frontend".
//
// The public surface is the versioned /v1 wire protocol defined in
// internal/api: enveloped JSON with machine-readable error codes and
// request IDs, cursor pagination and NDJSON streaming for row-returning
// results, and a push-based /v1/watch subscription hub woken by the store
// write path (no poll interval anywhere). Every enveloped answer leaves
// through one writer, writeV1, and every streamed one through ndjson; both
// build their bytes with the api package's wire codec.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/obs"
	"hpclog/internal/plan"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Config tunes the server's HTTP surface hardening. The zero value
// selects production defaults.
type Config struct {
	// MaxBodyBytes caps every POST body (http.MaxBytesReader); <= 0 means
	// 1 MiB.
	MaxBodyBytes int64
	// MaxWatchTimeout caps the timeout_ms a watch client may request;
	// <= 0 means 2 minutes.
	MaxWatchTimeout time.Duration
	// MaxPageLimit caps the page size a client may request; <= 0 means
	// 10000.
	MaxPageLimit int
	// WatchInFlight caps concurrent watch subscriptions; 0 selects 256,
	// negative disables the limit.
	WatchInFlight int
	// WatchTailRing is the per-event-type tail-ring capacity in rows: a
	// watch subscriber lagging more than this many writes behind the
	// shard head falls back to a stability-window scan. <= 0 means 4096.
	// Tests set it tiny to exercise the overflow path.
	WatchTailRing int
	// SlowQueryThreshold is the request duration at or above which a
	// trace is captured in the slow-query log served by GET
	// /v1/debug/slow; <= 0 means 500ms. Tests set it to 1ns to capture
	// everything.
	SlowQueryThreshold time.Duration
	// Logger receives the server's structured log records; nil discards
	// them.
	Logger *slog.Logger
}

// Fixed surface limits: the page size of a paginated request that sets
// none, the per-route in-flight caps (the watch cap is
// Config.WatchInFlight), the /v1/replicate body cap — a replica batch
// legitimately outgrows a public request — and the slow-trace ring size.
const (
	defaultPageLimit      = 1000
	queryInFlight         = 64
	cqlInFlight           = 64
	streamInFlight        = 16
	storageInFlight       = 4
	clusterInFlight       = 128
	replicateMaxBodyBytes = 32 << 20
	slowQueryLog          = 128
)

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxWatchTimeout <= 0 {
		c.MaxWatchTimeout = 2 * time.Minute
	}
	if c.MaxPageLimit <= 0 {
		c.MaxPageLimit = 10000
	}
	switch {
	case c.WatchInFlight == 0:
		c.WatchInFlight = 256
	case c.WatchInFlight < 0:
		c.WatchInFlight = 0 // unlimited
	}
	if c.WatchTailRing <= 0 {
		c.WatchTailRing = defaultTailRing
	}
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	}
	return c
}

// Server wires the query engine into an http.Handler.
type Server struct {
	q   *query.Engine
	db  *store.DB
	eng *compute.Engine
	cfg Config
	mux *http.ServeMux

	hub      *hub
	limiters map[string]*limiter
	// cluster, when attached, answers /v1/cluster and heartbeats (see
	// AttachCluster; nil on single-process deployments).
	cluster ClusterBackend

	// tracer captures per-request spans; requests slower than the
	// configured threshold land in its slow-query ring (/v1/debug/slow).
	tracer *obs.Tracer
	// routeHist accumulates per-route request latency, keyed by URL
	// pattern; built at route registration, read-only afterwards.
	routeHist map[string]*obs.Hist
	lg        *slog.Logger

	// now allows tests to fake time; defaults to time.Now.
	now func() time.Time

	reqPrefix string
	reqSeq    atomic.Int64

	cancelNotify func()
	closeOnce    sync.Once
}

// NewWithConfig creates a server with explicit surface hardening.
func NewWithConfig(q *query.Engine, db *store.DB, eng *compute.Engine, cfg Config) *Server {
	var pfx [4]byte
	_, _ = rand.Read(pfx[:])
	s := &Server{
		q: q, db: db, eng: eng,
		cfg:       cfg.withDefaults(),
		mux:       http.NewServeMux(),
		now:       time.Now,
		reqPrefix: hex.EncodeToString(pfx[:]),
		routeHist: make(map[string]*obs.Hist),
	}
	s.tracer = obs.NewTracer(s.cfg.SlowQueryThreshold, slowQueryLog)
	s.lg = s.cfg.Logger
	if s.lg == nil {
		s.lg = obs.Discard()
	}
	s.hub = newHub(s.cfg.WatchTailRing)
	s.limiters = map[string]*limiter{
		"query":   {max: queryInFlight},
		"cql":     {max: cqlInFlight},
		"stream":  {max: streamInFlight},
		"watch":   {max: int64(s.cfg.WatchInFlight)},
		"storage": {max: storageInFlight},
		"cluster": {max: clusterInFlight},
	}
	// The watch hub is fed by the store's write path: every acked write
	// publishes a digest (table, partition key, acked rows) that routes to
	// the one shard watching the write's event type — push, not poll, and
	// typed so unrelated writes never wake a watcher.
	s.cancelNotify = db.RegisterWriteNotify(s.hub.notify)

	// v1 wire protocol.
	s.handle("POST /v1/query", s.limited("query", s.handleQueryV1))
	s.handle("POST /v1/query/stream", s.limited("stream", s.handleQueryStream))
	s.handle("POST /v1/cql", s.limited("cql", s.handleCQLV1))
	s.handle("POST /v1/cql/stream", s.limited("stream", s.handleCQLStream))
	s.handle("GET /v1/types", s.handleTypesV1)
	s.handle("GET /v1/stats", s.handleStatsV1)
	s.handle("GET /v1/storage", s.handleStorageV1)
	s.handle("POST /v1/storage/compact", s.limited("storage", s.handleStorageCompactV1))
	s.handle("POST /v1/storage/tier", s.limited("storage", s.handleStorageTierV1))
	s.handle("GET /v1/watch", s.limited("watch", s.handleWatch))
	s.handle("GET /v1/protocol", s.handleProtocol)

	// Observability: Prometheus text exposition and the slow-query log.
	s.handle("GET /v1/metrics", s.handleMetrics)
	s.handle("GET /v1/debug/slow", s.handleSlowV1)

	// Cluster-internal RPCs: replication, shard scatter-gather, status.
	s.registerClusterRoutes()

	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// handle registers one instrumented route: the wrapper resolves the
// request ID once (client-supplied or generated), stamps it into the
// request context so every layer below — and every outbound RPC the SDK
// makes on the request's behalf — shares it, opens the request's root
// trace span, and records the route's latency histogram. The route label
// is the URL pattern without the method.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	hist := s.routeHist[route]
	if hist == nil {
		hist = &obs.Hist{}
		s.routeHist[route] = hist
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		reqID := s.requestID(r)
		ctx := api.ContextWithRequestID(r.Context(), reqID)
		ctx, sp := s.tracer.Start(ctx, route, reqID)
		h(w, r.WithContext(ctx))
		sp.End()
		hist.Record(time.Since(started))
	})
}

// Close drains the watch hub (every live watch subscriber is woken
// and completes its response) and detaches the server from the store's
// write-notification fan-out. Graceful shutdown calls Close before
// http.Server.Shutdown so long-lived watch streams do not hold the
// listener open.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancelNotify()
		s.hub.close()
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// --- Request plumbing: IDs, protocol negotiation, limits, body caps ---

// requestID returns the request ID already resolved into the context by
// the route instrumentation, else the client-supplied header value, else
// a generated one — so every caller inside one request observes the same
// ID.
func (s *Server) requestID(r *http.Request) string {
	if id, ok := api.RequestIDFromContext(r.Context()); ok {
		return id
	}
	if id := r.Header.Get(api.RequestIDHeader); id != "" && len(id) <= 128 {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.reqPrefix, s.reqSeq.Add(1))
}

// negotiate rejects clients speaking a protocol version outside
// [api.MinVersion, api.Version]. An absent header is accepted as the
// current version (curl, legacy clients).
func negotiate(r *http.Request) *api.Error {
	h := r.Header.Get(api.VersionHeader)
	if h == "" {
		return nil
	}
	var v int
	if _, err := fmt.Sscanf(h, "%d", &v); err != nil {
		return api.Errorf(api.CodeUnsupportedProtocol, "bad %s header %q", api.VersionHeader, h)
	}
	if v < api.MinVersion || v > api.Version {
		return api.Errorf(api.CodeUnsupportedProtocol,
			"protocol %d not supported (server speaks %d..%d)", v, api.MinVersion, api.Version)
	}
	return nil
}

// limiter is one route's in-flight concurrency gate.
type limiter struct {
	max      int64
	inflight atomic.Int64
	total    atomic.Int64
	rejected atomic.Int64
}

func (l *limiter) acquire() bool {
	if l.max > 0 && l.inflight.Add(1) > l.max {
		l.inflight.Add(-1)
		l.rejected.Add(1)
		return false
	}
	l.total.Add(1)
	return true
}

func (l *limiter) release() { l.inflight.Add(-1) }

func (l *limiter) stats() api.RouteStats {
	return api.RouteStats{
		InFlight: l.inflight.Load(),
		Limit:    l.max,
		Total:    l.total.Load(),
		Rejected: l.rejected.Load(),
	}
}

// limited wraps a handler with the named route's in-flight gate.
func (s *Server) limited(route string, h http.HandlerFunc) http.HandlerFunc {
	l := s.limiters[route]
	return func(w http.ResponseWriter, r *http.Request) {
		if !l.acquire() {
			s.lg.Warn("server: request rejected at in-flight limit",
				"route", route, "limit", l.max, "request_id", s.requestID(r))
			s.writeV1(w, s.now(), s.requestID(r), nil,
				api.Errorf(api.CodeOverloaded, "route %s at its in-flight limit (%d)", route, l.max))
			return
		}
		defer l.release()
		h(w, r)
	}
}

// decodeBody reads a capped JSON POST body into dst.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) *api.Error {
	defer obs.StartSpan(r.Context(), "decode").End()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return api.Errorf(api.CodeTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return api.Errorf(api.CodeBadRequest, "bad request body: %v", err)
	}
	return nil
}

// --- The envelope writer ---

// protocolHeader is the VersionHeader value of every response.
var protocolHeader = strconv.Itoa(api.Version)

// writeV1 writes the v1 envelope for result (or apiErr) in one pass: the
// envelope and the result are encoded straight into one pooled buffer —
// row results by the wire codec, without reflection or an intermediate
// copy — and leave in one Write with Content-Length set.
func (s *Server) writeV1(w http.ResponseWriter, started time.Time, reqID string, result any, apiErr *api.Error) {
	buf := api.GetBuffer()
	defer buf.Release()
	elapsed := time.Since(started).Milliseconds()
	status := http.StatusOK
	if apiErr != nil {
		apiErr.RequestID = reqID
		status = apiErr.Code.HTTPStatus()
	}
	var err error
	if buf.B, err = api.AppendResponse(buf.B, reqID, elapsed, result, apiErr); err != nil {
		apiErr = api.Errorf(api.CodeInternal, "marshal result: %v", err)
		apiErr.RequestID = reqID
		status = http.StatusInternalServerError
		buf.B, _ = api.AppendResponse(buf.B, reqID, elapsed, nil, apiErr) // an error envelope cannot fail
	}
	h := w.Header()
	h.Set("Content-Type", api.MediaTypeJSON)
	h.Set("Content-Length", strconv.Itoa(len(buf.B)))
	h.Set(api.VersionHeader, protocolHeader)
	h.Set(api.RequestIDHeader, reqID)
	w.WriteHeader(status)
	_, _ = w.Write(buf.B) // the client hanging up is the only failure, and there is no one left to tell
}

// coreFunc executes one request's business logic and returns the result
// payload or a typed error for writeV1.
type coreFunc func(w http.ResponseWriter, r *http.Request) (any, *api.Error)

// v1 adapts a core handler onto the v1 envelope with protocol
// negotiation and request IDs.
func (s *Server) v1(core coreFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started := s.now()
		reqID := s.requestID(r)
		if perr := negotiate(r); perr != nil {
			s.writeV1(w, started, reqID, nil, perr)
			return
		}
		result, apiErr := core(w, r)
		s.writeV1(w, started, reqID, result, apiErr)
		if rs, ok := result.(*rowSet); ok {
			rs.release()
		}
	}
}

// toAPIError classifies an engine/store error for the wire.
func toAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, store.ErrUnavailable):
		return api.Errorf(api.CodeUnavailable, "%v", err)
	case errors.Is(err, store.ErrWrongShard):
		return api.Errorf(api.CodeWrongShard, "%v", err)
	case strings.Contains(err.Error(), "unknown op"):
		return api.Errorf(api.CodeUnknownOp, "%v", err)
	default:
		return api.Errorf(api.CodeBadRequest, "%v", err)
	}
}

// --- Query handlers ---

// handleQueryV1 answers POST /v1/query: a query.Request, optionally
// paginated through the "page" block.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		var req api.QueryRequest
		if aerr := s.decodeBody(w, r, &req); aerr != nil {
			return nil, aerr
		}
		if req.Page != nil {
			return s.pagedQuery(r.Context(), req)
		}
		if req.Op == query.OpEvents {
			return s.eventsOneShot(r.Context(), req.Request)
		}
		result, err := s.q.ExecuteCtx(r.Context(), req.Request)
		if err != nil {
			return nil, toAPIError(err)
		}
		return result, nil
	})(w, r)
}

// --- CQL handlers ---

// parseConsistency maps the wire consistency onto store levels.
func parseConsistency(c string) (store.Consistency, *api.Error) {
	switch c {
	case "", "ONE":
		return store.One, nil
	case "QUORUM":
		return store.Quorum, nil
	case "ALL":
		return store.All, nil
	default:
		return store.One, api.Errorf(api.CodeBadRequest, "unknown consistency %q", c)
	}
}

// session builds a CQL session sharing the query engine's scan tuning,
// so column predicates push down to storage on the server's compute
// pool. ctx carries the request ID and trace span through parsing,
// planning, and the (possibly remote) scan.
func (s *Server) session(ctx context.Context, cl store.Consistency) *cql.Session {
	return &cql.Session{
		DB: s.db, CL: cl, Eng: s.eng, Ctx: ctx,
		Exec: plan.ExecOptions{Parallelism: s.q.ScanTuning()},
	}
}

// handleCQLV1 answers POST /v1/cql, optionally paginated for
// non-aggregate SELECTs.
func (s *Server) handleCQLV1(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		var req api.CQLRequest
		if aerr := s.decodeBody(w, r, &req); aerr != nil {
			return nil, aerr
		}
		cl, aerr := parseConsistency(req.Consistency)
		if aerr != nil {
			return nil, aerr
		}
		if req.Page != nil {
			return s.pagedCQL(r.Context(), req, cl)
		}
		return s.cqlOneShot(r.Context(), req.Query, cl)
	})(w, r)
}

// --- Catalog, stats, storage ---

func (s *Server) typesCore(_ http.ResponseWriter, r *http.Request) (any, *api.Error) {
	result, err := s.q.ExecuteCtx(r.Context(), query.Request{Op: query.OpTypes})
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "%v", err)
	}
	return result, nil
}

func (s *Server) handleTypesV1(w http.ResponseWriter, r *http.Request) {
	s.v1(s.typesCore)(w, r)
}

func (s *Server) statsCore(http.ResponseWriter, *http.Request) (any, *api.Error) {
	routes := make(map[string]api.RouteStats, len(s.limiters))
	for name, l := range s.limiters {
		routes[name] = l.stats()
	}
	return api.StatsPayload{
		Queries: s.q.Stats(),
		PerOp:   s.q.Metrics(),
		Cache:   s.q.CacheStats(),
		Compute: s.eng.Stats(),
		Storage: s.db.StorageStats(),
		HTTP: api.HTTPStats{
			Routes:           routes,
			WatchSubscribers: s.hub.subscribers.Load(),
			WatchDelivered:   s.hub.delivered.Load(),
			WatchWakeups:     s.hub.wakeups.Load(),
			WatchCoalesced:   s.hub.coalesced.Load(),
			WatchTailHits:    s.hub.tailHits.Load(),
			WatchTailMisses:  s.hub.tailMisses.Load(),
			WatchShards:      s.hub.shardCounts(),
		},
		Tables: s.db.Tables(),
		Nodes:  s.db.NodeIDs(),
	}, nil
}

func (s *Server) handleStatsV1(w http.ResponseWriter, r *http.Request) {
	s.v1(s.statsCore)(w, r)
}

// handleSlowV1 answers GET /v1/debug/slow: the retained slow-query
// traces, newest first — each with its request ID, statement text,
// EXPLAIN plan, and per-stage timings.
func (s *Server) handleSlowV1(w http.ResponseWriter, r *http.Request) {
	s.v1(func(http.ResponseWriter, *http.Request) (any, *api.Error) {
		traces := s.tracer.Slow()
		if traces == nil {
			traces = []obs.SlowTrace{}
		}
		return traces, nil
	})(w, r)
}

// storageCore reports the storage engine's counters (commitlog, flush,
// compaction, replay, on-disk footprint).
func (s *Server) storageCore(http.ResponseWriter, *http.Request) (any, *api.Error) {
	return s.db.StorageStats(), nil
}

func (s *Server) handleStorageV1(w http.ResponseWriter, r *http.Request) {
	s.v1(s.storageCore)(w, r)
}

// compactCore forces a full flush + compaction pass: every dirty memtable
// is flushed to disk, every multi-segment partition is merged, and
// obsolete commitlog segments are truncated.
func (s *Server) compactCore(http.ResponseWriter, *http.Request) (any, *api.Error) {
	n, err := s.db.Compact()
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "%v", err)
	}
	return api.CompactResult{
		PartitionsCompacted: n,
		Storage:             s.db.StorageStats(),
	}, nil
}

func (s *Server) handleStorageCompactV1(w http.ResponseWriter, r *http.Request) {
	s.v1(s.compactCore)(w, r)
}

// tierCore forces a tiering sweep: memtables are flushed, every eligible
// sealed segment is uploaded to the object store (verified by read-back)
// and its local data file evicted, leaving a footer stub behind. Without
// a configured tier it reports zero work.
func (s *Server) tierCore(http.ResponseWriter, *http.Request) (any, *api.Error) {
	up, ev, err := s.db.TierSweep(true)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "%v", err)
	}
	return api.TierResult{
		Uploaded: up,
		Evicted:  ev,
		Storage:  s.db.StorageStats(),
	}, nil
}

func (s *Server) handleStorageTierV1(w http.ResponseWriter, r *http.Request) {
	s.v1(s.tierCore)(w, r)
}

// handleProtocol answers GET /v1/protocol: version negotiation without
// side effects.
func (s *Server) handleProtocol(w http.ResponseWriter, r *http.Request) {
	s.v1(func(http.ResponseWriter, *http.Request) (any, *api.Error) {
		return api.ProtocolInfo{
			Protocol:    api.Version,
			MinProtocol: api.MinVersion,
			Server:      api.ServerName,
		}, nil
	})(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
