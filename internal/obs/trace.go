package obs

import (
	"context"
	"sync"
	"time"
)

// maxStages bounds the per-span stage list so a long-lived watch
// subscription or a 64-slice scan cannot grow a trace without bound;
// overflow is counted, not silently dropped.
const maxStages = 48

// StageRecord is one timed stage inside a trace, offsets relative to
// the root span's start.
type StageRecord struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// SlowTrace is the wire shape served by GET /v1/debug/slow: one
// completed root span that exceeded the slow-query threshold, with its
// CQL text and EXPLAIN plan when the request had them.
type SlowTrace struct {
	RequestID     string        `json:"request_id"`
	Name          string        `json:"name"`
	Start         time.Time     `json:"start"`
	Duration      time.Duration `json:"duration_ns"`
	Query         string        `json:"query,omitempty"`
	Plan          []string      `json:"plan,omitempty"`
	Stages        []StageRecord `json:"stages,omitempty"`
	StagesDropped int           `json:"stages_dropped,omitempty"`
}

// Tracer owns the slow-query ring: root spans that run longer than
// threshold are copied into a bounded in-memory ring (newest wins) at
// End. One Tracer per server.
type Tracer struct {
	threshold time.Duration
	started   Counter
	slow      Counter

	mu   sync.Mutex
	ring []SlowTrace
	next int
	full bool
}

// NewTracer returns a tracer recording traces slower than threshold
// into a ring of the given capacity. A non-positive capacity defaults
// to 128.
func NewTracer(threshold time.Duration, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	return &Tracer{threshold: threshold, ring: make([]SlowTrace, capacity)}
}

// Threshold returns the slow-query cutoff.
func (t *Tracer) Threshold() time.Duration { return t.threshold }

// Started returns the number of root spans started.
func (t *Tracer) StartedCount() int64 { return t.started.Load() }

// SlowCount returns the number of traces that crossed the threshold.
func (t *Tracer) SlowCount() int64 { return t.slow.Load() }

// Slow returns the retained slow traces, newest first.
func (t *Tracer) Slow() []SlowTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if !t.full && n == 0 {
		return nil
	}
	var out []SlowTrace
	// Walk backward from the most recently written slot.
	count := n
	if t.full {
		count = len(t.ring)
	}
	out = make([]SlowTrace, 0, count)
	for i := 0; i < count; i++ {
		idx := (n - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

func (t *Tracer) record(tr SlowTrace) {
	t.slow.Inc()
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Span is a root trace for one request. Stage recording is
// mutex-guarded because scan slices and replication acks land stages
// concurrently; the span itself is created once per request, off the
// alloc-guarded hot path.
type Span struct {
	t     *Tracer
	name  string
	reqID string
	start time.Time

	mu      sync.Mutex
	stages  []StageRecord
	dropped int
	query   string
	plan    []string
	ended   bool
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the root span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a root span named name for the given request ID and
// returns a context carrying it. End the span when the request
// finishes; if it ran longer than the tracer's threshold it lands in
// the slow-query ring.
func (t *Tracer) Start(ctx context.Context, name, requestID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Inc()
	sp := &Span{
		t:      t,
		name:   name,
		reqID:  requestID,
		start:  time.Now(),
		stages: make([]StageRecord, 0, 8),
	}
	return ContextWithSpan(ctx, sp), sp
}

// SetQuery attaches the CQL (or request) text rendered in the slow log.
func (sp *Span) SetQuery(q string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.query = q
	sp.mu.Unlock()
}

// SetPlan attaches the EXPLAIN plan rendered in the slow log.
func (sp *Span) SetPlan(lines []string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.plan = lines
	sp.mu.Unlock()
}

// addStage records one completed stage.
func (sp *Span) addStage(name string, offset, dur time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if len(sp.stages) < maxStages {
		sp.stages = append(sp.stages, StageRecord{Name: name, Offset: offset, Dur: dur})
	} else {
		sp.dropped++
	}
	sp.mu.Unlock()
}

// End closes the root span. Idempotent; safe on a nil span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	elapsed := time.Since(sp.start)
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	slow := elapsed >= sp.t.threshold
	var tr SlowTrace
	if slow {
		tr = SlowTrace{
			RequestID:     sp.reqID,
			Name:          sp.name,
			Start:         sp.start,
			Duration:      elapsed,
			Query:         sp.query,
			Plan:          sp.plan,
			Stages:        append([]StageRecord(nil), sp.stages...),
			StagesDropped: sp.dropped,
		}
	}
	sp.mu.Unlock()
	if slow {
		sp.t.record(tr)
	}
}

// Stage is an open per-stage timer returned by StartSpan; End records
// it onto the root span it was started under.
type Stage struct {
	sp    *Span
	name  string
	start time.Time
}

// StartSpan opens a stage timer named name under the root span carried
// by ctx. When ctx has no root span (untraced internal work, background
// maintenance) it returns nil, and End on a nil stage is a no-op — call
// sites need no guards.
func StartSpan(ctx context.Context, name string) *Stage {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return nil
	}
	return &Stage{sp: sp, name: name, start: time.Now()}
}

// End records the stage's duration onto its root span.
func (g *Stage) End() {
	if g == nil {
		return
	}
	g.sp.addStage(g.name, g.start.Sub(g.sp.start), time.Since(g.start))
}
