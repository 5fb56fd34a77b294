package analytics

import (
	"context"
	"slices"
	"strings"
	"time"
	"unsafe"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// This file is the events scanner: the one read of raw event rows behind
// every events consumer — the server's one-shot, streamed and paged wire
// results, the query engine's records and the event collections below. A
// scan is planned as (hour, time slice) tasks; a task reads its slice
// from every event_by_time partition of the hour it needs as store
// batches and yields each row as an EventRow, a view built over the batch
// without allocating. A component's events are the same read under a
// source Match, which the store's block decoder selects rows by, in place
// of the paper's second, per-component table (Fig 1). Consumers encode
// the view or copy it out; nothing in between builds a store.Row or a
// model.Event.

// Attr is one attribute of an event: an attr.* cell, named without the
// prefix.
type Attr struct{ Name, Value string }

// attrPrefix marks the columns that carry an event's type-specific
// attributes.
const attrPrefix = "attr."

// EventRow is one event as an events scan reads it: a view over the
// scan's current batch. Every string in it is valid only until the
// callback it was handed to returns; Event copies the row out.
type EventRow struct {
	// Key is the clustering key the row was read at — in a source scan
	// time:type, the key of the per-component table of the paper's Fig 1 —
	// and Disc its order tie-breaker among equal keys: the event type in an
	// all-types scan, "" otherwise. (Key, Disc) is what a page cursor
	// records.
	Key, Disc string
	// Time is the occurrence timestamp, unix seconds.
	Time   int64
	Type   string
	Source string
	Count  int
	Raw    string
	// Attrs are the attr.* cells sorted by name; a cell written empty is
	// kept.
	Attrs []Attr
	attrs [8]Attr
	key   []byte // where a source scan's Key is spelled
}

// addAttr inserts one attribute in name order; of a duplicated cell the
// later one wins, as in a map.
func (r *EventRow) addAttr(name, value string) {
	i := len(r.Attrs)
	for ; i > 0 && r.Attrs[i-1].Name > name; i-- {
	}
	if i > 0 && r.Attrs[i-1].Name == name {
		r.Attrs[i-1].Value = value
		return
	}
	r.Attrs = slices.Insert(r.Attrs, i, Attr{Name: name, Value: value})
}

// Event copies the row out as a model.Event: its source, text and
// attribute values share one allocation, its attributes are a map.
func (r *EventRow) Event() model.Event {
	var sb strings.Builder
	n := len(r.Source) + len(r.Raw)
	for _, a := range r.Attrs {
		n += len(a.Value)
	}
	sb.Grow(n)
	sb.WriteString(r.Source)
	sb.WriteString(r.Raw)
	for _, a := range r.Attrs {
		sb.WriteString(a.Value)
	}
	s := sb.String()
	next := func(n int) (v string) {
		v, s = s[:n], s[n:]
		return v
	}
	e := model.Event{Time: time.Unix(r.Time, 0).UTC(), Type: catalogType(r.Type), Count: r.Count}
	e.Source, e.Raw = next(len(r.Source)), next(len(r.Raw))
	if len(r.Attrs) > 0 {
		e.Attrs = make(map[string]string, len(r.Attrs))
		for _, a := range r.Attrs {
			e.Attrs[a.Name] = next(len(a.Value)) // names are the dictionary's, never the batch's
		}
	}
	return e
}

// catalogType returns typ as the catalog's own string when it is one, a
// copy otherwise.
func catalogType(typ string) model.EventType {
	for _, t := range model.EventTypes {
		if string(t) == typ {
			return t
		}
	}
	return model.EventType(strings.Clone(typ))
}

// eventScan is what an events request reads of event_by_time, the one
// event table: typ's partitions, or every type's; with source set, only
// the rows that component reported, found by a source read of the type
// partitions instead of a second, per-component copy of every event.
type eventScan struct {
	source string
	typ    model.EventType
}

// EventTask is one unit of an events scan: one time slice of one hour,
// read from every partition the scan needs of that hour.
type EventTask struct {
	Hour  int64
	Range store.Range
	scan  *eventScan
}

// PlanEvents plans the scan behind an events request over [from, to): one
// task per time slice of each hour, in result order. A task reads typ's
// event_by_time partition of its hour or, with no type, all nine at once,
// merged on (clustering key, type). With a source it keeps that
// component's rows alone — selected in the block decoder — merged on
// (time, type) and reported as the per-component table of the paper's
// Fig 1 keyed them (EventRow.Key).
func PlanEvents(typ model.EventType, source string, from, to time.Time, cfg ScanConfig) []EventTask {
	s := &eventScan{source: source, typ: typ}
	slice := cfg.slice()
	if source != "" {
		slice = time.Hour // a source keeps few rows of an hour: a slice would only open its partitions again
	}
	var tasks []EventTask
	for _, hour := range model.HoursIn(from, to) {
		lo, hi := hourWindow(hour, from, to)
		for _, b := range sliceBounds(lo, hi, slice) {
			tasks = append(tasks, EventTask{Hour: hour, Range: model.EventTimeRange(b[0], b[1]), scan: s})
		}
	}
	return tasks
}

// hourWindow clips [from, to) to hour bucket h.
func hourWindow(h int64, from, to time.Time) (time.Time, time.Time) {
	lo, hi := time.Unix(h*3600, 0).UTC(), time.Unix((h+1)*3600, 0).UTC()
	if from.After(lo) {
		lo = from
	}
	if to.Before(hi) {
		hi = to
	}
	return lo, hi
}

// partitions returns the task's event_by_time partition keys and their
// types, in tie-break order.
func (t EventTask) partitions() (pkeys, types []string) {
	if typ := t.scan.typ; typ != "" {
		return []string{model.EventByTimeKey(t.Hour, typ)}, []string{string(typ)}
	}
	pkeys, types = make([]string, len(model.EventTypes)), make([]string, len(model.EventTypes))
	for i, typ := range model.EventTypes {
		pkeys[i], types[i] = model.EventByTimeKey(t.Hour, typ), string(typ)
	}
	return pkeys, types
}

// tsKeyLen is the length of a clustering key's timestamp head.
var tsKeyLen = len(store.EncodeTS(0))

// eventCursor is one partition's position in a task's merge.
type eventCursor struct {
	it   store.BatchIterator
	b    *store.Batch
	i    int
	typ  string // the partition's event type
	disc string // what the rows report as their tie-breaker
}

// advance moves to the next row, reading the next batch when this one is
// done; false means the partition is exhausted or failed.
func (c *eventCursor) advance() bool {
	if c.b != nil {
		if c.i++; c.i < c.b.Len() {
			return true
		}
	}
	var ok bool
	c.b, ok = c.it.Next()
	c.i = 0
	return ok
}

// before orders two cursors' rows by (clustering key, type) or, in a
// source scan, whose keys all end in the one source, by (time, type),
// which reads no key.
func (c *eventCursor) before(o *eventCursor, bySource bool) bool {
	if bySource {
		t, ot := c.b.TS()[c.i], o.b.TS()[o.i]
		return t < ot || t == ot && c.typ < o.typ
	}
	k, ok := c.b.Keys()[c.i], o.b.Keys()[o.i]
	return k < ok || k == ok && c.typ < o.typ
}

// Run reads the task's rows in result order — by clustering key, then by
// event type across the partitions of an all-types scan; by time, then
// type, in a source scan — and hands each to each; each's error stops the
// scan and is returned. A row whose key carries no timestamp, or whose
// amount is not a count, fails the scan with the error
// model.EventFromTimeRow gives it.
func (t EventTask) Run(ctx context.Context, db *store.DB, each func(*EventRow) error) error {
	s := t.scan
	bySource := s.source != ""
	pkeys, types := t.partitions()
	rg := t.Range
	if bySource { // a bound in the reported (time, type) keys reads from its second on
		rg.From = rg.From[:min(len(rg.From), tsKeyLen)]
	}
	heads := make([]eventCursor, 0, len(pkeys))
	defer func() {
		for _, h := range heads {
			h.it.Close()
		}
	}()
	for i, pkey := range pkeys {
		var sel *store.Match
		var pr store.Pruner
		if bySource { // one per partition: a Match remembers its section's code
			sel = store.NewMatch(model.ColSource, s.source)
			pr = sel
		}
		it, err := db.PartitionBatches(ctx, model.TableEventByTime, pkey, rg, store.One, nil, sel, pr, nil)
		if err != nil {
			return err
		}
		heads = append(heads, eventCursor{it: it, typ: types[i]})
		if len(pkeys) > 1 && !bySource {
			heads[len(heads)-1].disc = types[i]
		}
	}
	live := make([]*eventCursor, 0, len(heads))
	for i := range heads {
		if h := &heads[i]; h.advance() {
			live = append(live, h)
		} else if err := h.it.Err(); err != nil {
			return err
		}
	}
	r := &EventRow{}
	lastTS, lastType := int64(-1), ""
	for len(live) > 0 {
		m := 0
		for k := 1; k < len(live); k++ {
			if live[k].before(live[m], bySource) {
				m = k
			}
		}
		h := live[m]
		// Of a source's rows that share (time, type) — only an INSERT keying
		// an event under another name makes two — the first in key order
		// stands for them all, as the per-component table's one row did.
		if ts := h.b.TS()[h.i]; !bySource || ts < 0 || ts != lastTS || h.typ != lastType {
			if err := s.view(r, h); err != nil {
				return err
			}
			lastTS, lastType = ts, h.typ
			if err := each(r); err != nil {
				return err
			}
		}
		if !h.advance() {
			if err := h.it.Err(); err != nil {
				return err
			}
			live = append(live[:m], live[m+1:]...)
		}
	}
	return nil
}

// view fills r with the cursor's row. A source scan's row reports the key
// the per-component table gave it, time:type, with no tie-breaker, which
// is what a page cursor records.
func (s *eventScan) view(r *EventRow, c *eventCursor) error {
	r.Disc = c.disc
	cells := c.b.Cells(c.i)
	ts := c.b.TS()[c.i]
	if s.source == "" || ts < 0 {
		return r.fill(c.b.Keys()[c.i], ts, c.typ, cells)
	}
	r.key = append(append(store.AppendTS(r.key[:0], ts), ':'), c.typ...)
	return r.fill(unsafe.String(unsafe.SliceData(r.key), len(r.key)), ts, c.typ, cells)
}

// ViewTimeRow fills r with one event_by_time row of type typ — an acked
// row of a write digest, say — exactly as an events scan of typ yields
// it. r's strings are row's.
func (r *EventRow) ViewTimeRow(typ string, row store.Row) error {
	r.Disc = ""
	return r.fill(row.Key, -1, typ, row.Cols())
}

// fill sets r to the event of type typ read at clustering key key, stamped
// ts (-1: read it off the key): the cells give the source, the count, the
// text and the attributes.
func (r *EventRow) fill(key string, ts int64, typ string, cells []store.Col) error {
	if ts == -1 { // no timestamp digits in a batch, or none decoded yet
		var err error
		if ts, err = store.DecodeTS(key); err != nil {
			return err
		}
	}
	if r.Attrs == nil {
		r.Attrs = r.attrs[:0]
	}
	r.Key, r.Time, r.Type, r.Source, r.Raw, r.Attrs = key, ts, typ, "", "", r.Attrs[:0]
	amount := ""
	for _, cell := range cells {
		switch cell.ID {
		case model.ColAmountID:
			amount = cell.Value
		case model.ColRawID:
			r.Raw = cell.Value
		case model.ColSourceID:
			r.Source = cell.Value
		default:
			if name, ok := strings.CutPrefix(store.ColumnName(cell.ID), attrPrefix); ok {
				r.addAttr(name, cell.Value)
			}
		}
	}
	var err error
	r.Count, err = model.EventCount(key, amount)
	return err
}

// EventRecords runs an events scan's tasks on the compute pool and
// returns what record makes of every row, in result order: the in-process
// sink of the scan; a scan without rows returns an empty, non-nil slice.
// A row dies when record returns, so record must copy what it keeps
// (EventRow.Event does).
func EventRecords[T any](eng *compute.Engine, db *store.DB, tasks []EventTask, record func(*EventRow) T) ([]T, error) {
	scan := make([]compute.ScanTask[T], len(tasks))
	for i, t := range tasks {
		scan[i] = compute.ScanTask[T]{Index: i, Run: func(yield func(T) error) error {
			return t.Run(context.TODO(), db, func(r *EventRow) error { return yield(record(r)) })
		}}
	}
	out := []T{}
	err := compute.StreamScan(eng, scan, func(_ int, batch []T) error {
		out = append(out, batch...)
		return nil
	})
	return out, err
}

// EventsByTypeScan returns all events of one type in [from, to), in
// clustering-key order.
func EventsByTypeScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return EventRecords(eng, db, PlanEvents(typ, "", from, to, cfg), (*EventRow).Event)
}

// EventsBySourceScan returns all events reported by one component in
// [from, to), by time, then type: a source read of event_by_time.
func EventsBySourceScan(eng *compute.Engine, db *store.DB, source string, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return EventRecords(eng, db, PlanEvents("", source, from, to, cfg), (*EventRow).Event)
}

// EventsAllTypesScan returns all events of every type in [from, to),
// ordered by clustering key, then type.
func EventsAllTypesScan(eng *compute.Engine, db *store.DB, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return EventRecords(eng, db, PlanEvents("", "", from, to, cfg), (*EventRow).Event)
}
