package analytics

import (
	"context"
	"slices"
	"strings"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// This file is the events scanner: the one read of raw event rows behind
// every events consumer — the server's one-shot, streamed and paged wire
// results, the query engine's records and the event collections below. A
// scan is planned as (hour, time slice) tasks; a task reads its slice
// from every partition of the hour it needs as store batches and yields
// each row as an EventRow, a view built over the batch without allocating.
// Consumers encode the view or copy it out; nothing in between builds a
// store.Row or a model.Event.

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
	// Key is the clustering key the row was read at and Disc its order
	// tie-breaker among equal keys: the event type in an all-types scan,
	// "" otherwise. (Key, Disc) is what a page cursor records.
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

// eventScan is what an events request reads: event_by_location keyed by
// source, or event_by_time keyed by type; typ is a type scan's type, a
// source scan's filter, or "" for every type.
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
// task per time slice of each hour, in result order. A source scan reads
// the source's event_by_location partitions, keeping only typ's rows when
// typ is set; a type scan reads typ's event_by_time partitions; with
// neither, every task reads all type partitions of its hour at once,
// merged on (clustering key, type).
func PlanEvents(typ model.EventType, source string, from, to time.Time, cfg ScanConfig) []EventTask {
	s := &eventScan{source: source, typ: typ}
	var tasks []EventTask
	for _, hour := range model.HoursIn(from, to) {
		lo, hi := hourWindow(hour, from, to)
		for _, b := range sliceBounds(lo, hi, cfg.slice()) {
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

// partitions returns the task's partition keys, in tie-break order, and
// what each keys by: the event type, or the source.
func (t EventTask) partitions() (table string, pkeys, parts []string) {
	switch s := t.scan; {
	case s.source != "":
		return model.TableEventByLoc, []string{model.EventByLocKey(t.Hour, s.source)}, []string{s.source}
	case s.typ != "":
		return model.TableEventByTime, []string{model.EventByTimeKey(t.Hour, s.typ)}, []string{string(s.typ)}
	}
	pkeys, parts = make([]string, len(model.EventTypes)), make([]string, len(model.EventTypes))
	for i, typ := range model.EventTypes {
		pkeys[i], parts[i] = model.EventByTimeKey(t.Hour, typ), string(typ)
	}
	return model.TableEventByTime, pkeys, parts
}

// eventCursor is one partition's position in a task's merge.
type eventCursor struct {
	it   store.BatchIterator
	b    *store.Batch
	i    int
	part string // what the partition key holds: the type, or the source
	disc string
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

// before orders two cursors' rows by (clustering key, tie-breaker).
func (c *eventCursor) before(o *eventCursor) bool {
	k, ok := c.b.Keys()[c.i], o.b.Keys()[o.i]
	return k < ok || k == ok && c.disc < o.disc
}

// Run reads the task's rows in result order — by clustering key, then by
// event type across the partitions of an all-types scan — and hands each
// to each; each's error stops the scan and is returned. A row whose key
// carries no timestamp, or whose amount is not a count, fails the scan
// with the error model.EventFromTimeRow gives it.
func (t EventTask) Run(ctx context.Context, db *store.DB, each func(*EventRow) error) error {
	table, pkeys, parts := t.partitions()
	heads := make([]eventCursor, 0, len(pkeys))
	defer func() {
		for _, h := range heads {
			h.it.Close()
		}
	}()
	for i, pkey := range pkeys {
		it, err := db.PartitionBatches(ctx, table, pkey, t.Range, store.One, nil, nil, nil)
		if err != nil {
			return err
		}
		heads = append(heads, eventCursor{it: it, part: parts[i]})
		if len(pkeys) > 1 {
			heads[len(heads)-1].disc = parts[i]
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
	for len(live) > 0 {
		m := 0
		for k := 1; k < len(live); k++ {
			if live[k].before(live[m]) {
				m = k
			}
		}
		h := live[m]
		if err := t.scan.view(r, h); err != nil {
			return err
		}
		if t.scan.source == "" || t.scan.typ == "" || r.Type == string(t.scan.typ) {
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

// view fills r with the cursor's row.
func (s *eventScan) view(r *EventRow, c *eventCursor) error {
	r.Disc = c.disc
	return r.fill(c.b.Keys()[c.i], c.b.TS()[c.i], c.part, s.source != "", c.b.Row(c.i).Cols())
}

// ViewTimeRow fills r with one event_by_time row of type typ — an acked
// row of a write digest, say — exactly as an events scan of typ yields
// it. r's strings are row's.
func (r *EventRow) ViewTimeRow(typ string, row store.Row) error {
	r.Disc = ""
	return r.fill(row.Key, -1, typ, false, row.Cols())
}

// fill sets r to the event read at clustering key key, stamped ts (-1:
// read it off the key): what its partition key holds, part, is the source
// when bySource and the type otherwise; the cells give the other, the
// count, the text and the attributes.
func (r *EventRow) fill(key string, ts int64, part string, bySource bool, cells []store.Col) error {
	if ts == -1 { // no timestamp digits in a batch, or none decoded yet
		var err error
		if ts, err = store.DecodeTS(key); err != nil {
			return err
		}
	}
	if r.Attrs == nil {
		r.Attrs = r.attrs[:0]
	}
	r.Key, r.Time, r.Raw, r.Attrs = key, ts, "", r.Attrs[:0]
	if bySource {
		r.Source, r.Type = part, ""
	} else {
		r.Type, r.Source = part, ""
	}
	amount := ""
	for _, cell := range cells {
		switch cell.ID {
		case model.ColAmountID:
			amount = cell.Value
		case model.ColRawID:
			r.Raw = cell.Value
		case model.ColSourceID:
			if !bySource {
				r.Source = cell.Value
			}
		case model.ColTypeID:
			if bySource {
				r.Type = cell.Value
			}
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
// [from, to), read from event_by_location, in clustering-key order.
func EventsBySourceScan(eng *compute.Engine, db *store.DB, source string, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return EventRecords(eng, db, PlanEvents("", source, from, to, cfg), (*EventRow).Event)
}

// EventsAllTypesScan returns all events of every type in [from, to),
// ordered by clustering key, then type.
func EventsAllTypesScan(eng *compute.Engine, db *store.DB, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return EventRecords(eng, db, PlanEvents("", "", from, to, cfg), (*EventRow).Event)
}
