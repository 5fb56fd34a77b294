// Package model defines the framework's data model (Section II of the
// paper): the event and application-run record types, the eight backend
// tables, and the construction of partition and clustering keys that give
// the store its spatio-temporal, time-series-friendly layout.
//
// An event is "occurrence(s) of a certain type reported at a particular
// timestamp", associated with the location (source component) where it was
// reported. Fig 1 stores events twice, partitioned by (hour, type) and by
// (hour, source); here they are stored once, in event_by_time, and "what
// happened on component C during hour H" is a source read of the hour's
// type partitions that the block footers' source group lists and Bloom
// filters prune and the block decoder selects (analytics.PlanEvents).
// event_by_location is a retired name: CQL refuses it, and stores written
// before keep its partitions, unread. Application runs are stored three
// times, keyed by hour, by application name, and by user (Fig 2).
package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Table names, one per schema in Section II-B. TableEventByLoc is the
// per-component event table of Fig 1, no longer written or read.
const (
	TableNodeInfos     = "nodeinfos"
	TableEventTypes    = "eventtypes"
	TableEventSynopsis = "eventsynopsis"
	TableEventByTime   = "event_by_time"
	TableEventByLoc    = "event_by_location"
	TableAppByTime     = "application_by_time"
	TableAppByUser     = "application_by_user"
	TableAppByLoc      = "application_by_location"
)

// AllTables lists every table of the data model.
var AllTables = []string{
	TableNodeInfos, TableEventTypes, TableEventSynopsis,
	TableEventByTime,
	TableAppByTime, TableAppByUser, TableAppByLoc,
}

// EventType identifies a monitored event class. The catalog matches the
// paper's list: machine check exceptions, memory errors, GPU failures, GPU
// memory errors, Lustre errors, DVS errors, network errors, application
// aborts, and kernel panics.
type EventType string

// Event type catalog.
const (
	MCE         EventType = "MCE"
	MemECC      EventType = "MEM_ECC"
	GPUFail     EventType = "GPU_FAIL"
	GPUDBE      EventType = "GPU_DBE"
	Lustre      EventType = "LUSTRE"
	DVS         EventType = "DVS"
	Network     EventType = "NETWORK"
	AppAbort    EventType = "APP_ABORT"
	KernelPanic EventType = "KERNEL_PANIC"
)

// EventTypes is the full catalog in canonical order.
var EventTypes = []EventType{
	MCE, MemECC, GPUFail, GPUDBE, Lustre, DVS, Network, AppAbort, KernelPanic,
}

// TypeDescriptions documents each event type, loaded into the eventtypes
// table at bootstrap.
var TypeDescriptions = map[EventType]string{
	MCE:         "machine check exception reported by the processor",
	MemECC:      "correctable/uncorrectable DRAM ECC error",
	GPUFail:     "GPU failure (off the bus, SXM power)",
	GPUDBE:      "GPU GDDR5 double bit error",
	Lustre:      "Lustre file system error (client or server)",
	DVS:         "data virtualization service error",
	Network:     "Gemini network error (LCB lane, routing)",
	AppAbort:    "user application abnormal termination",
	KernelPanic: "compute node kernel panic",
}

// Event is one occurrence record.
type Event struct {
	// Time is the occurrence timestamp.
	Time time.Time
	// Type is the event class.
	Type EventType
	// Source is the reporting component in cname form (e.g. c3-0c1s2n0)
	// or a service name for off-machine sources (e.g. Lustre OSSes).
	Source string
	// Count is the number of occurrences the event stands for (>= 1),
	// stored in its row's amount cell.
	Count int
	// Raw is the original log message text.
	Raw string
	// Attrs carries type-specific parsed fields (bank, xid, ost, ...).
	Attrs map[string]string
}

// Hour returns the event's hour bucket (unix time / 3600), the partition
// dimension of both event tables.
func (e Event) Hour() int64 { return e.Time.Unix() / 3600 }

// AppRun is one application run record from the job logs.
type AppRun struct {
	JobID  string
	App    string
	User   string
	Start  time.Time
	End    time.Time
	Nodes  []string // allocated nodes in cname form
	ExitOK bool
	Extra  map[string]string // the schema's variable "Other Info" columns
}

// Hour returns the run's start-hour bucket.
func (a AppRun) Hour() int64 { return a.Start.Unix() / 3600 }

// HourOf returns the hour bucket of an arbitrary time.
func HourOf(t time.Time) int64 { return t.Unix() / 3600 }

// --- Partition keys (the hash/distribution keys of Fig 1 and Fig 2) ---

// EventByTimeKey is the partition key of event_by_time: all events of one
// type within one hour share a partition.
func EventByTimeKey(hour int64, typ EventType) string { return hourKey(hour, string(typ)) }

// hourKey renders "<hour>:<disc>".
func hourKey(hour int64, disc string) string {
	var buf [48]byte // on the stack: the key string is the one allocation
	b := append(strconv.AppendInt(buf[:0], hour, 10), ':')
	return string(append(b, disc...))
}

// AppByTimeKey partitions application runs by start hour.
func AppByTimeKey(hour int64) string { return strconv.FormatInt(hour, 10) }

// AppByNameKey partitions application runs by application name.
func AppByNameKey(app string) string { return app }

// AppByUserKey partitions application runs by user.
func AppByUserKey(user string) string { return user }

// --- Clustering keys (sort order within a partition) ---

// eventClustering orders events by timestamp, then by a discriminator that
// keeps concurrent events from distinct sources/types distinct.
func eventClustering(t time.Time, disc string) string {
	var buf [48]byte // on the stack: the key string is the one allocation
	b := append(store.AppendTS(buf[:0], t.Unix()), ':')
	return string(append(b, disc...))
}

// EventTimeRange converts a [from, to) time window into a clustering-key
// range for either event table.
func EventTimeRange(from, to time.Time) store.Range {
	var rg store.Range
	if !from.IsZero() {
		rg.From = store.EncodeTS(from.Unix())
	}
	if !to.IsZero() {
		rg.To = store.EncodeTS(to.Unix())
	}
	return rg
}

// --- Row encoding ---

// Column names of the event rows (Fig 1: Timestamp, Source, Amount; the
// type is the partition's).
const (
	ColSource = "source"
	ColAmount = "amount"
	ColRaw    = "raw"
)

// Interned column IDs for the hot encode/decode paths: rows are built and
// read through the store's column dictionary (store.Row.ColID) so the
// per-row work is integer-keyed with no map construction. Batch folds name
// the columns they need by these IDs (store.DB.ScanPartitionBatches).
var (
	ColSourceID = store.InternColumn(ColSource)
	ColAmountID = store.InternColumn(ColAmount)
	ColRawID    = store.InternColumn(ColRaw)
)

// EventToTimeRow renders the event for the event_by_time table, where the
// partition key carries the type and the row stores the source.
func EventToTimeRow(e Event) store.Row {
	cols := make([]store.Col, 0, 3+len(e.Attrs))
	cols = append(cols,
		store.Col{ID: ColSourceID, Value: e.Source},
		store.Col{ID: ColAmountID, Value: strconv.Itoa(max(1, e.Count))},
	)
	if e.Raw != "" {
		cols = append(cols, store.Col{ID: ColRawID, Value: e.Raw})
	}
	for k, v := range e.Attrs {
		cols = append(cols, store.Col{ID: attrColID(k), Value: v})
	}
	return store.MakeRow(eventClustering(e.Time, e.Source), 0, cols)
}

// attrCols remembers the column ID of every attribute name seen, so an
// event row spells "attr."+name once per name and not once per cell.
var attrCols = struct {
	sync.RWMutex
	ids map[string]uint32
}{ids: make(map[string]uint32)}

func attrColID(name string) uint32 {
	attrCols.RLock()
	id, ok := attrCols.ids[name]
	attrCols.RUnlock()
	if !ok {
		id = store.InternColumn("attr." + name)
		attrCols.Lock()
		attrCols.ids[name] = id
		attrCols.Unlock()
	}
	return id
}

// EventFromTimeRow decodes an event_by_time row. The partition key
// supplies the type.
func EventFromTimeRow(pkey string, r store.Row) (Event, error) {
	typ, err := typeFromKey(pkey)
	if err != nil {
		return Event{}, err
	}
	ts, err := store.DecodeTS(r.Key)
	if err != nil {
		return Event{}, err
	}
	n, err := EventCount(r.Key, r.ColID(ColAmountID))
	if err != nil {
		return Event{}, err
	}
	e := Event{Time: time.Unix(ts, 0).UTC(), Type: typ, Source: r.ColID(ColSourceID), Count: n, Raw: r.ColID(ColRawID)}
	e.Attrs = prefixedCols(r, "attr.", e.Attrs)
	return e, nil
}

// EventCount parses the amount cell of the event row at clustering key
// key: the occurrence count, as persist.PosInt defines it.
func EventCount(key, amount string) (int, error) {
	n, ok := persist.PosInt(amount)
	if !ok {
		return 0, fmt.Errorf("model: bad amount %q in row %q", amount, key)
	}
	return n, nil
}

// EventCounts sets counts[i] to the occurrence count of row i of a batch
// of event rows that projects the amount column. Where the batch carries
// the column as a dictionary each distinct amount is parsed once — per
// block, or for a section dictionary once for good — and a block's
// amounts are, more often than not, all "1". Only a bad amount reads a
// key, for the error.
func EventCounts(b *store.Batch, counts []int) error {
	var buf [persist.MaxDictLen]int
	codes, dict, parsed := countOf.Resolve(b, ColAmountID, &buf)
	if dict == nil {
		for i, amount := range b.Col(ColAmountID) {
			n, err := EventCount("", amount)
			if err != nil {
				_, err = EventCount(b.Keys()[i], amount) // the same error, naming the row
				return err
			}
			counts[i] = n
		}
		return nil
	}
	for i, c := range codes {
		if counts[i] = parsed[c]; counts[i] == 0 { // a count is never 0
			_, err := EventCount(b.Keys()[i], dict[c])
			return err
		}
	}
	return nil
}

// countOf is an amount's occurrence count, 0 for a bad amount.
var countOf = persist.NewDictFunc(func(amount string) int {
	if n, ok := persist.PosInt(amount); ok {
		return n
	}
	return 0
})

// EventTimes returns the timestamps (unix seconds) of the rows of a batch
// of event rows.
func EventTimes(b *store.Batch) ([]int64, error) {
	times := b.TS()
	for i, ts := range times {
		if ts < 0 {
			if _, err := store.DecodeTS(b.Keys()[i]); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("model: timestamp of row %q overflows", b.Keys()[i])
		}
	}
	return times, nil
}

// prefixedCols collects the row's columns carrying the given name prefix
// into dst (allocated exact-size on first hit). Column names resolved from
// the dictionary are canonical interned strings and the prefix cut is a
// substring, so a row without prefixed columns costs nothing and a row
// with them costs only the map.
func prefixedCols(r store.Row, prefix string, dst map[string]string) map[string]string {
	cols := r.Cols()
	n := 0
	for _, c := range cols {
		if strings.HasPrefix(store.ColumnName(c.ID), prefix) {
			n++
		}
	}
	if n == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]string, n)
	}
	for _, c := range cols {
		if name := store.ColumnName(c.ID); strings.HasPrefix(name, prefix) {
			dst[name[len(prefix):]] = c.Value
		}
	}
	return dst
}

func typeFromKey(pkey string) (EventType, error) {
	_, typ, ok := strings.Cut(pkey, ":")
	if !ok {
		return "", fmt.Errorf("model: malformed event_by_time partition key %q", pkey)
	}
	return EventType(typ), nil
}

// TypeFromKey extracts the event type from an event_by_time partition
// key ("<hour>:<type>") — the order tie-breaker of hour-merged scans in
// the analytic server's pagination and streaming paths.
func TypeFromKey(pkey string) (EventType, error) { return typeFromKey(pkey) }

// --- Application run rows (Fig 2) ---

// Application run column names.
const (
	ColApp      = "app"
	ColUser     = "user"
	ColJobID    = "jobid"
	ColEndTime  = "endtime"
	ColNodeList = "nodelist"
	ColExitOK   = "exitok"
)

// Interned application-run column IDs.
var (
	colAppID      = store.InternColumn(ColApp)
	colUserID     = store.InternColumn(ColUser)
	colJobIDID    = store.InternColumn(ColJobID)
	colEndTimeID  = store.InternColumn(ColEndTime)
	colNodeListID = store.InternColumn(ColNodeList)
	colExitOKID   = store.InternColumn(ColExitOK)
)

// appClustering orders runs by start time then job id within a partition.
func appClustering(a AppRun, disc string) string {
	return store.EncodeTS(a.Start.Unix()) + ":" + disc
}

// AppToTimeRow renders a run for application_by_time (clustered by
// StartTime:Userid per Fig 2).
func AppToTimeRow(a AppRun) store.Row {
	return appRow(a, a.User+":"+a.JobID)
}

// AppToNameRow renders a run for the by-application view (clustered by
// StartTime:Userid).
func AppToNameRow(a AppRun) store.Row {
	return appRow(a, a.User+":"+a.JobID)
}

// AppToUserRow renders a run for the by-user view (clustered by
// StartTime:AppName).
func AppToUserRow(a AppRun) store.Row {
	return appRow(a, a.App+":"+a.JobID)
}

func appRow(a AppRun, disc string) store.Row {
	cols := make([]store.Col, 0, 6+len(a.Extra))
	cols = append(cols,
		store.Col{ID: colAppID, Value: a.App},
		store.Col{ID: colUserID, Value: a.User},
		store.Col{ID: colJobIDID, Value: a.JobID},
		store.Col{ID: colEndTimeID, Value: store.EncodeTS(a.End.Unix())},
		store.Col{ID: colNodeListID, Value: strings.Join(a.Nodes, ",")},
		store.Col{ID: colExitOKID, Value: strconv.FormatBool(a.ExitOK)},
	)
	// Variable per-run columns, the schema's "Other Info" family.
	for k, v := range a.Extra {
		cols = append(cols, store.C("info."+k, v))
	}
	return store.MakeRow(appClustering(a, disc), 0, cols)
}

// AppFromRow decodes any of the three application views back to a record.
func AppFromRow(r store.Row) (AppRun, error) {
	start, err := store.DecodeTS(r.Key)
	if err != nil {
		return AppRun{}, err
	}
	end, err := store.DecodeTS(r.ColID(colEndTimeID))
	if err != nil {
		return AppRun{}, fmt.Errorf("model: bad endtime in run row %q: %v", r.Key, err)
	}
	a := AppRun{
		JobID: r.ColID(colJobIDID),
		App:   r.ColID(colAppID),
		User:  r.ColID(colUserID),
		Start: time.Unix(start, 0).UTC(),
		End:   time.Unix(end, 0).UTC(),
	}
	if nl := r.ColID(colNodeListID); nl != "" {
		a.Nodes = strings.Split(nl, ",")
	}
	a.ExitOK = r.ColID(colExitOKID) == "true"
	a.Extra = prefixedCols(r, "info.", a.Extra)
	return a, nil
}

// HoursIn enumerates the hour buckets intersecting [from, to).
func HoursIn(from, to time.Time) []int64 {
	if !to.After(from) {
		return nil
	}
	first := HourOf(from)
	last := HourOf(to.Add(-time.Second))
	hours := make([]int64, 0, last-first+1)
	for h := first; h <= last; h++ {
		hours = append(hours, h)
	}
	return hours
}

// SortEvents orders events chronologically, breaking ties by source then
// type for determinism.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		if events[i].Source != events[j].Source {
			return events[i].Source < events[j].Source
		}
		return events[i].Type < events[j].Type
	})
}
