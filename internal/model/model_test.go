package model

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hpclog/internal/store"
)

func sampleEvent() Event {
	return Event{
		Time:   time.Date(2017, 8, 23, 10, 30, 15, 0, time.UTC),
		Type:   Lustre,
		Source: "c3-0c1s2n0",
		Count:  3,
		Raw:    "LustreError: 11-0: ost_read failed with -110",
		Attrs:  map[string]string{"ost": "OST0012", "errno": "-110"},
	}
}

func TestEventSchemas(t *testing.T) {
	// E1: an event round-trips through its one row, event_by_time's,
	// partitioned by (hour, type).
	e := sampleEvent()

	tkey := EventByTimeKey(e.Hour(), e.Type)
	trow := EventToTimeRow(e)
	back, err := EventFromTimeRow(tkey, trow)
	if err != nil {
		t.Fatal(err)
	}
	assertEventEqual(t, e, back)
}

func assertEventEqual(t *testing.T, want, got Event) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.Type != want.Type || got.Source != want.Source ||
		got.Count != want.Count || got.Raw != want.Raw {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	for k, v := range want.Attrs {
		if got.Attrs[k] != v {
			t.Fatalf("attr %q = %q, want %q", k, got.Attrs[k], v)
		}
	}
}

func TestEventClusteringOrder(t *testing.T) {
	// Rows within a partition must sort chronologically (Fig 1: "Sorted
	// by timestamp").
	f := func(a, b uint32) bool {
		ta := time.Unix(int64(a), 0)
		tb := time.Unix(int64(b), 0)
		ra := EventToTimeRow(Event{Time: ta, Type: MCE, Source: "s", Count: 1})
		rb := EventToTimeRow(Event{Time: tb, Type: MCE, Source: "s", Count: 1})
		if ta.Before(tb) {
			return ra.Key < rb.Key
		}
		if tb.Before(ta) {
			return rb.Key < ra.Key
		}
		return ra.Key == rb.Key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventHourBucketing(t *testing.T) {
	base := time.Date(2017, 8, 23, 10, 0, 0, 0, time.UTC)
	e1 := Event{Time: base.Add(59 * time.Minute), Type: MCE, Source: "s", Count: 1}
	e2 := Event{Time: base.Add(60 * time.Minute), Type: MCE, Source: "s", Count: 1}
	if e1.Hour() == e2.Hour() {
		t.Fatal("events one hour apart share a bucket")
	}
	if EventByTimeKey(e1.Hour(), MCE) == EventByTimeKey(e2.Hour(), MCE) {
		t.Fatal("partition keys identical across hours")
	}
}

func TestEventTimeRange(t *testing.T) {
	from := time.Unix(1000, 0)
	to := time.Unix(2000, 0)
	rg := EventTimeRange(from, to)
	inside := EventToTimeRow(Event{Time: time.Unix(1500, 0), Type: MCE, Source: "s", Count: 1})
	before := EventToTimeRow(Event{Time: time.Unix(999, 0), Type: MCE, Source: "s", Count: 1})
	atTo := EventToTimeRow(Event{Time: time.Unix(2000, 0), Type: MCE, Source: "s", Count: 1})
	if !rg.Contains(inside.Key) {
		t.Error("inside row excluded")
	}
	if rg.Contains(before.Key) {
		t.Error("early row included")
	}
	if rg.Contains(atTo.Key) {
		t.Error("range upper bound should be exclusive")
	}
	open := EventTimeRange(time.Time{}, time.Time{})
	if open.From != "" || open.To != "" {
		t.Error("zero times should produce unbounded range")
	}
}

func sampleRun() AppRun {
	return AppRun{
		JobID:  "1234567",
		App:    "LAMMPS",
		User:   "user042",
		Start:  time.Date(2017, 8, 23, 9, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 8, 23, 11, 30, 0, 0, time.UTC),
		Nodes:  []string{"c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s0n2"},
		ExitOK: true,
		Extra:  map[string]string{"queue": "batch", "cores": "48"},
	}
}

func TestApplicationSchemas(t *testing.T) {
	// E2: all three denormalized views of Fig 2 round-trip.
	a := sampleRun()
	for name, row := range map[string]store.Row{
		"by_time": AppToTimeRow(a),
		"by_name": AppToNameRow(a),
		"by_user": AppToUserRow(a),
	} {
		got, err := AppFromRow(row)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.JobID != a.JobID || got.App != a.App || got.User != a.User ||
			!got.Start.Equal(a.Start) || !got.End.Equal(a.End) || got.ExitOK != a.ExitOK {
			t.Fatalf("%s round trip mismatch: %+v", name, got)
		}
		if len(got.Nodes) != 3 || got.Nodes[0] != "c0-0c0s0n0" {
			t.Fatalf("%s nodes = %v", name, got.Nodes)
		}
		if got.Extra["queue"] != "batch" || got.Extra["cores"] != "48" {
			t.Fatalf("%s extra = %v (the Other Info columns must survive)", name, got.Extra)
		}
	}
}

func TestAppClusteringDiffersByView(t *testing.T) {
	a := sampleRun()
	byTime := AppToTimeRow(a)
	byUser := AppToUserRow(a)
	// by_time clusters on StartTime:Userid, by_user on StartTime:AppName.
	if byTime.Key == byUser.Key {
		t.Fatal("time and user views should use different clustering discriminators")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := EventFromTimeRow("noseparator", store.MapRow(store.EncodeTS(1), 0, map[string]string{ColAmount: "1"})); err == nil {
		t.Error("malformed partition key accepted")
	}
	if _, err := EventFromTimeRow("1:MCE", store.Row{Key: "short"}); err == nil {
		t.Error("short clustering key accepted")
	}
	if _, err := EventFromTimeRow("1:MCE", store.MapRow(store.EncodeTS(1), 0, map[string]string{ColAmount: "zero"})); err == nil {
		t.Error("bad amount accepted")
	}
	if _, err := AppFromRow(store.MapRow(store.EncodeTS(1), 0, map[string]string{ColEndTime: "bad"})); err == nil {
		t.Error("bad endtime accepted")
	}
}

func TestHoursIn(t *testing.T) {
	from := time.Unix(3600*10+1800, 0)
	to := time.Unix(3600*13, 0)
	hours := HoursIn(from, to)
	want := []int64{10, 11, 12}
	if len(hours) != len(want) {
		t.Fatalf("HoursIn = %v, want %v", hours, want)
	}
	for i := range want {
		if hours[i] != want[i] {
			t.Fatalf("HoursIn = %v, want %v", hours, want)
		}
	}
	if got := HoursIn(to, from); got != nil {
		t.Fatalf("inverted window should be empty, got %v", got)
	}
	// Exactly one hour starting on a boundary touches only that bucket.
	one := HoursIn(time.Unix(3600*5, 0), time.Unix(3600*6, 0))
	if len(one) != 1 || one[0] != 5 {
		t.Fatalf("one-hour window = %v", one)
	}
}

func TestSortEvents(t *testing.T) {
	ts := time.Unix(100, 0)
	events := []Event{
		{Time: ts.Add(time.Second), Type: MCE, Source: "b"},
		{Time: ts, Type: Lustre, Source: "b"},
		{Time: ts, Type: MCE, Source: "a"},
		{Time: ts, Type: DVS, Source: "a"},
	}
	SortEvents(events)
	if events[0].Source != "a" || events[0].Type != DVS {
		t.Fatalf("order[0] = %+v", events[0])
	}
	if events[1].Source != "a" || events[1].Type != MCE {
		t.Fatalf("order[1] = %+v", events[1])
	}
	if events[2].Source != "b" {
		t.Fatalf("order[2] = %+v", events[2])
	}
	if !events[3].Time.After(events[2].Time) {
		t.Fatalf("order[3] = %+v", events[3])
	}
}

func TestCatalogComplete(t *testing.T) {
	if len(EventTypes) != 9 {
		t.Fatalf("catalog has %d types, want 9", len(EventTypes))
	}
	for _, et := range EventTypes {
		if TypeDescriptions[et] == "" {
			t.Errorf("missing description for %s", et)
		}
	}
	// The paper's eight, less the per-component event table: a source read
	// of event_by_time answers it.
	if len(AllTables) != 7 || slices.Contains(AllTables, TableEventByLoc) {
		t.Fatalf("data model has tables %v, want the paper's 8 but event_by_location", AllTables)
	}
}

func TestCountDefaultsToOne(t *testing.T) {
	row := EventToTimeRow(Event{Time: time.Unix(1, 0), Type: MCE, Source: "s"})
	if row.Col(ColAmount) != "1" {
		t.Fatalf("zero Count encoded as %q, want 1", row.Col(ColAmount))
	}
}
