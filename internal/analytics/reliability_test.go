package analytics

import (
	"testing"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/topology"
)

func regularFailures(n int, gap time.Duration, src string) []model.Event {
	events := make([]model.Event, n)
	base := time.Unix(3600*500, 0).UTC()
	for i := range events {
		events[i] = model.Event{
			Time: base.Add(time.Duration(i) * gap), Type: model.KernelPanic,
			Source: src, Count: 1,
		}
	}
	return events
}

func TestInterarrivalsRegularSpacing(t *testing.T) {
	events := regularFailures(11, 10*time.Minute, "c0-0c0s0n0")
	st, err := Interarrivals(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 11 {
		t.Fatalf("N = %d", st.N)
	}
	if st.MTBF != 10*time.Minute || st.Median != 10*time.Minute ||
		st.Min != 10*time.Minute || st.Max != 10*time.Minute {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInterarrivalsFiltersTypes(t *testing.T) {
	events := regularFailures(5, time.Minute, "c0-0c0s0n0")
	// Interleave non-failure noise that must not affect the gaps.
	noise := model.Event{Time: events[0].Time.Add(10 * time.Second), Type: model.Lustre, Source: "x", Count: 1}
	st, err := Interarrivals(append(events, noise), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.MTBF != time.Minute {
		t.Fatalf("MTBF = %v, noise leaked into failures", st.MTBF)
	}
	custom := map[model.EventType]bool{model.Lustre: true}
	if _, err := Interarrivals(append(events, noise), custom); err == nil {
		t.Fatal("single lustre event should not yield stats")
	}
}

func TestInterarrivalsTooFew(t *testing.T) {
	if _, err := Interarrivals(regularFailures(1, time.Minute, "c0-0c0s0n0"), nil); err == nil {
		t.Fatal("one failure accepted")
	}
}

func TestFailuresByComponent(t *testing.T) {
	var events []model.Event
	events = append(events, regularFailures(6, time.Minute, "c0-0c0s0n0")...)
	events = append(events, regularFailures(2, time.Minute, "c1-0c0s0n0")...)
	events = append(events, model.Event{
		Time: events[0].Time, Type: model.KernelPanic, Source: "lustre-oss1", Count: 1,
	})
	ranked, err := FailuresByComponent(events, nil, topology.LevelCabinet)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Component != "c0-0" || ranked[0].Failures != 6 {
		t.Fatalf("top = %+v", ranked[0])
	}
	found := false
	for _, r := range ranked {
		if r.Component == "lustre-oss1" {
			found = true
		}
	}
	if !found {
		t.Fatal("off-machine source dropped")
	}
	for _, r := range ranked {
		if r.MTBF <= 0 {
			t.Fatalf("non-positive MTBF: %+v", r)
		}
	}
	if _, err := FailuresByComponent(nil, nil, topology.LevelCabinet); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReliabilityOnFixtureCorpus(t *testing.T) {
	f := getFixture(t)
	st, err := Interarrivals(f.corpus.Events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.N < 10 || st.MTBF <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Min > st.Median || st.Median > st.P95 || st.P95 > st.Max {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
	ranked, err := FailuresByComponent(f.corpus.Events, nil, topology.LevelCabinet)
	if err != nil {
		t.Fatal(err)
	}
	// The MCE hotspot cabinet (c2-0 in the fixture) must rank first.
	if ranked[0].Component != "c2-0" {
		t.Fatalf("top failing cabinet = %s, want hotspot c2-0", ranked[0].Component)
	}
}
