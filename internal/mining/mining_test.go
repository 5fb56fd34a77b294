package mining

import (
	"testing"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

func at(sec int64) time.Time { return time.Unix(3600*100+sec, 0).UTC() }

func ev(sec int64, typ model.EventType, src string) model.Event {
	return model.Event{Time: at(sec), Type: typ, Source: src, Count: 1}
}

func TestCoalesceMergesBursts(t *testing.T) {
	events := []model.Event{
		ev(0, model.Lustre, "a"), ev(2, model.Lustre, "b"), ev(4, model.Lustre, "a"),
		ev(60, model.Lustre, "a"), // gap > window starts a new episode
		ev(5, model.MCE, "a"),     // different type, own episode
	}
	eps := Coalesce(events, 10*time.Second, false)
	if len(eps) != 3 {
		t.Fatalf("%d episodes, want 3", len(eps))
	}
	first := eps[0]
	if first.Type != model.Lustre || first.Count != 3 || len(first.Sources) != 2 {
		t.Fatalf("first episode = %+v", first)
	}
	if d := first.End.Sub(first.Start); d != 4*time.Second {
		t.Fatalf("duration = %v", d)
	}
}

func TestCoalescePerSource(t *testing.T) {
	events := []model.Event{
		ev(0, model.Lustre, "a"), ev(1, model.Lustre, "b"), ev(2, model.Lustre, "a"),
	}
	eps := Coalesce(events, 10*time.Second, true)
	if len(eps) != 2 {
		t.Fatalf("%d episodes, want 2 (per source)", len(eps))
	}
	for _, ep := range eps {
		if len(ep.Sources) != 1 {
			t.Fatalf("per-source episode has %d sources", len(ep.Sources))
		}
	}
}

func TestCoalesceStormCompression(t *testing.T) {
	// The paper's Lustre storm (thousands of messages over minutes)
	// collapses into one system-wide episode.
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = 2 * time.Hour
	cfg.BaseRates = map[model.EventType]float64{} // storm only
	cfg.Causal = nil
	cfg.Jobs.ArrivalsPerHour = 0
	cfg.Storms[0].Start = cfg.Start.Add(time.Hour)
	corpus := logs.Generate(cfg)
	if len(corpus.Events) < 1000 {
		t.Fatalf("storm too small: %d", len(corpus.Events))
	}
	eps := Coalesce(corpus.Events, 30*time.Second, false)
	if len(eps) != 1 {
		t.Fatalf("storm coalesced into %d episodes, want 1", len(eps))
	}
	if eps[0].Count != len(corpus.Events) {
		t.Fatalf("episode count %d, want %d", eps[0].Count, len(corpus.Events))
	}
}

func TestCoalesceEmpty(t *testing.T) {
	if got := Coalesce(nil, time.Second, false); got != nil {
		t.Fatalf("coalesce(nil) = %v", got)
	}
}

func TestMineRulesFindsInjectedAssociation(t *testing.T) {
	// Windows with A always contain B; C appears independently.
	var events []model.Event
	for w := int64(0); w < 100; w++ {
		base := w * 60
		if w%2 == 0 {
			events = append(events, ev(base, model.Lustre, "a"), ev(base+10, model.AppAbort, "a"))
		}
		if w%3 == 0 {
			events = append(events, ev(base+20, model.MCE, "b"))
		}
	}
	rules, err := MineRules(events, time.Minute, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var found *Rule
	for i := range rules {
		if rules[i].Antecedent == model.Lustre && rules[i].Consequent == model.AppAbort {
			found = &rules[i]
		}
	}
	if found == nil {
		t.Fatalf("injected rule not mined: %v", rules)
	}
	if found.Confidence < 0.99 {
		t.Fatalf("confidence = %v, want 1", found.Confidence)
	}
	if found.Lift < 1.5 {
		t.Fatalf("lift = %v, want >> 1", found.Lift)
	}
	// MCE is independent of Lustre: any mined rule between them must have
	// lift near 1 (or be filtered out entirely).
	for _, r := range rules {
		if r.Antecedent == model.Lustre && r.Consequent == model.MCE && r.Lift > 1.6 {
			t.Fatalf("independent pair got lift %v", r.Lift)
		}
	}
}

func TestMineRulesThresholds(t *testing.T) {
	events := []model.Event{
		ev(0, model.Lustre, "a"), ev(1, model.AppAbort, "a"),
	}
	rules, err := MineRules(events, time.Minute, 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("single co-occurring window has support 1.0, should pass")
	}
	if _, err := MineRules(events, 0, 0.1, 0.1); err == nil {
		t.Fatal("zero window accepted")
	}
	empty, err := MineRules(nil, time.Minute, 0.1, 0.1)
	if err != nil || empty != nil {
		t.Fatalf("empty input: %v %v", empty, err)
	}
}

func TestMineSequencesDirection(t *testing.T) {
	// A at t, B at t+5 — 50 times; B never precedes A within delta.
	var events []model.Event
	for i := int64(0); i < 50; i++ {
		base := i * 100
		events = append(events,
			ev(base, model.Lustre, "a"),
			ev(base+5, model.AppAbort, "a"))
	}
	patterns, err := MineSequences(events, 20*time.Second, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 1 {
		t.Fatalf("patterns = %+v, want exactly the forward rule", patterns)
	}
	p := patterns[0]
	if p.First != model.Lustre || p.Then != model.AppAbort {
		t.Fatalf("pattern = %+v", p)
	}
	if p.Count != 50 || p.Prob != 1.0 {
		t.Fatalf("count/prob = %d/%v", p.Count, p.Prob)
	}
	if p.MedianLag != 5*time.Second {
		t.Fatalf("median lag = %v", p.MedianLag)
	}
}

func TestMineSequencesOnGeneratedCorpus(t *testing.T) {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 3 * time.Hour
	cfg.BaseRates = map[model.EventType]float64{model.Lustre: 0.8}
	cfg.Storms = nil
	cfg.Jobs.ArrivalsPerHour = 0
	cfg.Causal = []logs.CausalRule{{
		Cause: model.Lustre, Effect: model.AppAbort,
		Prob: 0.5, Lag: 30 * time.Second, Jitter: 10 * time.Second,
	}}
	corpus := logs.Generate(cfg)
	patterns, err := MineSequences(corpus.Events, time.Minute, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	var fwd, rev *SeqPattern
	for i := range patterns {
		p := &patterns[i]
		if p.First == model.Lustre && p.Then == model.AppAbort {
			fwd = p
		}
		if p.First == model.AppAbort && p.Then == model.Lustre {
			rev = p
		}
	}
	if fwd == nil {
		t.Fatalf("causal chain not mined: %+v", patterns)
	}
	if fwd.Prob < 0.3 {
		t.Fatalf("forward prob %v, want >= 0.3 (injected 0.5)", fwd.Prob)
	}
	if fwd.MedianLag < 25*time.Second || fwd.MedianLag > 45*time.Second {
		t.Fatalf("median lag %v, injected 30-40s", fwd.MedianLag)
	}
	if rev != nil && rev.Prob >= fwd.Prob {
		t.Fatalf("reverse prob %v >= forward %v", rev.Prob, fwd.Prob)
	}
}

func TestMineSequencesErrors(t *testing.T) {
	if _, err := MineSequences(nil, 0, 1, false); err == nil {
		t.Fatal("zero delta accepted")
	}
}
