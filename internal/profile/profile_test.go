package profile

import (
	"testing"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

func mkRun(job, app string, startSec, durSec int64, nodes []string, ok bool) model.AppRun {
	start := time.Unix(3600*1000+startSec, 0).UTC()
	return model.AppRun{
		JobID: job, App: app, User: "u", Start: start,
		End: start.Add(time.Duration(durSec) * time.Second), Nodes: nodes, ExitOK: ok,
	}
}

func mkEvent(sec int64, typ model.EventType, src string) model.Event {
	return model.Event{Time: time.Unix(3600*1000+sec, 0).UTC(), Type: typ, Source: src, Count: 1}
}

func TestBuildProfiles(t *testing.T) {
	runs := []model.AppRun{
		mkRun("1", "LAMMPS", 0, 3600, []string{"n1", "n2"}, true),
		mkRun("2", "LAMMPS", 7200, 3600, []string{"n3"}, false),
		mkRun("3", "S3D", 0, 7200, []string{"n4"}, true),
	}
	events := []model.Event{
		mkEvent(100, model.MCE, "n1"),
		mkEvent(200, model.MCE, "n2"),
		mkEvent(7300, model.Lustre, "n3"),
		mkEvent(100, model.GPUDBE, "n4"),
		mkEvent(100, model.MCE, "n9"),  // not on any run
		mkEvent(5000, model.MCE, "n1"), // n1 idle at that time
	}
	profiles := Build(events, runs)
	if len(profiles) != 2 {
		t.Fatalf("%d profiles", len(profiles))
	}
	lm := profiles["LAMMPS"]
	if lm.Runs != 2 || lm.FailedRuns != 1 {
		t.Fatalf("LAMMPS runs=%d failed=%d", lm.Runs, lm.FailedRuns)
	}
	if lm.NodeHours != 3 { // 2 nodes * 1h + 1 node * 1h
		t.Fatalf("LAMMPS node-hours = %v", lm.NodeHours)
	}
	if lm.Counts[model.MCE] != 2 || lm.Counts[model.Lustre] != 1 {
		t.Fatalf("LAMMPS counts = %v", lm.Counts)
	}
	if got := lm.Rates[model.MCE]; got != 2.0/3.0 {
		t.Fatalf("LAMMPS MCE rate = %v", got)
	}
	s3d := profiles["S3D"]
	if s3d.Counts[model.GPUDBE] != 1 || s3d.Counts[model.MCE] != 0 {
		t.Fatalf("S3D counts = %v", s3d.Counts)
	}
}

func TestEvaluateFlagsAnomalousRun(t *testing.T) {
	// Baseline: two quiet runs. Anomalous run: heavy Lustre exposure.
	quiet1 := mkRun("1", "XGC", 0, 3600, []string{"n1"}, true)
	quiet2 := mkRun("2", "XGC", 4000, 3600, []string{"n2"}, true)
	noisy := mkRun("3", "XGC", 8000, 3600, []string{"n3"}, false)
	var events []model.Event
	events = append(events, mkEvent(100, model.Lustre, "n1"))
	for i := int64(0); i < 50; i++ {
		events = append(events, mkEvent(8100+i, model.Lustre, "n3"))
	}
	profiles := Build(events, []model.AppRun{quiet1, quiet2, noisy})
	report, err := Evaluate(noisy, events, profiles["XGC"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Counts[model.Lustre] != 50 {
		t.Fatalf("counts = %v", report.Counts)
	}
	if len(report.Anomalies) != 1 || report.Anomalies[0].Type != model.Lustre {
		t.Fatalf("anomalies = %+v", report.Anomalies)
	}
	if report.Anomalies[0].Factor < 2 {
		t.Fatalf("factor = %v", report.Anomalies[0].Factor)
	}
	// The quiet run is unremarkable against the same profile.
	quietReport, err := Evaluate(quiet1, events, profiles["XGC"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(quietReport.Anomalies) != 0 {
		t.Fatalf("quiet run flagged: %+v", quietReport.Anomalies)
	}
}

func TestEvaluateNeverSeenType(t *testing.T) {
	run := mkRun("1", "VASP", 0, 3600, []string{"n1"}, true)
	profiles := Build(nil, []model.AppRun{run})
	events := []model.Event{mkEvent(10, model.KernelPanic, "n1")}
	report, err := Evaluate(run, events, profiles["VASP"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Anomalies) != 1 {
		t.Fatalf("never-seen type not flagged: %+v", report)
	}
}

func TestEvaluateNilProfile(t *testing.T) {
	if _, err := Evaluate(model.AppRun{App: "X"}, nil, nil, 2); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestCompareExposure(t *testing.T) {
	runs := []model.AppRun{
		mkRun("1", "A", 0, 3600, []string{"n1"}, true),
		mkRun("2", "B", 0, 3600, []string{"n2"}, true),
	}
	events := []model.Event{
		mkEvent(1, model.MCE, "n1"), mkEvent(2, model.MCE, "n1"),
		mkEvent(3, model.MCE, "n2"),
	}
	profiles := Build(events, runs)
	exposure := Compare(profiles, model.MCE)
	if len(exposure) != 2 || exposure[0].App != "A" || exposure[0].Rate != 2 {
		t.Fatalf("exposure = %+v", exposure)
	}
}

func TestProfilesOnGeneratedCorpus(t *testing.T) {
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 2 * time.Hour
	cfg.Storms[0].Start = cfg.Start.Add(time.Hour)
	cfg.Jobs.MaxNodes = 32
	corpus := logs.Generate(cfg)
	profiles := Build(corpus.Events, corpus.Runs)
	if len(profiles) == 0 {
		t.Fatal("no profiles from corpus")
	}
	totalRuns := 0
	for _, p := range profiles {
		totalRuns += p.Runs
		if p.NodeHours <= 0 {
			t.Fatalf("profile %s has no node-hours", p.App)
		}
	}
	if totalRuns != len(corpus.Runs) {
		t.Fatalf("profiles cover %d runs of %d", totalRuns, len(corpus.Runs))
	}
	// Every failed run evaluated against its profile must at least carry
	// its own counts without error.
	for _, r := range corpus.Runs {
		if r.ExitOK {
			continue
		}
		if _, err := Evaluate(r, corpus.Events, profiles[r.App], 3); err != nil {
			t.Fatal(err)
		}
	}
}
